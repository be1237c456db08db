package enkf

import (
	"fmt"

	"senkf/internal/grid"
	"senkf/internal/linalg"
	"senkf/internal/obs"
)

// weightedIdx is one support point of an observation expressed in local-box
// row indices.
type weightedIdx struct {
	idx int
	w   float64
}

// localObs is one observation an analysis point uses: the candidate it
// came from and its support (H weights) in local-box rows.
type localObs struct {
	cand int
	sup  [4]weightedIdx
	n    int
}

func (lo *localObs) support() []weightedIdx { return lo.sup[:lo.n] }

// candidate is one observation prepared once per analyzer: its support in
// grid coordinates and the support's bounding box, and, from the first
// point that uses it on, its rows of H·Xᵇ, V = H·U and the centred
// perturbations Yˢ (N values each; no Yˢ for the ETKF).
type candidate struct {
	o          obs.Observation
	sup        [4]obs.Support
	n          int
	box        grid.Box
	hx, hu, ys []float64
}

// boxAnalyzer runs the local analysis of Eq. (6) point by point over one
// block and one candidate list, for the points of one target box.
//
// Everything a point's analysis reads that does not depend on the point
// is prepared once and shared by every point whose local box holds it:
//   - each grid point's background ensemble (inflated when configured) and
//     its deviations U from the ensemble mean, kept for a rolling window of
//     the last 2η+1 mesh rows the points touched;
//   - each candidate's H·Xᵇ and V = H·U rows and its centred
//     perturbations.
//
// That is exact: inflation and centring act on one grid point's ensemble,
// H on the grid points of one observation's support, and a perturbation is
// keyed by (seed, observation, member) alone, so recomputing any of them
// for another point would yield the same bits. The per-point matrices live
// in workspaces reused from point to point. An analyzer lives for one
// AnalyzeBox or AnalyzePoint call; concurrent calls share nothing.
type boxAnalyzer struct {
	c     Config
	blk   *Block
	cands []candidate
	store []float64 // unused tail of the chunk candidate rows are carved from

	// The background window: slot s holds mesh row slotY[s] (−1 when
	// empty) at columns [x0, x0+width), N values per grid point.
	x0, width int
	slotY     []int
	xb, dev   []float64

	// The current point (x, y), its local box, its row within the box,
	// and the observations it uses with their effective R diagonal.
	x, y   int
	lb     grid.Box
	center int
	obs    []localObs
	effVar []float64

	u     linalg.Matrix // U over the local box (modified Cholesky), nb × N
	v     linalg.Matrix // V = H·U (m × N), or C = HᵀR⁻¹·D (nb × N) for modified Cholesky
	innov linalg.Matrix // D = Yˢ − H·Xᵇ, m × N
	a, l  linalg.Matrix // the solver's SPD system and its Cholesky factor
	w     linalg.Matrix // the solver's Cholesky solve
	rhs   []float64     // ETKF mean-weight right-hand side (N)
	out   []float64     // the point's analysis (N)
}

// newBoxAnalyzer prepares candidates for the analysis of target's points
// over blk.
func (c Config) newBoxAnalyzer(blk *Block, candidates []obs.Observation, target grid.Box) *boxAnalyzer {
	// Every local box a target point analyses lies in target's expansion
	// and in blk (a point whose box leaves blk fails), so candidates whose
	// support leaves that region are never used. Dropping them keeps the
	// order of the rest.
	region := target.Expand(c.Mesh, c.Radius.Xi, c.Radius.Eta).Intersect(blk.Box)
	keep := 0
	for _, o := range candidates {
		if region.Covers(o.SupportBox()) {
			keep++
		}
	}
	a := &boxAnalyzer{c: c, blk: blk, cands: make([]candidate, 0, keep)}
	for _, o := range candidates {
		if box := o.SupportBox(); region.Covers(box) {
			cd := candidate{o: o, box: box}
			cd.sup, cd.n = o.Support()
			a.cands = append(a.cands, cd)
		}
	}
	slots := 2*c.Radius.Eta + 1
	a.x0, a.width = region.X0, region.Width()
	a.slotY = make([]int, slots)
	for s := range a.slotY {
		a.slotY[s] = -1
	}
	a.xb = make([]float64, slots*a.width*c.N)
	a.dev = make([]float64, slots*a.width*c.N)
	return a
}

// reshape makes m an r × c matrix over its own storage, growing it when
// needed. The contents are left as they are: callers overwrite or clear.
func reshape(m *linalg.Matrix, r, c int) *linalg.Matrix {
	if cap(m.Data) < r*c {
		m.Data = make([]float64, r*c)
	}
	m.Rows, m.Cols, m.Data = r, c, m.Data[:r*c]
	return m
}

// resize returns buf resliced to length n, grown when needed.
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// loadRows makes mesh rows [y0, y1) resident in the background window.
func (a *boxAnalyzer) loadRows(y0, y1 int) {
	n, blk := a.c.N, a.blk
	bw := blk.Box.Width()
	for yy := y0; yy < y1; yy++ {
		slot := yy % len(a.slotY)
		if a.slotY[slot] == yy {
			continue
		}
		a.slotY[slot] = yy
		for xx := a.x0; xx < a.x0+a.width; xx++ {
			off := (slot*a.width + (xx - a.x0)) * n
			row := a.xb[off : off+n]
			src := (yy-blk.Box.Y0)*bw + (xx - blk.Box.X0)
			for k := range row {
				row[k] = blk.Data[k][src]
			}
			if a.c.Inflation > 0 && a.c.Inflation != 1 {
				// Multiplicative inflation: x ← mean + λ(x − mean).
				var mean float64
				for _, v := range row {
					mean += v
				}
				mean /= float64(n)
				for k := range row {
					row[k] = mean + a.c.Inflation*(row[k]-mean)
				}
			}
			linalg.CenterTo(a.dev[off:off+n], row)
		}
	}
}

// window returns the resident values of buf (a.xb or a.dev) for grid
// points [x0, x1) of mesh row y, N per point.
func (a *boxAnalyzer) window(buf []float64, x0, x1, y int) []float64 {
	base := (y%len(a.slotY))*a.width - a.x0
	return buf[(base+x0)*a.c.N : (base+x1)*a.c.N]
}

// prepare fills a candidate's rows the first time a point uses it. Its
// support lies in that point's local box, so its rows are resident.
func (a *boxAnalyzer) prepare(cd *candidate) {
	n := a.c.N
	size := 2 * n
	if a.c.Solver != SolverETKF {
		size = 3 * n
	}
	if len(a.store) < size {
		// Candidate rows come in chunks of up to 32 candidates.
		a.store = make([]float64, min(32, len(a.cands))*size)
	}
	rows := a.store[:size:size]
	a.store = a.store[size:]
	cd.hx, cd.hu = rows[:n:n], rows[n:2*n:2*n]
	for _, s := range cd.sup[:cd.n] {
		xb, u := a.window(a.xb, s.X, s.X+1, s.Y), a.window(a.dev, s.X, s.X+1, s.Y)
		for k := 0; k < n; k++ {
			cd.hx[k] += s.W * xb[k]
			cd.hu[k] += s.W * u[k]
		}
	}
	if a.c.Solver != SolverETKF {
		// The deterministic transform uses no observation perturbations.
		cd.ys = rows[2*n:]
		obs.CenteredPerturbationsTo(cd.ys, cd.o, a.c.Seed)
	}
}

// point computes the analysis ensemble (length N) at grid point (x, y) into
// the analyzer's output row and returns it; the next call overwrites it.
func (a *boxAnalyzer) point(x, y int) ([]float64, error) {
	c, blk := a.c, a.blk
	lb := c.Radius.LocalBox(c.Mesh, x, y)
	if lb.Intersect(blk.Box) != lb {
		return nil, fmt.Errorf("enkf: local box %v of point (%d,%d) not contained in block %v", lb, x, y, blk.Box)
	}
	n := blk.Members()
	if n != c.N {
		return nil, fmt.Errorf("enkf: block has %d members, config says %d", n, c.N)
	}
	a.loadRows(lb.Y0, lb.Y1)
	a.x, a.y, a.lb = x, y, lb
	a.center = (y-lb.Y0)*lb.Width() + (x - lb.X0)
	a.obs, a.effVar = a.obs[:0], a.effVar[:0]
	for i := range a.cands {
		cd := &a.cands[i]
		if !lb.Covers(cd.box) {
			continue
		}
		w := c.taper(x, y, float64(cd.o.X)+cd.o.OffsetX, float64(cd.o.Y)+cd.o.OffsetY)
		if w < 1e-10 {
			continue
		}
		if cd.hx == nil {
			a.prepare(cd)
		}
		lo := localObs{cand: i, n: cd.n}
		for j, s := range cd.sup[:cd.n] {
			lo.sup[j] = weightedIdx{idx: (s.Y-lb.Y0)*lb.Width() + (s.X - lb.X0), w: s.W}
		}
		a.obs = append(a.obs, lo)
		a.effVar = append(a.effVar, cd.o.Variance/w)
	}
	m := len(a.obs)
	if c.Solver != SolverETKF {
		// D = Yˢ − H·Xᵇ for the perturbed-observation solvers.
		innov := reshape(&a.innov, m, n)
		for i := range a.obs {
			cd := &a.cands[a.obs[i].cand]
			row := innov.Row(i)
			for k := 0; k < n; k++ {
				row[k] = cd.ys[k] - cd.hx[k]
			}
		}
	}
	a.out = resize(a.out, n)
	copy(a.out, a.window(a.xb, x, x+1, y))
	if m == 0 {
		// No observations in reach: the analysis equals the background.
		return a.out, nil
	}
	var err error
	switch c.Solver {
	case SolverEnsembleSpace:
		err = a.solveEnsembleSpace()
	case SolverModifiedCholesky:
		err = a.solveModifiedCholesky()
	case SolverETKF:
		err = a.solveETKF()
	default:
		err = fmt.Errorf("enkf: unknown solver %d", c.Solver)
	}
	if err != nil {
		return nil, err
	}
	return a.out, nil
}

// obsDeviations gathers V = H·U (m × N) from the used candidates' rows.
func (a *boxAnalyzer) obsDeviations() *linalg.Matrix {
	v := reshape(&a.v, len(a.obs), a.c.N)
	for i := range a.obs {
		copy(v.Row(i), a.cands[a.obs[i].cand].hu)
	}
	return v
}

// solveEnsembleSpace adds δxa at the point to the output row via
// δXa = U·Vᵀ·(V·Vᵀ/(N−1) + R)⁻¹·D/(N−1).
func (a *boxAnalyzer) solveEnsembleSpace() error {
	n := a.c.N
	denom := float64(n - 1)
	v := a.obsDeviations()
	m := v.Rows
	// A = V·Vᵀ/(N−1) + R
	am := reshape(&a.a, m, m)
	linalg.AATTo(am, v)
	am.Scale(1 / denom)
	if err := am.AddDiagonal(a.effVar); err != nil {
		return err
	}
	l := reshape(&a.l, m, m)
	if err := linalg.CholeskyTo(l, am); err != nil {
		return fmt.Errorf("enkf: innovation covariance not SPD: %w", err)
	}
	// W = A⁻¹·D (m × N)
	w := reshape(&a.w, m, n)
	if err := linalg.CholSolveMatrixTo(w, l, &a.innov); err != nil {
		return err
	}
	// δxa = u · (Vᵀ·W) / (N−1) with u the point's row of U. Compute
	// t = Vᵀ·W once restricted to what we need:
	// g[k2] = Σ_k u[k]·(VᵀW)[k][k2] = Σ_i (Σ_k u[k]·V[i][k]) · W[i][k2].
	uc := a.window(a.dev, a.x, a.x+1, a.y)
	out := a.out
	for i := 0; i < m; i++ {
		s := linalg.Dot(uc, v.Row(i)) / denom
		wrow := w.Row(i)
		for k2 := 0; k2 < n; k2++ {
			out[k2] += s * wrow[k2]
		}
	}
	return nil
}

// solveModifiedCholesky adds the point's row of Eq. (5) on the local box to
// the output row: δX = (B̂⁻¹ + HᵀR⁻¹H)⁻¹ · HᵀR⁻¹ · D.
func (a *boxAnalyzer) solveModifiedCholesky() error {
	n, lb := a.c.N, a.lb
	nb, lbw := lb.Points(), lb.Width()
	u := reshape(&a.u, nb, n)
	for yy := lb.Y0; yy < lb.Y1; yy++ {
		copy(u.Data[(yy-lb.Y0)*lbw*n:], a.window(a.dev, lb.X0, lb.X1, yy))
	}
	band := a.c.Band
	if band == 0 {
		// Default to coupling within one local-box row.
		band = 2*a.c.Radius.Xi + 1
	}
	if band >= nb {
		band = nb - 1
	}
	ridge := a.c.Ridge
	if ridge == 0 {
		ridge = 1e-6
	}
	m2, err := linalg.ModifiedCholeskyPrecision(u, band, ridge)
	if err != nil {
		return fmt.Errorf("enkf: modified Cholesky estimate: %w", err)
	}
	// M = B̂⁻¹ + HᵀR⁻¹H: each observation contributes its weight outer
	// product w·wᵀ/R over its support rows.
	for i := range a.obs {
		sup := a.obs[i].support()
		inv := 1 / a.effVar[i]
		for _, p := range sup {
			for _, q := range sup {
				m2.Data[p.idx*nb+q.idx] += p.w * q.w * inv
			}
		}
	}
	// C = HᵀR⁻¹·D (nb × N).
	cm := reshape(&a.v, nb, n)
	clear(cm.Data)
	for i := range a.obs {
		drow := a.innov.Row(i)
		inv := 1 / a.effVar[i]
		for _, p := range a.obs[i].support() {
			crow := cm.Row(p.idx)
			for k := 0; k < n; k++ {
				crow[k] += p.w * inv * drow[k]
			}
		}
	}
	l := reshape(&a.l, nb, nb)
	if err := linalg.CholeskyTo(l, m2); err != nil {
		return fmt.Errorf("enkf: analysis matrix not SPD: %w", err)
	}
	dx := reshape(&a.w, nb, n)
	if err := linalg.CholSolveMatrixTo(dx, l, cm); err != nil {
		return err
	}
	centre := dx.Row(a.center)
	for k := 0; k < n; k++ {
		a.out[k] += centre[k]
	}
	return nil
}
