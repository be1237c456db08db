package enkf

import (
	"fmt"
	"math"

	"senkf/internal/linalg"
)

// solveETKF writes the deterministic ensemble transform analysis at the
// point into the output row — the LETKF family of the paper's ref [25] (Ott et al.), a
// widely used alternative to the perturbed-observation update:
//
//	Ã   = (N−1)·I + Vᵀ·R⁻¹·V            (ensemble-space analysis precision)
//	w̄   = Ã⁻¹·Vᵀ·R⁻¹·(y − H·x̄ᵇ)          (mean weight vector)
//	W   = ((N−1)·Ã⁻¹)^{1/2}              (symmetric square root transform)
//	xᵃ_k = x̄ᵇ + u·w̄ + u·W_{·,k}
//
// with V = H·U the observation-space deviations. No observation
// perturbations are used, so the analysis is deterministic given the
// background and the observations; the symmetric square root preserves the
// zero-sum of deviations (1 is an eigenvector of Ã because V·1 = 0).
func (a *boxAnalyzer) solveETKF() error {
	n := a.c.N
	denom := float64(n - 1)
	v := a.obsDeviations()
	m := v.Rows

	// rhs = Vᵀ R⁻¹ d with the mean innovation d = y − H·x̄ᵇ, computed from
	// the raw observed values: the ETKF uses no observation perturbations.
	rhs := resize(a.rhs, n)
	a.rhs = rhs
	clear(rhs)
	for i := 0; i < m; i++ {
		cd := &a.cands[a.obs[i].cand]
		var hxbMean float64
		for k := 0; k < n; k++ {
			hxbMean += cd.hx[k]
		}
		d := cd.o.Value - hxbMean/float64(n)
		s := d / a.effVar[i]
		row := v.Row(i)
		for k := 0; k < n; k++ {
			rhs[k] += s * row[k]
		}
	}

	// Ã = (N−1)I + Vᵀ R⁻¹ V.
	at := reshape(&a.a, n, n)
	clear(at.Data)
	for k := 0; k < n; k++ {
		at.Set(k, k, denom)
	}
	for i := 0; i < m; i++ {
		inv := 1 / a.effVar[i]
		row := v.Row(i)
		for p := 0; p < n; p++ {
			vp := inv * row[p]
			if vp == 0 {
				continue
			}
			prow := at.Row(p)
			for q := p; q < n; q++ {
				prow[q] += vp * row[q]
			}
		}
	}
	for p := 0; p < n; p++ {
		for q := 0; q < p; q++ {
			at.Set(p, q, at.At(q, p))
		}
	}

	// w̄ = Ã⁻¹ rhs (Cholesky — Ã is SPD by construction).
	l := reshape(&a.l, n, n)
	if err := linalg.CholeskyTo(l, at); err != nil {
		return fmt.Errorf("enkf: ETKF ensemble-space system: %w", err)
	}
	wbar, err := linalg.CholSolve(l, rhs)
	if err != nil {
		return fmt.Errorf("enkf: ETKF ensemble-space system: %w", err)
	}

	// W = ((N−1)·Ã⁻¹)^{1/2} via the eigendecomposition of Ã.
	w, err := linalg.SymmetricFunc(at, func(lambda float64) (float64, error) {
		if lambda <= 0 {
			return 0, fmt.Errorf("non-positive eigenvalue %g", lambda)
		}
		return math.Sqrt(denom / lambda), nil
	})
	if err != nil {
		return fmt.Errorf("enkf: ETKF transform: %w", err)
	}

	// xᵃ_k = x̄ᵇ + u_c·w̄ + u_c·W_{·,k} with u_c the point's row of U.
	uc := a.window(a.dev, a.x, a.x+1, a.y)
	xb := a.window(a.xb, a.x, a.x+1, a.y)
	var xbar float64
	for k := 0; k < n; k++ {
		xbar += xb[k]
	}
	xbar /= float64(n)
	meanInc := linalg.Dot(uc, wbar)
	for k := 0; k < n; k++ {
		var dev float64
		for j := 0; j < n; j++ {
			dev += uc[j] * w.At(j, k)
		}
		a.out[k] = xbar + meanInc + dev
	}
	return nil
}
