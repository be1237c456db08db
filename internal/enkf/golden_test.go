package enkf

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"testing"

	"senkf/internal/grid"
	"senkf/internal/obs"
	"senkf/internal/workload"
)

// The kernel golden hashes pin AnalyzeBox and AnalyzePoint bit for bit.
// They were recorded from the per-point kernel that rebuilt every local
// matrix and redrew every perturbation for each grid point, before the
// per-box analyzer replaced it; the analyzer must reproduce them exactly.
// One hash per solver covers every taper × inflation × radius × network
// combination of goldenKernelCases.
var goldenKernel = map[Solver]string{
	SolverEnsembleSpace:    "4ef8b26c83f38e921e950bcb4fe14d6b4d334996b27b5ac69ecd453fbca18de5",
	SolverModifiedCholesky: "744d74608911a95edbf547b977fabe3a868185092c14a11fbbd6b607f14f0f05",
	SolverETKF:             "fd72b00e5469b1f755d536dc7e9207a5c52dc0f9494755729a24711f33081338",
}

// goldenKernelProblem is the fixed seeded problem behind the hashes: a
// 20×14 mesh, 8 members, a stride-2 on-grid network and a 70-observation
// off-grid (bilinear) network. Any change to these constants invalidates
// the pin.
func goldenKernelProblem(t *testing.T) (grid.Mesh, [][]float64, map[string]*obs.Network) {
	t.Helper()
	const (
		members = 8
		seed    = 4242
	)
	m, err := grid.NewMesh(20, 14)
	if err != nil {
		t.Fatal(err)
	}
	truth := workload.Truth(m, workload.DefaultFieldSpec, seed)
	bg, err := workload.Ensemble(m, truth, members, 1.5, seed)
	if err != nil {
		t.Fatal(err)
	}
	strided, err := obs.StridedNetwork(m, truth, 2, 2, 0.05, seed)
	if err != nil {
		t.Fatal(err)
	}
	offGrid, err := obs.RandomOffGridNetwork(m, truth, 70, 0.05, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m, bg, map[string]*obs.Network{"strided": strided, "offgrid": offGrid}
}

// goldenCase is one configuration of the kernel pin, analysed over the
// network named net.
type goldenCase struct {
	name string
	cfg  Config
	net  string
}

// goldenKernelCases enumerates the configurations one solver's hash covers,
// in a fixed order.
func goldenKernelCases(m grid.Mesh, solver Solver) []goldenCase {
	var out []goldenCase
	for _, net := range []string{"strided", "offgrid"} {
		for _, taper := range []float64{0, 1.5} {
			for _, infl := range []float64{0, 1.1} {
				for _, r := range []grid.Radius{{Xi: 0, Eta: 0}, {Xi: 2, Eta: 1}, {Xi: 3, Eta: 3}} {
					cfg := Config{
						Mesh: m, Radius: r, N: 8, Seed: 99, Solver: solver,
						TaperLength: taper, Inflation: infl,
					}
					name := fmt.Sprintf("%s/taper=%g/infl=%g/r=%d,%d", net, taper, infl, r.Xi, r.Eta)
					out = append(out, goldenCase{name, cfg, net})
				}
			}
		}
	}
	return out
}

// writeFloats appends the little-endian IEEE-754 bits of vs to h.
func writeFloats(h io.Writer, vs []float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

func TestKernelGolden(t *testing.T) {
	m, bg, nets := goldenKernelProblem(t)
	full := grid.Box{X0: 0, X1: m.NX, Y0: 0, Y1: m.NY}
	fullBlk := &Block{Box: full, Data: bg}
	// An interior target touching no mesh edge, analysed from its
	// expansion only (as a compute rank does), plus single points at a
	// corner, an edge and the interior analysed from the full field.
	target := grid.Box{X0: 5, X1: 13, Y0: 4, Y1: 10}
	points := [][2]int{{0, 0}, {19, 7}, {9, 6}, {4, 13}}
	for _, solver := range []Solver{SolverEnsembleSpace, SolverModifiedCholesky, SolverETKF} {
		h := sha256.New()
		for _, tc := range goldenKernelCases(m, solver) {
			net := nets[tc.net]
			exp := target.Expand(m, tc.cfg.Radius.Xi, tc.cfg.Radius.Eta)
			expBlk, err := fullBlk.SubBlock(exp)
			if err != nil {
				t.Fatal(err)
			}
			out, err := tc.cfg.AnalyzeBox(expBlk, net.InBox(exp), target)
			if err != nil {
				t.Fatalf("%s %s: AnalyzeBox: %v", solver, tc.name, err)
			}
			for _, member := range out.Data {
				writeFloats(h, member)
			}
			for _, pt := range points {
				xa, err := tc.cfg.AnalyzePoint(fullBlk, net.Obs, pt[0], pt[1])
				if err != nil {
					t.Fatalf("%s %s: AnalyzePoint%v: %v", solver, tc.name, pt, err)
				}
				writeFloats(h, xa)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenKernel[solver] {
			t.Errorf("%s kernel hash %s, golden %s", solver, got, goldenKernel[solver])
		}
	}
}
