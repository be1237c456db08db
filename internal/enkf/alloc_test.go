package enkf

import (
	"testing"

	"senkf/internal/grid"
	"senkf/internal/obs"
	"senkf/internal/workload"
)

// TestAnalyzeBoxAllocations guards the per-box analyzer's workspaces: the
// local analysis of a stage-sized target must not allocate per point. The
// set-up is real-dense's kernel shape on a smaller mesh: N = 24, ξ = 4,
// η = 2, observations every 3rd point, a 32×16 target analysed with the
// whole network as candidates. The per-point kernel this replaced made 460,
// 771 and 295 allocations per point for the three solvers.
func TestAnalyzeBoxAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are measured in the full run")
	}
	const members = 24
	m, err := grid.NewMesh(64, 32)
	if err != nil {
		t.Fatal(err)
	}
	truth := workload.Truth(m, workload.DefaultFieldSpec, 11)
	bg, err := workload.Ensemble(m, truth, members, 1.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	net, err := obs.StridedNetwork(m, truth, 3, 3, 0.01, 11)
	if err != nil {
		t.Fatal(err)
	}
	radius := grid.Radius{Xi: 4, Eta: 2}
	target := grid.Box{X0: 16, X1: 48, Y0: 8, Y1: 24}
	blk := &Block{Box: grid.Box{X0: 0, X1: m.NX, Y0: 0, Y1: m.NY}, Data: bg}
	for _, tc := range []struct {
		solver   Solver
		perPoint float64 // inclusive bound on allocations per analysed point
	}{
		{SolverEnsembleSpace, 2},
		{SolverModifiedCholesky, 770},
		{SolverETKF, 30},
	} {
		cfg := Config{Mesh: m, Radius: radius, N: members, Seed: 11, Solver: tc.solver}
		allocs := testing.AllocsPerRun(2, func() {
			if _, err := cfg.AnalyzeBox(blk, net.Obs, target); err != nil {
				t.Fatal(err)
			}
		})
		perPoint := allocs / float64(target.Points())
		t.Logf("%s: %.0f allocations per AnalyzeBox, %.2f per point", tc.solver, allocs, perPoint)
		if perPoint > tc.perPoint {
			t.Errorf("%s: %.2f allocations per point, want at most %g", tc.solver, perPoint, tc.perPoint)
		}
	}
}
