package core

import (
	"math"
	"os"
	"strings"
	"testing"

	"senkf/internal/enkf"
	"senkf/internal/ensio"
	"senkf/internal/faults"
	"senkf/internal/grid"
	"senkf/internal/obs"
	"senkf/internal/workload"
)

// resilientSetup mirrors setup but also returns the background ensemble so
// degraded runs can be checked against a survivor-only serial reference.
func resilientSetup(t *testing.T) (Problem, grid.Decomposition, [][]float64) {
	t.Helper()
	ps := workload.TestScale
	m, err := ps.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	truth := workload.Truth(m, workload.DefaultFieldSpec, ps.Seed)
	bg, err := workload.Ensemble(m, truth, ps.Members, ps.Spread, ps.Seed)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := ensio.WriteEnsemble(dir, m, bg); err != nil {
		t.Fatal(err)
	}
	net, err := obs.StridedNetwork(m, truth, ps.ObsStride, ps.ObsStride, ps.ObsVar, ps.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := enkf.Config{Mesh: m, Radius: ps.Radius(), N: ps.Members, Seed: ps.Seed}
	dec, err := grid.NewDecomposition(m, 4, 2, cfg.Radius)
	if err != nil {
		t.Fatal(err)
	}
	return Problem{Cfg: cfg, Dir: dir, Net: net}, dec, bg
}

// survivorReference computes the serial analysis over the surviving
// members with the effective (reweighted) configuration.
func survivorReference(t *testing.T, p Problem, bg [][]float64, res *DegradedResult) [][]float64 {
	t.Helper()
	sub := make([][]float64, 0, len(res.Survivors))
	for _, k := range res.Survivors {
		sub = append(sub, bg[k])
	}
	ref, err := enkf.SerialReference(res.EffectiveConfig, sub, p.Net)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestResilientNilPlanBitMatches pins the hot-path contract: with no fault
// plan the resilient runner must reproduce RunSEnKF bit for bit.
func TestResilientNilPlanBitMatches(t *testing.T) {
	p, dec, _ := resilientSetup(t)
	pl := Plan{Dec: dec, L: 3, NCg: 2}
	base, err := RunSEnKF(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSEnKFResilient(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Errorf("healthy run marked degraded: %+v", res)
	}
	if len(res.Survivors) != p.Cfg.N || len(res.Dropped) != 0 {
		t.Errorf("healthy run: survivors %v dropped %v", res.Survivors, res.Dropped)
	}
	if d := enkf.MaxAbsDiffFields(res.Fields, base); d != 0 {
		t.Errorf("resilient healthy run differs from RunSEnKF by %g", d)
	}
	if res.EffectiveConfig != p.Cfg {
		t.Errorf("healthy effective config changed: %+v", res.EffectiveConfig)
	}
}

// TestResilientEndToEndDegraded is the ISSUE acceptance scenario: one OST
// outage window (recovered through retry) plus one corrupted member file.
// The run must complete and return a DegradedResult whose fields match a
// serial reference over the surviving N−1 members.
func TestResilientEndToEndDegraded(t *testing.T) {
	p, dec, bg := resilientSetup(t)
	pl := Plan{Dec: dec, L: 3, NCg: 2}
	plan := &faults.Plan{
		Seed: 7,
		OSTs: 4, // member k lives on OST k%4 for hook purposes
		OSTWindows: []faults.OSTWindow{
			{OST: 2, Start: 0, End: 1, Factor: 0}, // outage: first attempt fails, retry recovers
		},
		FileFaults: []faults.FileFault{
			{Member: 3, Kind: faults.FileCorrupt},
		},
	}
	if err := plan.Apply(p.Dir); err != nil {
		t.Fatal(err)
	}
	p.Faults = plan
	res, err := RunSEnKFResilient(p, pl)
	if err != nil {
		t.Fatalf("degraded run failed outright: %v", err)
	}
	if !res.Degraded {
		t.Error("run with a corrupted member not marked degraded")
	}
	if len(res.Dropped) != 1 || res.Dropped[0].Member != 3 || res.Dropped[0].Reason != "corrupt" {
		t.Fatalf("Dropped = %+v, want member 3 / corrupt", res.Dropped)
	}
	if len(res.Survivors) != p.Cfg.N-1 {
		t.Fatalf("survivors = %d, want %d", len(res.Survivors), p.Cfg.N-1)
	}
	for _, k := range res.Survivors {
		if k == 3 {
			t.Fatal("corrupted member listed as survivor")
		}
	}
	if res.EffectiveConfig.N != p.Cfg.N-1 {
		t.Errorf("effective N = %d, want %d", res.EffectiveConfig.N, p.Cfg.N-1)
	}
	wantInfl := math.Sqrt(float64(p.Cfg.N-1) / float64(p.Cfg.N-2))
	if math.Abs(res.EffectiveConfig.Inflation-wantInfl) > 1e-15 {
		t.Errorf("effective inflation = %g, want %g", res.EffectiveConfig.Inflation, wantInfl)
	}
	ref := survivorReference(t, p, bg, res)
	if d := enkf.MaxAbsDiffFields(res.Fields, ref); d > 1e-12 {
		t.Errorf("degraded analysis differs from survivor reference by %g", d)
	}
}

// TestResilientReaderDeathFailsOver kills one reader before stage 1: its
// bar rows must be adopted by the group's surviving reader and the
// analysis must still bit-match the healthy run (no member is lost).
func TestResilientReaderDeathFailsOver(t *testing.T) {
	p, dec, _ := resilientSetup(t)
	pl := Plan{Dec: dec, L: 3, NCg: 2}
	base, err := RunSEnKF(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{Deaths: []faults.RankDeath{
		{Group: 0, Reader: 1, BeforeStage: 1},
	}}
	p.Faults = plan
	res, err := RunSEnKFResilient(p, pl)
	if err != nil {
		t.Fatalf("reader death deadlocked or failed: %v", err)
	}
	if !res.Degraded {
		t.Error("failover run not marked degraded")
	}
	if len(res.Failovers) != 1 {
		t.Fatalf("Failovers = %+v, want exactly one", res.Failovers)
	}
	fo := res.Failovers[0]
	if fo.Group != 0 || fo.FromReader != 1 || fo.ToReader != 0 || fo.Stage != 1 {
		t.Errorf("failover record %+v", fo)
	}
	if len(res.Dropped) != 0 || len(res.Survivors) != p.Cfg.N {
		t.Errorf("failover dropped members: %+v", res)
	}
	// Every member still assimilated: the analysis is unchanged.
	if d := enkf.MaxAbsDiffFields(res.Fields, base); d != 0 {
		t.Errorf("failover analysis differs from healthy run by %g", d)
	}
}

// TestResilientMissingAndTruncated drops two members for different
// reasons and checks both the classification and the survivor analysis.
func TestResilientMissingAndTruncated(t *testing.T) {
	p, dec, bg := resilientSetup(t)
	pl := Plan{Dec: dec, L: 3, NCg: 2}
	if err := os.Remove(ensio.MemberPath(p.Dir, 1)); err != nil {
		t.Fatal(err)
	}
	tp := ensio.MemberPath(p.Dir, 6)
	fi, err := os.Stat(tp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tp, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	res, err := RunSEnKFResilient(p, pl)
	if err != nil {
		t.Fatalf("run with missing+truncated members failed outright: %v", err)
	}
	got := map[int]string{}
	for _, d := range res.Dropped {
		got[d.Member] = d.Reason
	}
	if got[1] != "missing" || got[6] != "truncated" || len(got) != 2 {
		t.Fatalf("Dropped = %+v, want member 1 missing and member 6 truncated", res.Dropped)
	}
	if len(res.Survivors) != p.Cfg.N-2 {
		t.Fatalf("survivors = %d, want %d", len(res.Survivors), p.Cfg.N-2)
	}
	ref := survivorReference(t, p, bg, res)
	if d := enkf.MaxAbsDiffFields(res.Fields, ref); d > 1e-12 {
		t.Errorf("degraded analysis differs from survivor reference by %g", d)
	}
}

// TestResilientMinMembersFloor verifies the run aborts cleanly (no hang,
// actionable error) when fewer than two members survive.
func TestResilientMinMembersFloor(t *testing.T) {
	p, dec, _ := resilientSetup(t)
	pl := Plan{Dec: dec, L: 3, NCg: 2}
	for k := 1; k < p.Cfg.N; k++ {
		if err := os.Remove(ensio.MemberPath(p.Dir, k)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := RunSEnKFResilient(p, pl)
	if err == nil {
		t.Fatal("run with a single surviving member succeeded")
	}
	if !strings.Contains(err.Error(), "need at least 2") {
		t.Errorf("unhelpful survivor-floor error: %v", err)
	}
}

// TestResilientRejectsSimOnlyPlans: time-based deaths have no meaning in
// real execution and must be rejected up front, not silently ignored.
func TestResilientRejectsSimOnlyPlans(t *testing.T) {
	p, dec, _ := resilientSetup(t)
	pl := Plan{Dec: dec, L: 3, NCg: 2}
	plan := &faults.Plan{Deaths: []faults.RankDeath{
		{Group: 0, Reader: 0, At: 0.5},
	}}
	p.Faults = plan
	if _, err := RunSEnKFResilient(p, pl); err == nil {
		t.Error("time-based death plan accepted by real runner")
	}
	bad := &faults.Plan{Deaths: []faults.RankDeath{
		{Group: 5, Reader: 0, BeforeStage: 0}, // group out of range
	}}
	p.Faults = bad
	if _, err := RunSEnKFResilient(p, pl); err == nil {
		t.Error("out-of-range death plan accepted")
	}
}

// TestResilientTransientRecovery: a transient fault within the retry
// budget must not drop the member — and the result stays bit-identical.
func TestResilientTransientRecovery(t *testing.T) {
	p, dec, _ := resilientSetup(t)
	pl := Plan{Dec: dec, L: 3, NCg: 2}
	base, err := RunSEnKF(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{FileFaults: []faults.FileFault{
		{Member: 2, Kind: faults.FileTransient, Count: 2}, // budget is 3
	}}
	p.Faults = plan
	res, err := RunSEnKFResilient(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dropped) != 0 {
		t.Errorf("recoverable transient dropped a member: %+v", res.Dropped)
	}
	if d := enkf.MaxAbsDiffFields(res.Fields, base); d != 0 {
		t.Errorf("transient-recovered run differs from healthy run by %g", d)
	}
	plan = &faults.Plan{FileFaults: []faults.FileFault{
		{Member: 2, Kind: faults.FileTransient, Count: 10}, // exceeds budget
	}}
	p.Faults = plan
	res, err = RunSEnKFResilient(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dropped) != 1 || res.Dropped[0].Member != 2 || res.Dropped[0].Reason != "io" {
		t.Errorf("budget-exceeding transient: Dropped = %+v, want member 2 / io", res.Dropped)
	}
}
