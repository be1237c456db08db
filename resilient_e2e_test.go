// Resilience as a policy of the one engine: resilient runs read the run's
// fault plan from Problem.Faults and carry every hook a plain run carries —
// run observer, stage-tagged spans, pprof labels, wire telemetry — with the
// same structure and edges as RunSEnKF when nothing fails.
package senkf

import (
	"testing"

	"senkf/internal/enkf"
	"senkf/internal/faults"
	"senkf/internal/monitor"
	"senkf/internal/plan"
	"senkf/internal/runtimeobs"
	"senkf/internal/trace"
)

// countingObserver forwards to a monitor and counts the run callbacks.
type countingObserver struct {
	*monitor.Monitor
	begins, ends int
}

func (o *countingObserver) BeginRun(c *plan.Compiled) {
	o.begins++
	o.Monitor.BeginRun(c)
}

func (o *countingObserver) EndRun(err error) error {
	o.ends++
	return o.Monitor.EndRun(err)
}

// TestFacadeResilientAppliesProblemFaults: the fault plan on the problem —
// the one the CLIs fill from -faults — drives the resilient run. A reader
// death fails over inside its group and the analysis stays bit-identical.
func TestFacadeResilientAppliesProblemFaults(t *testing.T) {
	p, dec, _, _ := buildProblem(t)
	pl := Plan{Dec: dec, L: 3, NCg: 2}
	base, err := RunSEnKF(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	p.Faults = &FaultPlan{Deaths: []RankDeath{{Group: 0, Reader: 1, BeforeStage: 1}}}
	res, err := RunSEnKFResilient(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failovers) != 1 || !res.Degraded {
		t.Fatalf("Failovers = %+v (degraded %v), want exactly one", res.Failovers, res.Degraded)
	}
	if d := enkf.MaxAbsDiffFields(res.Fields, base); d != 0 {
		t.Errorf("failover analysis differs from RunSEnKF by %g", d)
	}
}

// TestResilientRunCarriesEngineHooks: a healthy resilient run is watched
// like any other — monitor callbacks, stage-tagged spans, labels — and has
// the plain run's structural DAG and the plan's exact edge matrix.
func TestResilientRunCarriesEngineHooks(t *testing.T) {
	p, dec, _, _ := buildProblem(t)
	pl := Plan{Dec: dec, L: 3, NCg: 2}
	cp, err := CompilePlan(SEnKFSpec(dec, p.Cfg.N, pl.L, pl.NCg))
	if err != nil {
		t.Fatal(err)
	}

	baseBuf := trace.NewBuffer()
	bp := p
	bp.Tr = NewWallTracer(baseBuf)
	if _, err := RunSEnKF(bp, pl); err != nil {
		t.Fatal(err)
	}

	mon := monitor.New(monitor.Options{})
	defer mon.Close()
	obs := &countingObserver{Monitor: mon}
	buf := trace.NewBuffer()
	wc := NewWireCollector()
	rp := p
	rp.Tr = NewWallTracer(mon.Tee(buf))
	rp.Obs = obs
	rp.Msgs = wc
	rp.Prof = runtimeobs.Labels("resilient-test", "senkf", "real")
	res, err := RunSEnKFResilient(rp, pl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Errorf("healthy run marked degraded: %+v", res)
	}
	if obs.begins != 1 || obs.ends != 1 {
		t.Errorf("BeginRun/EndRun called %d/%d times, want 1/1", obs.begins, obs.ends)
	}
	if st := mon.Status(); st.Conformance.DivergenceCount != 0 || !st.Complete {
		t.Errorf("resilient run: complete %v, divergences %v", st.Complete, st.Conformance.Divergences)
	}
	tagged := 0
	for _, ev := range buf.Events() {
		if _, ok := ev.ArgValue(trace.ArgStage); ok && ev.Cat == trace.CatPhase {
			tagged++
		}
	}
	if tagged == 0 {
		t.Error("resilient run emitted no stage-tagged spans")
	}
	if err := DiffDAG(TraceDAG(buf.Events()), TraceDAG(baseBuf.Events())); err != nil {
		t.Errorf("resilient vs RunSEnKF DAG: %v", err)
	}
	if err := ExpectedEdges(cp).Diff(wc.Matrix()); err != nil {
		t.Errorf("expected vs resilient edges: %v", err)
	}
}

// TestResilientDropShrinksEdges: a corrupt member is dropped, and the wire
// records exactly the plan's edges minus that member's messages.
func TestResilientDropShrinksEdges(t *testing.T) {
	p, dec, _, _ := buildProblem(t)
	pl := Plan{Dec: dec, L: 3, NCg: 2}
	const bad = 3
	p.Faults = &FaultPlan{Seed: 5, FileFaults: []FileFault{{Member: bad, Kind: faults.FileCorrupt}}}
	if err := p.Faults.Apply(p.Dir); err != nil {
		t.Fatal(err)
	}
	cp, err := CompilePlan(SEnKFSpec(dec, p.Cfg.N, pl.L, pl.NCg))
	if err != nil {
		t.Fatal(err)
	}
	wc := NewWireCollector()
	p.Msgs = wc
	res, err := RunSEnKFResilient(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dropped) != 1 || res.Dropped[0].Member != bad {
		t.Fatalf("Dropped = %+v, want member %d", res.Dropped, bad)
	}
	want := ExpectedEdges(cp)
	for _, r := range cp.IO {
		for _, st := range r.Stages {
			for _, k := range st.Members {
				if k != bad {
					continue
				}
				for _, dst := range st.Comm.Dsts {
					key := EdgeKey{Src: r.Rank, Dst: dst, Stage: st.Stage}
					es := want[key]
					es.Msgs--
					es.Bytes -= StageMsgBytes(cp, dst, st.Stage)
					want[key] = es
				}
			}
		}
	}
	if err := want.Diff(wc.Matrix()); err != nil {
		t.Errorf("plan-minus-dropped vs resilient edges: %v", err)
	}
}
