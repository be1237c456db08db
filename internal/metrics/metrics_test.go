package metrics

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestPhaseString(t *testing.T) {
	want := map[Phase]string{
		PhaseRead: "read", PhaseComm: "comm", PhaseCompute: "compute", PhaseWait: "wait",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), s)
		}
	}
	if Phase(42).String() == "" {
		t.Error("unknown phase string empty")
	}
}

func TestRecordAndBreakdown(t *testing.T) {
	r := NewRecorder()
	r.Record("io0", PhaseRead, 0, 2)
	r.Record("io0", PhaseComm, 2, 3)
	r.Record("io1", PhaseRead, 0, 1)
	r.Record("cp0", PhaseCompute, 0, 5)
	r.Record("cp0", PhaseWait, 5, 6)

	io := r.Breakdown("io")
	if io.Read != 3 || io.Comm != 1 || io.Compute != 0 || io.Wait != 0 {
		t.Errorf("io breakdown %+v", io)
	}
	cp := r.Breakdown("cp")
	if cp.Compute != 5 || cp.Wait != 1 {
		t.Errorf("cp breakdown %+v", cp)
	}
	all := r.Breakdown("")
	if all.Total() != 10 {
		t.Errorf("total %g, want 10", all.Total())
	}
}

// TestBreakdownIsOrderIndependent: the same intervals recorded in a
// different order sum to bit-identical breakdowns, because processors are
// summed in sorted order rather than map order.
func TestBreakdownIsOrderIndependent(t *testing.T) {
	const procs = 64
	record := func(r *Recorder, i int) {
		name := fmt.Sprintf("io/g%d/r%d", i/8, i%8)
		start := float64(i) / 3
		r.Record(name, PhaseRead, start, start+1/float64(i+7))
		r.Record(name, PhaseComm, start, start+math.Pi/float64(i+3))
	}
	for trial := 0; trial < 8; trial++ {
		fwd, rev := NewRecorder(), NewRecorder()
		for i := 0; i < procs; i++ {
			record(fwd, i)
			record(rev, procs-1-i)
		}
		a, b := fwd.Breakdown("io"), rev.Breakdown("io")
		if a != b {
			t.Fatalf("trial %d: breakdowns differ: %+v vs %+v", trial, a, b)
		}
		if m, n := fwd.MeanBreakdown("io"), rev.MeanBreakdown("io"); m != n {
			t.Fatalf("trial %d: mean breakdowns differ: %+v vs %+v", trial, m, n)
		}
	}
}

func TestDegenerateIntervalsDropped(t *testing.T) {
	r := NewRecorder()
	r.Record("a", PhaseRead, 5, 5)
	r.Record("a", PhaseRead, 5, 4)
	if b := r.Breakdown(""); b.Total() != 0 {
		t.Errorf("degenerate intervals recorded: %+v", b)
	}
}

func TestPercentAndGet(t *testing.T) {
	var b Breakdown
	b.Add(PhaseRead, 1)
	b.Add(PhaseCompute, 3)
	if p := b.Percent(PhaseRead); math.Abs(p-25) > 1e-12 {
		t.Errorf("read percent %g, want 25", p)
	}
	if p := b.Percent(PhaseCompute); math.Abs(p-75) > 1e-12 {
		t.Errorf("compute percent %g, want 75", p)
	}
	if (Breakdown{}).Percent(PhaseRead) != 0 {
		t.Error("empty breakdown percent should be 0")
	}
	if b.Get(Phase(9)) != 0 {
		t.Error("unknown phase Get should be 0")
	}
}

func TestProcsAndMeanBreakdown(t *testing.T) {
	r := NewRecorder()
	r.Record("io0", PhaseRead, 0, 4)
	r.Record("io1", PhaseRead, 0, 2)
	procs := r.Procs("io")
	if len(procs) != 2 || procs[0] != "io0" || procs[1] != "io1" {
		t.Errorf("procs %v", procs)
	}
	mean := r.MeanBreakdown("io")
	if mean.Read != 3 {
		t.Errorf("mean read %g, want 3", mean.Read)
	}
	if (NewRecorder()).MeanBreakdown("none").Total() != 0 {
		t.Error("mean of no procs should be zero")
	}
}

func TestUnionSpans(t *testing.T) {
	got := UnionSpans([]Span{{3, 4}, {0, 2}, {1, 3.5}, {6, 7}})
	want := []Span{{0, 4}, {6, 7}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if UnionSpans(nil) != nil {
		t.Error("empty union should be nil")
	}
}

func TestSpansByPhase(t *testing.T) {
	r := NewRecorder()
	r.Record("cp0", PhaseCompute, 0, 2)
	r.Record("cp1", PhaseCompute, 1, 3)
	r.Record("cp0", PhaseWait, 3, 4)
	spans := r.Spans("cp", PhaseCompute)
	if len(spans) != 1 || spans[0] != (Span{0, 3}) {
		t.Errorf("compute spans %v", spans)
	}
	both := r.Spans("cp", PhaseCompute, PhaseWait)
	if SpanTotal(both) != 4 {
		t.Errorf("compute+wait total %g, want 4", SpanTotal(both))
	}
}

func TestOverlapDuration(t *testing.T) {
	a := []Span{{0, 2}, {4, 6}}
	b := []Span{{1, 5}}
	if d := OverlapDuration(a, b); math.Abs(d-2) > 1e-12 {
		t.Errorf("overlap %g, want 2", d)
	}
	if d := OverlapDuration(a, nil); d != 0 {
		t.Errorf("overlap with empty = %g", d)
	}
	disjoint := []Span{{10, 11}}
	if d := OverlapDuration(a, disjoint); d != 0 {
		t.Errorf("disjoint overlap = %g", d)
	}
}

func TestOverlapScenarioLikeFig11(t *testing.T) {
	// I/O happens at [0,1] (exposed) and [1,9] (hidden behind compute).
	r := NewRecorder()
	r.Record("io0", PhaseRead, 0, 9)
	r.Record("cp0", PhaseCompute, 1, 10)
	io := r.Spans("io", PhaseRead, PhaseComm)
	cp := r.Spans("cp", PhaseCompute)
	overlapped := OverlapDuration(io, cp)
	if math.Abs(overlapped-8) > 1e-12 {
		t.Errorf("overlapped = %g, want 8", overlapped)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record("p", PhaseCompute, float64(i), float64(i)+0.5)
			}
		}(g)
	}
	wg.Wait()
	if got := r.Breakdown("p").Compute; math.Abs(got-16*100*0.5) > 1e-9 {
		t.Errorf("concurrent total %g", got)
	}
}

func TestQuickUnionSpansInvariants(t *testing.T) {
	f := func(raw []struct{ A, B uint8 }) bool {
		var spans []Span
		var total float64
		for _, r := range raw {
			lo, hi := float64(r.A), float64(r.A)+float64(r.B%16)+0.5
			spans = append(spans, Span{lo, hi})
			total += hi - lo
		}
		u := UnionSpans(spans)
		// Disjoint, sorted, and total does not exceed raw sum.
		for i := 1; i < len(u); i++ {
			if u[i].Start <= u[i-1].End {
				return false
			}
		}
		return SpanTotal(u) <= total+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
