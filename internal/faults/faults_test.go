package faults

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestNilPlanIsInert(t *testing.T) {
	var pl *Plan
	if _, ok := pl.WindowAt(0, 1); ok {
		t.Error("nil plan has a window")
	}
	if f := pl.SlowdownFor("io/g0/r0"); f != 1 {
		t.Errorf("nil plan slowdown = %g", f)
	}
	if _, ok := pl.FaultFor(3); ok {
		t.Error("nil plan has a file fault")
	}
	if pl.Drops(3) {
		t.Error("nil plan drops a member")
	}
	if pl.DeadAt(0, 0, 0, 0) || pl.DeadBeforeStage(0, 0, 0) {
		t.Error("nil plan kills a rank")
	}
	if hook := pl.EnsioHook(); hook != nil {
		t.Error("nil plan yields a hook")
	}
	if err := pl.Validate(2, 2, 3, 12, 8); err != nil {
		t.Errorf("nil plan invalid: %v", err)
	}
	if err := pl.Apply(t.TempDir()); err != nil {
		t.Errorf("nil plan apply: %v", err)
	}
}

func TestWindowAt(t *testing.T) {
	pl := &Plan{OSTWindows: []OSTWindow{{OST: 2, Start: 1, End: 3, Factor: 0}}}
	if _, ok := pl.WindowAt(2, 0.5); ok {
		t.Error("window before start")
	}
	w, ok := pl.WindowAt(2, 1)
	if !ok || w.Factor != 0 {
		t.Errorf("window at start = %v %v", w, ok)
	}
	if _, ok := pl.WindowAt(2, 3); ok {
		t.Error("window at end (half-open)")
	}
	if _, ok := pl.WindowAt(1, 2); ok {
		t.Error("window on wrong OST")
	}
}

func TestDeathPredicates(t *testing.T) {
	pl := &Plan{Deaths: []RankDeath{
		{Group: 0, Reader: 1, BeforeStage: 2},
		{Group: 1, Reader: 0, At: 5.0},
	}}
	if pl.DeadAt(0, 1, 1, 99) {
		t.Error("stage-death fired early")
	}
	if !pl.DeadAt(0, 1, 2, 0) || !pl.DeadAt(0, 1, 3, 0) {
		t.Error("stage-death did not fire at/after its stage")
	}
	if pl.DeadAt(1, 0, 9, 4.9) {
		t.Error("time-death fired before At")
	}
	if !pl.DeadAt(1, 0, 0, 5.0) {
		t.Error("time-death did not fire at At")
	}
	// Real execution ignores time-based deaths.
	if pl.DeadBeforeStage(1, 0, 99) {
		t.Error("time-death fired in the stage-only predicate")
	}
	if !pl.DeadBeforeStage(0, 1, 2) {
		t.Error("stage-death missing in stage-only predicate")
	}
}

func TestSuccessor(t *testing.T) {
	dead := func(j int) bool { return j == 1 || j == 2 }
	if s, ok := Successor(1, 4, dead); !ok || s != 3 {
		t.Errorf("successor of 1 = %d, %v", s, ok)
	}
	if s, ok := Successor(2, 4, dead); !ok || s != 3 {
		t.Errorf("successor of 2 = %d, %v", s, ok)
	}
	if _, ok := Successor(0, 2, func(int) bool { return true }); ok {
		t.Error("successor found in a fully dead group")
	}
}

// TestServing pins the failover rule over group sizes and death
// patterns: which rows each reader serves, and which it newly adopts.
func TestServing(t *testing.T) {
	cases := []struct {
		name        string
		nsdy, j     int
		dead, known []int // dead rows now; rows already adopted earlier
		rows        []int
		adopted     []int
	}{
		{"healthy", 4, 0, nil, nil, []int{0}, nil},
		{"single reader", 1, 0, nil, nil, []int{0}, nil},
		{"partner dead", 2, 0, []int{1}, nil, []int{0, 1}, []int{1}},
		{"already adopted", 2, 0, []int{1}, []int{1}, []int{0, 1}, nil},
		{"not my row", 4, 0, []int{1}, nil, []int{0}, nil},
		{"next live reader adopts", 4, 2, []int{1}, nil, []int{2, 1}, []int{1}},
		{"chain of dead rows", 4, 3, []int{1, 2}, nil, []int{3, 1, 2}, []int{1, 2}},
		{"chain, one known", 4, 3, []int{1, 2}, []int{1}, []int{3, 1, 2}, []int{2}},
		{"wrap around", 4, 0, []int{3}, nil, []int{0, 3}, []int{3}},
		{"wrap around past dead", 4, 1, []int{3, 0}, nil, []int{1, 0, 3}, []int{0, 3}},
		{"uninvolved reader", 4, 0, []int{2}, nil, []int{0}, nil},
	}
	set := func(rows []int) func(int) bool {
		return func(j int) bool {
			for _, r := range rows {
				if r == j {
					return true
				}
			}
			return false
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows, adopted := Serving(tc.j, tc.nsdy, set(tc.dead), set(tc.known))
			if !reflect.DeepEqual(rows, tc.rows) || !reflect.DeepEqual(adopted, tc.adopted) {
				t.Errorf("Serving(%d) = rows %v adopted %v, want rows %v adopted %v",
					tc.j, rows, adopted, tc.rows, tc.adopted)
			}
		})
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	cases := []struct {
		name string
		pl   *Plan
	}{
		{"ost out of range", &Plan{OSTWindows: []OSTWindow{{OST: 9, Start: 0, End: 1}}}},
		{"empty window", &Plan{OSTWindows: []OSTWindow{{OST: 0, Start: 2, End: 2}}}},
		{"factor below one", &Plan{OSTWindows: []OSTWindow{{OST: 0, Start: 0, End: 1, Factor: 0.5}}}},
		{"slow straggler", &Plan{Stragglers: []Straggler{{Proc: "io/g0/r0", Factor: 0.2}}}},
		{"member out of range", &Plan{FileFaults: []FileFault{{Member: 12, Kind: FileMissing}}}},
		{"duplicate member", &Plan{FileFaults: []FileFault{{Member: 1, Kind: FileMissing}, {Member: 1, Kind: FileCorrupt}}}},
		{"transient without count", &Plan{FileFaults: []FileFault{{Member: 1, Kind: FileTransient}}}},
		{"death group range", &Plan{Deaths: []RankDeath{{Group: 5, Reader: 0, BeforeStage: 1}}}},
		{"death stage range", &Plan{Deaths: []RankDeath{{Group: 0, Reader: 0, BeforeStage: 3}}}},
		{"whole group dies", &Plan{Deaths: []RankDeath{
			{Group: 0, Reader: 0, BeforeStage: 1},
			{Group: 0, Reader: 1, BeforeStage: 2},
		}}},
		{"negative crash cycle", &Plan{Crash: &CycleCrash{Cycle: -1}}},
	}
	for _, c := range cases {
		if err := c.pl.Validate(2, 2, 3, 12, 8); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
	good := &Plan{
		OSTWindows: []OSTWindow{{OST: 1, Start: 0, End: 2, Factor: 3}},
		Stragglers: []Straggler{{Proc: "io/g0/r1", Factor: 2}},
		FileFaults: []FileFault{{Member: 3, Kind: FileTransient, Count: 2}},
		Deaths:     []RankDeath{{Group: 1, Reader: 1, BeforeStage: 1}},
		Crash:      &CycleCrash{Cycle: 4},
	}
	if err := good.Validate(2, 2, 3, 12, 8); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}
}

func TestCrashAfter(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.CrashAfter(0) {
		t.Error("nil plan crashes")
	}
	if (&Plan{}).CrashAfter(0) {
		t.Error("empty plan crashes")
	}
	pl := &Plan{Crash: &CycleCrash{Cycle: 2}}
	for i, want := range []bool{false, false, true, false} {
		if pl.CrashAfter(i) != want {
			t.Errorf("CrashAfter(%d) = %v", i, !want)
		}
	}
}

func TestEnsioHookDeterministicAttempts(t *testing.T) {
	pl := &Plan{FileFaults: []FileFault{{Member: 4, Kind: FileTransient, Count: 2}}}
	hook := pl.EnsioHook()
	if hook == nil {
		t.Fatal("nil hook")
	}
	for a := 0; a < 2; a++ {
		err := hook("read", 4, a)
		if err == nil {
			t.Fatalf("attempt %d did not fail", a)
		}
		var te *TransientError
		if !errors.As(err, &te) || !te.Transient() {
			t.Fatalf("attempt %d error %v is not transient", a, err)
		}
	}
	if err := hook("read", 4, 2); err != nil {
		t.Errorf("attempt 2 failed: %v", err)
	}
	if err := hook("read", 5, 0); err != nil {
		t.Errorf("unfaulted member failed: %v", err)
	}
}

func TestGenerateDeterministicAndScaling(t *testing.T) {
	g := Geometry{OSTs: 8, NCg: 2, NSdy: 4, L: 4, N: 24, Horizon: 10}
	a := Generate(7, 0.8, g)
	b := Generate(7, 0.8, g)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed/intensity produced different plans")
	}
	if empty := Generate(7, 0, g); len(empty.OSTWindows)+len(empty.FileFaults)+len(empty.Deaths)+len(empty.Stragglers) != 0 {
		t.Errorf("zero intensity produced faults: %+v", empty)
	}
	if err := a.Validate(g.NCg, g.NSdy, g.L, g.N, g.OSTs); err != nil {
		t.Errorf("generated plan invalid: %v", err)
	}
	hi := Generate(3, 1, g)
	if len(hi.OSTWindows) == 0 || len(hi.FileFaults) == 0 {
		t.Errorf("full intensity produced no I/O or file faults: %+v", hi)
	}
	if len(hi.Deaths) == 0 {
		t.Error("full intensity produced no rank death")
	}
	if err := hi.Validate(g.NCg, g.NSdy, g.L, g.N, g.OSTs); err != nil {
		t.Errorf("high-intensity plan invalid: %v", err)
	}
}

func TestApplyDamagesFiles(t *testing.T) {
	dir := t.TempDir()
	// Three fake member files: a 32-byte header surrogate plus payload.
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	for k := 0; k < 3; k++ {
		if err := os.WriteFile(memberPath(dir, k), append(make([]byte, 32), payload...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pl := &Plan{Seed: 11, FileFaults: []FileFault{
		{Member: 0, Kind: FileMissing},
		{Member: 1, Kind: FileTruncated, Offset: 40},
		{Member: 2, Kind: FileCorrupt, Offset: 10},
	}}
	if err := pl.Apply(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(memberPath(dir, 0)); !os.IsNotExist(err) {
		t.Error("member 0 still exists")
	}
	fi, err := os.Stat(memberPath(dir, 1))
	if err != nil || fi.Size() != 40 {
		t.Errorf("member 1 size = %v, %v", fi, err)
	}
	got, err := os.ReadFile(memberPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 32+256 {
		t.Fatalf("member 2 length changed: %d", len(got))
	}
	diff := 0
	for i, b := range got[32:] {
		if b != payload[i] {
			diff++
			if i != 10 {
				t.Errorf("corruption at offset %d, want 10", i)
			}
		}
	}
	if diff != 1 {
		t.Errorf("corrupted %d bytes, want exactly 1", diff)
	}
	if !reflect.DeepEqual(filepath.Base(memberPath(dir, 2)), "member_0002.senk") {
		t.Errorf("member path mismatch: %s", memberPath(dir, 2))
	}
}
