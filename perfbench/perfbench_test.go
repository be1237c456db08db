package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"senkf/internal/enkf"
	gen "senkf/internal/workload"
)

// testSeed differs from every workload's default seed, so the smoke test
// runs on inputs the workloads were not sized on.
const testSeed = 7

// testScale is workload.TestScale as a real workload shape.
func testScale(levels int) realShape {
	ps := gen.TestScale
	return realShape{
		NX: ps.NX, NY: ps.NY, Members: ps.Members, Levels: levels,
		Xi: ps.Xi, Eta: ps.Eta, ObsStride: ps.ObsStride,
		NSdx: 4, NSdy: 2, L: 3, NCg: 2, ObsVar: ps.ObsVar, Spread: ps.Spread,
	}
}

func TestOracleEqualsSerialReference(t *testing.T) {
	for _, levels := range []int{1, 3} {
		in, err := testScale(levels).generate(gen.TestScale.Seed, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newOracle(in)
		if err != nil {
			t.Fatal(err)
		}
		for l := range in.bg {
			want, err := enkf.SerialReference(in.cfg, in.bg[l], in.nets[l])
			if err != nil {
				t.Fatal(err)
			}
			for k, f := range want {
				if digest(f) != ref.digests[l][k] {
					t.Errorf("levels=%d: oracle level %d member %d differs from SerialReference", levels, l, k)
				}
			}
		}
	}
}

func TestCorruptedAnalysisIsCounted(t *testing.T) {
	for _, levels := range []int{1, 2} {
		w := &realWorkload{shape: testScale(levels), o: options{seed: testSeed, dir: t.TempDir()}}
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		if err := w.prepare(); err != nil {
			t.Fatal(err)
		}
		if err := w.op()(); err != nil {
			t.Fatalf("levels=%d: untampered op failed: %v", levels, err)
		}
		w.tamper = func(out [][][]float64) {
			f := out[len(out)-1][0]
			f[len(f)/2] = math.Nextafter(f[len(f)/2], math.Inf(1))
		}
		res := newResult(false)
		for i := 0; i < 2; i++ {
			res.outcome(w.op()())
		}
		if res.Correct || res.Failed != 2 || res.Attempted != 2 {
			t.Errorf("levels=%d: one-ulp corruption gave correct=%v failed=%d/%d", levels, res.Correct, res.Failed, res.Attempted)
		}
	}
}

func TestSimCheckNeedsIdenticalOutcomes(t *testing.T) {
	w := &simWorkload{shape: workloads["sim-paper"].tiny.(simShape)}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	o, _, err := w.simulate(w.cfg, w.cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.check(o); err != nil {
		t.Fatal(err)
	}
	noisy := o
	noisy.S.IO.Read *= 1 + 1e-15
	if err := w.check(noisy); err != nil {
		t.Errorf("summation-order noise in a breakdown rejected: %v", err)
	}
	moved := o
	moved.P.Runtime *= 1 + 1e-15
	if w.check(moved) == nil {
		t.Error("a changed P-EnKF runtime was accepted")
	}
	tuned := o
	tuned.Tuned.Choice.L++
	if w.check(tuned) == nil {
		t.Error("a changed tuner choice was accepted")
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %v, program reports %v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer %v, program reports %v", bf.PerLayer, perLayer)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if def, ok := workloads[w.Name]; !ok || def.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json why %q, program %q", w.Name, w.Why, def.why)
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
}

// TestSmokeEveryWorkload runs each workload's tiny variant on a seed the
// workloads were not sized on, in both passes: every metric is emitted
// with its unit and every check passes.
func TestSmokeEveryWorkload(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, name := range workloadNames() {
		def := workloads[name]
		for _, traced := range []bool{false, true} {
			res, err := run(def.tiny, options{seed: testSeed, seconds: 0.1, trace: traced, dir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minOps+1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			specs := bf.EndToEnd
			if traced {
				specs = bf.PerLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.Name]
				if !ok || m.Unit != s.Unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q, want %q", name, traced, s.Name, m.Unit, s.Unit)
				}
			}
			if !traced {
				for _, s := range bf.EndToEnd {
					if res.Metrics[s.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", name, s.Name, res.Metrics[s.Name].Value)
					}
				}
			}
		}
	}
}
