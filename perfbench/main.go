// Command perfbench is the repository benchmark: it runs one named workload
// in a closed loop (one client, operations back to back) for a fixed time,
// checks every output, and prints the end-to-end metrics — or, with
// --trace 1, a separately traced pass that attributes the workload's time
// to the layers it crosses. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload real-dense --seed 1 --seconds 30 --trace 0
//
// See perfbench/README.md for the workloads and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricSpec names one reported metric. The same table is declared in
// BENCHMARK.json; the benchmark's test keeps the two in step.
type metricSpec struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them with --trace 0.
var endToEnd = []metricSpec{
	{"op_s", "s", "lower"},
	{"cpu_s_per_op", "s", "lower"},
	{"alloc_bytes_per_op", "bytes", "lower"},
	{"peak_heap_bytes", "bytes", "lower"},
	{"setup_s", "s", "lower"},
	{"ok_frac", "frac", "higher"},
}

// perLayer are the layer metrics of the traced pass (--trace 1), named by
// module. A layer a workload does not cross reports 0.
var perLayer = []metricSpec{
	{"enkf.serial_s", "s", "lower"},
	{"enkf.points_per_s", "1/s", "higher"},
	{"enkf.assemble_s", "s", "lower"},
	{"obs.perturb_reuse", "ratio", "lower"},
	{"obs.perturb_ns", "ns", "lower"},
	{"linalg.matmul64_gflops", "GFLOP/s", "higher"},
	{"linalg.cholesky64_us", "us", "lower"},
	{"linalg.modchol_us", "us", "lower"},
	{"gc.allocs_per_op", "count", "lower"},
	{"gc.cycles_per_op", "count", "lower"},
	{"gc.cpu_frac", "frac", "lower"},
	{"ensio.read_s", "s", "lower"},
	{"ensio.reads", "count", "lower"},
	{"ensio.bytes", "bytes", "lower"},
	{"ensio.read_mb_per_s", "MB/s", "higher"},
	{"mpi.msgs", "count", "lower"},
	{"mpi.bytes", "bytes", "lower"},
	{"mpi.xfer_s", "s", "lower"},
	{"mpi.us_per_msg", "us", "lower"},
	{"core.io_read_s", "s", "lower"},
	{"core.io_scatter_s", "s", "lower"},
	{"core.tail_s", "s", "lower"},
	{"core.compute_s", "s", "lower"},
	{"core.wait_s", "s", "lower"},
	{"core.overlap_frac", "frac", "higher"},
	{"monitor.emit_s", "s", "lower"},
	{"monitor.events", "count", "lower"},
	{"monitor.divergences", "count", "lower"},
	{"monitor.verdicts", "count", "lower"},
	{"wire.on_message_s", "s", "lower"},
	{"costmodel.tune_s", "s", "lower"},
	{"schedule.senkf_s", "s", "lower"},
	{"schedule.penkf_s", "s", "lower"},
	{"parfs.requests", "count", "lower"},
	{"parfs.requests_per_s", "1/s", "higher"},
	{"sim.events_per_s", "1/s", "higher"},
	{"schedule.speedup", "ratio", "higher"},
	{"costmodel.t_read_rel_err", "frac", "lower"},
	{"costmodel.t_total_rel_err", "frac", "lower"},
	{"bench.trace_overhead_frac", "frac", "lower"},
}

// fmtOut receives progress lines.
var fmtOut io.Writer = os.Stderr

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), " | "))
		seed    = flag.Uint64("seed", 0, "input seed (0 = the workload's recorded default)")
		seconds = flag.Float64("seconds", 30, "measurement time in seconds")
		traced  = flag.Int("trace", 0, "1 = traced pass with per-layer metrics, 0 = end-to-end metrics")
		workdir = flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for member files")
	)
	flag.Parse()
	def, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *traced != 0 && *traced != 1 {
		fatalf("--trace must be 0 or 1, got %d", *traced)
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive, got %g", *seconds)
	}
	if *seed == 0 {
		*seed = def.seed
	}
	dir, err := os.MkdirTemp(mustMkdir(*workdir), def.name+"-")
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload %s seed %d seconds %g trace %d GOMAXPROCS %d\n",
		def.name, *seed, *seconds, *traced, runtime.GOMAXPROCS(0))
	res, err := run(def.shape, options{seed: *seed, seconds: *seconds, trace: *traced == 1, dir: dir})
	os.RemoveAll(dir)
	if err != nil {
		fatalf("%s: %v", def.name, err)
	}
	writeTable(os.Stderr, res)
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	return dir
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// newResult returns an empty result whose metric set is fixed by the pass:
// every metric of the set is present, zero until measured.
func newResult(trace bool) *result {
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	r := &result{Correct: true, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		r.Metrics[s.Name] = metricValue{Unit: s.Unit}
	}
	return r
}

// set records a measured value; names outside the pass's set are dropped,
// so a workload can compute a metric for both passes unconditionally.
func (r *result) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("perfbench: metric %s is %g", name, v))
	}
	m.Value = v
	r.Metrics[name] = m
}

// outcome counts one attempted operation; a non-nil err is a failure.
func (r *result) outcome(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: %v\n", err)
	}
}

func writeTable(f *os.File, r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(f, "  %-28s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(f, "  correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}
