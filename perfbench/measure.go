package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// options are one run's settings.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	dir     string // scratch directory owned by the run
}

// shape generates one workload's inputs and operation.
type shape interface {
	open(o options) workload
}

// workload is one opened workload.
type workload interface {
	// setup builds the inputs from the seed, replacing earlier inputs. It
	// is everything the program does before the first op, and is timed.
	setup() error
	// prepare runs once after the last set-up, untimed: the output oracle.
	prepare() error
	// op runs one operation. The call is timed; the returned verify, which
	// reports the op's error or a failed output check, is not.
	op() (verify func() error)
	// layers is the traced pass: it records the per-layer metrics the
	// workload owns and a span per call into a layer, counts its traced op
	// in r, and returns that op's wall time. The error is for the
	// benchmark itself failing, not an op.
	layers(r *result, sp *spanLog) (tracedWall float64, err error)
}

// minOps is the fewest timed ops a run makes, however long they take.
const minOps = 3

// An end-to-end run sets up at least minSetups times and for at least
// minSetupTime; setup_s is the median. Set-up ranges from microseconds
// (sim-paper) to seconds (real-levels-observed), so a time floor gives the
// cheap ones enough repetitions for a steady median.
const (
	minSetups    = 3
	minSetupTime = 2 * time.Second
)

// run drives one workload: set-up, oracle, one checked warm-up op, then
// timed ops back to back until the time is spent, and with o.trace the
// traced pass.
func run(sh shape, o options) (*result, error) {
	w := sh.open(o)
	res := newResult(o.trace)

	var setups []float64
	start := time.Now()
	for {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if o.trace || len(setups) >= minSetups && time.Since(start) >= minSetupTime {
			break
		}
	}
	res.set("setup_s", median(setups))
	fmt.Fprintf(fmtOut, "perfbench: %d set-ups, setup_s median %.4g s\n", len(setups), median(setups))
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}

	res.outcome(measure(w.op).err)
	budget := o.seconds
	if o.trace {
		// The traced pass shares the run's time with the untimed ops that
		// give it a tracing-off baseline.
		budget /= 2
	}
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	var samples []opSample
	for len(samples) < minOps || time.Now().Before(deadline) {
		s := measure(w.op)
		res.outcome(s.err)
		samples = append(samples, s)
	}
	pick := func(f func(s opSample) float64) float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return median(xs)
	}
	opS := pick(func(s opSample) float64 { return s.wall })
	res.set("op_s", opS)
	res.set("cpu_s_per_op", pick(func(s opSample) float64 { return s.cpu }))
	res.set("alloc_bytes_per_op", pick(func(s opSample) float64 { return s.allocBytes }))
	res.set("peak_heap_bytes", pick(func(s opSample) float64 { return s.peakHeap }))
	res.set("gc.allocs_per_op", pick(func(s opSample) float64 { return s.mallocs }))
	res.set("gc.cycles_per_op", pick(func(s opSample) float64 { return s.gcCycles }))
	res.set("gc.cpu_frac", pick(func(s opSample) float64 { return s.gcFrac }))
	walls := make([]string, len(samples))
	for i, s := range samples {
		walls[i] = fmt.Sprintf("%.3f", s.wall)
	}
	fmt.Fprintf(fmtOut, "perfbench: %d timed ops, op_s median %.4g s; walls %s\n",
		len(samples), opS, strings.Join(walls, " "))

	if o.trace {
		sp := newSpanLog()
		tracedWall, err := w.layers(res, sp)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		sp.write(fmtOut)
		res.set("bench.trace_overhead_frac", tracedWall/opS-1)
	}
	res.set("ok_frac", 1-float64(res.Failed)/float64(res.Attempted))
	return res, nil
}

// opSample is one measured op.
type opSample struct {
	wall, cpu  float64 // seconds
	allocBytes float64 // heap bytes allocated
	mallocs    float64 // heap objects allocated
	gcCycles   float64 // GC cycles completed
	gcFrac     float64 // GC share of the Go CPU time
	peakHeap   float64 // highest heap-object bytes above the pre-op heap
	err        error
}

// measure runs op once from a collected heap and measures it: wall and
// process CPU time, allocation, GC work and the heap peak, sampled every
// heapSampleEvery while the op runs.
func measure(op func() func() error) opSample {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g0, u0 := gcCPU()
	hp := startHeapPeak()
	c0 := processCPU()
	t0 := time.Now()
	verify := op()
	wall := time.Since(t0).Seconds()
	cpu := processCPU() - c0
	peak := hp.stop()
	g1, u1 := gcCPU()
	runtime.ReadMemStats(&m1)
	s := opSample{
		wall:       wall,
		cpu:        cpu,
		allocBytes: float64(m1.TotalAlloc - m0.TotalAlloc),
		mallocs:    float64(m1.Mallocs - m0.Mallocs),
		gcCycles:   float64(m1.NumGC - m0.NumGC),
		peakHeap:   peak,
	}
	if d := (g1 - g0) + (u1 - u0); d > 0 {
		s.gcFrac = (g1 - g0) / d
	}
	s.err = verify()
	return s
}

// processCPU returns the process's user+system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// gcCPU returns the runtime's estimates of CPU seconds spent in GC and in
// user Go code, which share one accounting.
func gcCPU() (gc, user float64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

const heapSampleEvery = 2 * time.Millisecond

// heapPeak samples the heap-object bytes on a ticker until stopped.
type heapPeak struct {
	stopc chan struct{}
	done  chan float64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stopc: make(chan struct{}), done: make(chan float64, 1)}
	s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() float64 {
		rtmetrics.Read(s)
		return float64(s[0].Value.Uint64())
	}
	base := read()
	go func() {
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		peak := base
		for {
			select {
			case <-h.stopc:
				if v := read(); v > peak {
					peak = v
				}
				h.done <- peak - base
				return
			case <-t.C:
				if v := read(); v > peak {
					peak = v
				}
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak above the starting heap.
func (h *heapPeak) stop() float64 {
	close(h.stopc)
	return <-h.done
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timeFor repeats fn until at least d has passed and returns the mean
// seconds per call.
func timeFor(d time.Duration, fn func()) float64 {
	n := 0
	t0 := time.Now()
	for time.Since(t0) < d || n == 0 {
		fn()
		n++
	}
	return time.Since(t0).Seconds() / float64(n)
}
