package main

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"

	"senkf/internal/costmodel"
	"senkf/internal/metrics"
	"senkf/internal/report"
	"senkf/internal/schedule"
	"senkf/internal/trace"
)

// simShape is a simulated-machine workload: one op auto-tunes S-EnKF for
// np processors and simulates it, then simulates P-EnKF on np processors.
// The simulators are called directly (not through a figure suite, which
// caches per np), so every op does the full work. The machine is fixed,
// so the seed varies nothing here.
type simShape struct {
	machine                func() schedule.Config
	np                     int
	eps                    float64
	tc                     costmodel.TuneConstraints
	speedupMin, speedupMax float64 // accepted P-EnKF/S-EnKF runtime ratio
}

func (s simShape) open(o options) workload { return &simWorkload{shape: s} }

// simOutcome is everything an op computes; repeated ops must agree.
type simOutcome struct {
	Tuned costmodel.Tuned
	S, P  schedule.Result
}

type simWorkload struct {
	shape                 simShape
	cfg                   schedule.Config
	nsdx, nsdy            int // P-EnKF decomposition of np
	first                 *simOutcome
	tuneS, senkfS, penkfS []float64
}

// setup builds the machine configuration and the P-EnKF decomposition.
func (w *simWorkload) setup() error {
	cfg := w.shape.machine()
	if err := cfg.Validate(); err != nil {
		return err
	}
	nsdx, nsdy, err := schedule.ChooseDecomposition(cfg.P, w.shape.np)
	if err != nil {
		return err
	}
	w.cfg, w.nsdx, w.nsdy = cfg, nsdx, nsdy
	return nil
}

func (w *simWorkload) prepare() error { return nil }

// simOp names the traced op's span, the parent of its layer calls.
const simOp = "op"

// simulate runs one op on the given configurations (which differ only in
// their tracers) and returns the tuner, S-EnKF and P-EnKF times. sp, when
// not nil, records each call as a span.
func (w *simWorkload) simulate(cfgS, cfgP schedule.Config, sp *spanLog) (simOutcome, [3]float64, error) {
	var o simOutcome
	var ts [3]float64
	var ok bool
	var err error
	ts[0] = sp.time("costmodel.AutoTuneConstrained", simOp, func() {
		o.Tuned, ok = cfgS.P.AutoTuneConstrained(w.shape.np, w.shape.eps, w.shape.tc)
	})
	if !ok {
		return o, ts, fmt.Errorf("auto-tuner found no configuration for np=%d", w.shape.np)
	}
	ts[1] = sp.time("schedule.SimulateSEnKF", simOp, func() { o.S, err = schedule.SimulateSEnKF(cfgS, o.Tuned.Choice) })
	if err != nil {
		return o, ts, err
	}
	ts[2] = sp.time("schedule.SimulatePEnKF", simOp, func() { o.P, err = schedule.SimulatePEnKF(cfgP, w.nsdx, w.nsdy) })
	return o, ts, err
}

func (w *simWorkload) op() func() error {
	o, ts, err := w.simulate(w.cfg, w.cfg, nil)
	return func() error {
		if err != nil {
			return err
		}
		if w.first != nil { // the first op is the untimed warm-up
			w.tuneS = append(w.tuneS, ts[0])
			w.senkfS = append(w.senkfS, ts[1])
			w.penkfS = append(w.penkfS, ts[2])
		}
		return w.check(o)
	}
}

// breakdownTol is the relative tolerance for the mean phase breakdowns
// of a SimResult. The recorder sums them over a map, so their last bits
// depend on iteration order; every other field must match exactly.
const breakdownTol = 1e-12

var breakdownType = reflect.TypeOf(metrics.Breakdown{})

// diffFields names the fields of two structs that differ, descending
// into struct-valued fields.
func diffFields(a, b any) []string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	var out []string
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		name := va.Type().Field(i).Name
		switch {
		case fa.Type() == breakdownType:
			for j := 0; j < fa.NumField(); j++ {
				x, y := fa.Field(j).Float(), fb.Field(j).Float()
				if math.Abs(x-y) > breakdownTol*math.Max(math.Abs(x), math.Abs(y)) {
					out = append(out, fmt.Sprintf("%s.%s (%v vs %v)", name, fa.Type().Field(j).Name, y, x))
				}
			}
		case fa.Kind() == reflect.Struct:
			for _, d := range diffFields(fa.Interface(), fb.Interface()) {
				out = append(out, name+"."+d)
			}
		case !reflect.DeepEqual(fa.Interface(), fb.Interface()):
			out = append(out, fmt.Sprintf("%s (%v vs %v)", name, fb.Interface(), fa.Interface()))
		}
	}
	return out
}

// check requires every op to reproduce the first op's outcome exactly and
// the speedup to lie in the workload's range (the paper's ≈3×).
func (w *simWorkload) check(o simOutcome) error {
	if w.first == nil {
		w.first = &o
	} else if d := diffFields(*w.first, o); d != nil {
		return fmt.Errorf("op outcome differs from the first op's in %v", d)
	}
	if sp := o.P.Runtime / o.S.Runtime; !(sp >= w.shape.speedupMin && sp <= w.shape.speedupMax) {
		return fmt.Errorf("speedup %g outside [%g, %g]", sp, w.shape.speedupMin, w.shape.speedupMax)
	}
	return nil
}

func (w *simWorkload) layers(r *result, sp *spanLog) (float64, error) {
	senkfS, penkfS := median(w.senkfS), median(w.penkfS)
	r.set("costmodel.tune_s", median(w.tuneS))
	r.set("schedule.senkf_s", senkfS)
	r.set("schedule.penkf_s", penkfS)
	if w.first == nil {
		return 0, fmt.Errorf("no op completed")
	}
	req := float64(w.first.S.FSStats.Requests + w.first.P.FSStats.Requests)
	r.set("parfs.requests", req)
	r.set("parfs.requests_per_s", req/(senkfS+penkfS))
	r.set("schedule.speedup", w.first.P.Runtime/w.first.S.Runtime)

	// The traced op: both simulations write their events to in-memory
	// buffers; the S-EnKF trace gives the Eq. 7–10 drift at the tuned
	// choice. Tracing must not change any result.
	bufS, bufP := trace.NewBuffer(), trace.NewBuffer()
	cfgS, cfgP := w.cfg, w.cfg
	cfgS.Tracer, cfgP.Tracer = trace.New(nil, bufS), trace.New(nil, bufP)
	runtime.GC() // start from a collected heap, as the timed ops do
	var o simOutcome
	var err error
	wall := sp.time(simOp, "", func() { o, _, err = w.simulate(cfgS, cfgP, sp) })
	fails := []error{err}
	if err == nil {
		fails = append(fails, w.check(o))
		var rep *report.Report
		sp.time("report.Build", "", func() { rep, err = report.Build(bufS.Events(), nil) })
		switch {
		case err != nil:
			fails = append(fails, err)
		case rep.Model == nil:
			fails = append(fails, fmt.Errorf("S-EnKF trace carries no model prediction"))
		default:
			for _, t := range rep.Model.Drift.Terms {
				r.set("costmodel."+t.Term+"_rel_err", math.Abs(t.RelErr))
			}
		}
	}
	var ev float64
	sp.time("sim.Env.Run", "", func() { ev, err = simEventsPerS() })
	if err != nil {
		return 0, err
	}
	r.set("sim.events_per_s", ev)
	r.outcome(errors.Join(fails...))
	return wall, nil
}
