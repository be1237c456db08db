package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"senkf/internal/core"
	"senkf/internal/enkf"
	"senkf/internal/ensio"
	"senkf/internal/grid"
	"senkf/internal/metrics"
	"senkf/internal/obs"
	"senkf/internal/plan"
	gen "senkf/internal/workload"
)

// realShape is a real S-EnKF workload: member files on disk, the compiled
// plan executed by core.ExecutePlanLevels over ensio, mpi and enkf.
type realShape struct {
	NX, NY, Members, Levels int
	Xi, Eta, ObsStride      int
	NSdx, NSdy, L, NCg      int
	ObsVar, Spread          float64
	// SampleEvery > 0 attaches the operator observability stack to every
	// op, with the runtime sampler on this cadence.
	SampleEvery time.Duration
}

func (s realShape) open(o options) workload { return &realWorkload{shape: s, o: o} }

// realInputs are one set-up's generated inputs.
type realInputs struct {
	cfg    enkf.Config
	nets   []*obs.Network // per level
	truths [][]float64    // per level
	bg     [][][]float64  // in-memory background, [level][member]; dropped once the oracle is built
	dir    string         // member files
	c      *plan.Compiled
}

// generate builds the inputs from the seed: truth, ensemble and
// observation networks, the member files in dir, and the compiled plan.
func (s realShape) generate(seed uint64, dir string) (*realInputs, error) {
	mesh, err := grid.NewMesh(s.NX, s.NY)
	if err != nil {
		return nil, err
	}
	radius, err := grid.NewRadius(s.Xi, s.Eta)
	if err != nil {
		return nil, err
	}
	dec, err := grid.NewDecomposition(mesh, s.NSdx, s.NSdy, radius)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &realInputs{
		cfg: enkf.Config{Mesh: mesh, Radius: radius, N: s.Members, Seed: seed, Solver: enkf.SolverEnsembleSpace},
		dir: dir,
	}
	if s.Levels == 1 {
		truth := gen.Truth(mesh, gen.DefaultFieldSpec, seed)
		members, err := gen.Ensemble(mesh, truth, s.Members, s.Spread, seed)
		if err != nil {
			return nil, err
		}
		if _, err := ensio.WriteEnsemble(dir, mesh, members); err != nil {
			return nil, err
		}
		in.truths, in.bg = [][]float64{truth}, [][][]float64{members}
	} else {
		if in.truths, err = gen.TruthLevels(mesh, gen.DefaultFieldSpec, s.Levels, seed); err != nil {
			return nil, err
		}
		members, err := gen.EnsembleLevels(mesh, in.truths, s.Members, s.Spread, seed)
		if err != nil {
			return nil, err
		}
		if _, err := ensio.WriteEnsembleLevels(dir, mesh, members); err != nil {
			return nil, err
		}
		in.bg = make([][][]float64, s.Levels)
		for l := range in.bg {
			in.bg[l] = make([][]float64, s.Members)
			for k := range members {
				in.bg[l][k] = members[k][l]
			}
		}
	}
	in.nets = make([]*obs.Network, s.Levels)
	for l := range in.nets {
		if in.nets[l], err = obs.StridedNetwork(mesh, in.truths[l], s.ObsStride, s.ObsStride, s.ObsVar, seed+uint64(l)); err != nil {
			return nil, err
		}
	}
	in.c, err = plan.Compile(plan.SEnKF(dec, s.Members, s.L, s.NCg).WithLevels(s.Levels))
	if err != nil {
		return nil, err
	}
	return in, nil
}

// problem returns the engine problem without hooks.
func (in *realInputs) problem() plan.Problem {
	p := plan.Problem{Cfg: in.cfg, Dir: in.dir}
	if len(in.nets) > 1 {
		p.Nets = in.nets
	} else {
		p.Net = in.nets[0]
	}
	return p
}

type realWorkload struct {
	shape  realShape
	o      options
	setups int
	stale  []string // member directories of superseded set-ups
	in     *realInputs
	ref    *oracle
	// tamper, when set, alters each op's analysis before it is checked;
	// the benchmark's test uses it to prove a wrong analysis is counted.
	tamper func(out [][][]float64)
}

func (w *realWorkload) setup() error {
	dir := filepath.Join(w.o.dir, fmt.Sprintf("members%d", w.setups))
	w.setups++
	in, err := w.shape.generate(w.o.seed, dir)
	if err != nil {
		return err
	}
	if w.in != nil {
		w.stale = append(w.stale, w.in.dir)
	}
	w.in = in
	return nil
}

func (w *realWorkload) prepare() error {
	for _, d := range w.stale {
		if err := os.RemoveAll(d); err != nil {
			return err
		}
	}
	w.stale = nil
	ref, err := newOracle(w.in)
	if err != nil {
		return err
	}
	w.ref = ref
	w.in.bg = nil // only the oracle reads the in-memory ensemble
	return nil
}

func (w *realWorkload) op() func() error {
	p := w.in.problem()
	var st *observedStack
	if w.shape.SampleEvery > 0 {
		st = newObservedStack(w.shape.SampleEvery, false)
		st.attach(&p)
	}
	out, err := core.ExecutePlanLevels(p, w.in.c)
	return func() error {
		if st != nil {
			if err := divergenceErr(st.finish().Conformance.DivergenceCount); err != nil {
				return err
			}
		}
		if err != nil {
			return err
		}
		return w.check(out)
	}
}

func (w *realWorkload) check(out [][][]float64) error {
	if w.tamper != nil {
		w.tamper(out)
	}
	return w.ref.check(out, w.in.truths)
}

func divergenceErr(n int) error {
	if n != 0 {
		return fmt.Errorf("monitor reported %d plan divergences", n)
	}
	return nil
}

// oracle is the per-sub-domain serial reference: AnalyzeBox over every
// stage box of the plan on the in-memory ensemble, one goroutine, with the
// same candidate restriction (observations inside the stage's expansion)
// the engine applies. It keeps a digest of each reference member field,
// not the fields, so the benchmark holds little heap while ops run.
type oracle struct {
	digests [][]uint64 // [level][member] digest of the reference analysis
	bgRMSE  float64    // background ensemble-mean RMSE
	serialS float64    // seconds for the AnalyzeBox sweep
	points  int        // grid points analysed, all levels
}

func newOracle(in *realInputs) (*oracle, error) {
	m := in.cfg.Mesh
	full := grid.Box{X0: 0, X1: m.NX, Y0: 0, Y1: m.NY}
	subs := make([][]*enkf.Block, len(in.bg))
	o := &oracle{}
	t0 := time.Now()
	for l, bg := range in.bg {
		blk := &enkf.Block{Box: full, Data: bg}
		for _, r := range in.c.Compute {
			sub := enkf.NewBlock(r.Sub, in.cfg.N)
			for _, st := range r.Stages {
				out, err := in.cfg.AnalyzeBox(blk, in.nets[l].InBox(st.Box), st.Analyze)
				if err != nil {
					return nil, err
				}
				for k := range out.Data {
					for y := st.Analyze.Y0; y < st.Analyze.Y1; y++ {
						for x := st.Analyze.X0; x < st.Analyze.X1; x++ {
							sub.Set(k, x, y, out.At(k, x, y))
						}
					}
				}
				o.points += st.Analyze.Points()
			}
			subs[l] = append(subs[l], sub)
		}
	}
	o.serialS = time.Since(t0).Seconds()
	o.digests = make([][]uint64, len(in.bg))
	for l := range subs {
		f, err := enkf.Assemble(m, in.cfg.N, subs[l])
		if err != nil {
			return nil, err
		}
		for _, field := range f {
			o.digests[l] = append(o.digests[l], digest(field))
		}
	}
	o.bgRMSE = pooledRMSE(in.bg, in.truths)
	return o, nil
}

// digest hashes a field's bits. Each step is a bijection of the running
// state, so a field differing from the reference in any one value always
// changes the digest.
func digest(field []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range field {
		h = (h ^ math.Float64bits(v)) * 1099511628211
	}
	return h
}

// check compares an analysis with the reference bit for bit and requires
// its ensemble-mean RMSE to fall below the background's.
func (o *oracle) check(out [][][]float64, truths [][]float64) error {
	if len(out) != len(o.digests) {
		return fmt.Errorf("analysis has %d levels, want %d", len(out), len(o.digests))
	}
	for l := range out {
		if len(out[l]) != len(o.digests[l]) {
			return fmt.Errorf("level %d: analysis has %d members, want %d", l, len(out[l]), len(o.digests[l]))
		}
		for k, field := range out[l] {
			if digest(field) != o.digests[l][k] {
				return fmt.Errorf("level %d member %d: analysis differs from the serial reference", l, k)
			}
		}
	}
	if a := pooledRMSE(out, truths); !(a < o.bgRMSE) {
		return fmt.Errorf("analysis RMSE %g does not fall below background RMSE %g", a, o.bgRMSE)
	}
	return nil
}

// pooledRMSE is the ensemble-mean RMSE against the truth over every level.
func pooledRMSE(fields [][][]float64, truths [][]float64) float64 {
	var sum float64
	var n int
	for l, f := range fields {
		mean := enkf.EnsembleMean(f)
		for i, v := range mean {
			d := v - truths[l][i]
			sum += d * d
		}
		n += len(mean)
	}
	return math.Sqrt(sum / float64(n))
}

// layers is the traced pass of a real workload.
func (w *realWorkload) layers(r *result, sp *spanLog) (float64, error) {
	in := w.in
	var fails []error

	// One engine op with the recorder and the counting message observer,
	// plus the timed monitor and wire wrappers when the stack rides along.
	p := in.problem()
	rec := metrics.NewRecorder()
	p.Rec = rec
	cnt := &msgCounter{}
	var st *observedStack
	if w.shape.SampleEvery > 0 {
		st = newObservedStack(w.shape.SampleEvery, true)
		st.attach(&p)
		cnt.inner = st.wire
	}
	p.Msgs = cnt
	runtime.GC() // start from a collected heap, as the timed ops do
	var out [][][]float64
	var err error
	const opSpan = "core.ExecutePlanLevels"
	wall := sp.time(opSpan, "", func() { out, err = core.ExecutePlanLevels(p, in.c) })
	opStart := sp.spans[len(sp.spans)-1].start
	if err == nil {
		err = w.check(out)
	}
	fails = append(fails, err)
	want := plan.ExpectedEdges(in.c).Totals()
	if cnt.msgs.Load() != want.Msgs || cnt.bytes.Load() != want.Bytes {
		fails = append(fails, fmt.Errorf("observed %d msgs / %d bytes, plan expects %d / %d",
			cnt.msgs.Load(), cnt.bytes.Load(), want.Msgs, want.Bytes))
	}
	r.set("mpi.msgs", float64(cnt.msgs.Load()))
	r.set("mpi.bytes", float64(cnt.bytes.Load()))
	if st != nil {
		status := st.finish()
		fails = append(fails, divergenceErr(status.Conformance.DivergenceCount))
		r.set("monitor.emit_s", float64(st.emitNs.Load())/1e9)
		r.set("monitor.events", float64(status.Events))
		r.set("monitor.divergences", float64(status.Conformance.DivergenceCount))
		r.set("monitor.verdicts", float64(len(status.Verdicts)))
		r.set("wire.on_message_s", float64(cnt.innerNs.Load())/1e9)
	}

	ioB := rec.MeanBreakdown(metrics.IOPrefix)
	cpB := rec.MeanBreakdown(metrics.ComputePrefix)
	r.set("core.io_read_s", ioB.Read)
	r.set("core.io_scatter_s", ioB.Comm)
	r.set("core.compute_s", cpB.Compute)
	r.set("core.wait_s", cpB.Wait)
	ioSpans := rec.Spans(metrics.IOPrefix, metrics.PhaseRead, metrics.PhaseComm)
	cpSpans := rec.Spans(metrics.ComputePrefix, metrics.PhaseCompute)
	if busy := metrics.SpanTotal(ioSpans); busy > 0 {
		r.set("core.overlap_frac", math.Min(1, metrics.OverlapDuration(ioSpans, cpSpans)/busy))
	}
	all := rec.Spans("", metrics.PhaseRead, metrics.PhaseComm, metrics.PhaseCompute, metrics.PhaseWait)
	if len(all) > 0 {
		r.set("core.tail_s", wall-all[len(all)-1].End)
	}
	// The engine's phases, merged over ranks, become the op span's
	// children (recorder times start at the engine's clock origin, which
	// is within microseconds of the op's start).
	for _, ph := range []struct {
		name, prefix string
		phase        metrics.Phase
	}{
		{"io.read", metrics.IOPrefix, metrics.PhaseRead},
		{"io.scatter", metrics.IOPrefix, metrics.PhaseComm},
		{"comp.wait", metrics.ComputePrefix, metrics.PhaseWait},
		{"comp.compute", metrics.ComputePrefix, metrics.PhaseCompute},
	} {
		for _, u := range rec.Spans(ph.prefix, ph.phase) {
			sp.add(ph.name, opSpan, opStart+u.Start, opStart+u.End)
		}
	}

	// Benchmark-side replays of the plan's calls into ensio, mpi and enkf.
	var rd readReplay
	sp.time("ensio.MemberFile.ReadBar", "", func() { rd, err = replayReads(in) })
	if err != nil {
		return 0, err
	}
	fails = append(fails, rd.conformance())
	r.set("ensio.read_s", rd.seconds)
	r.set("ensio.reads", float64(rd.got.Reads))
	r.set("ensio.bytes", float64(rd.got.BytesRead))
	if rd.seconds > 0 {
		r.set("ensio.read_mb_per_s", float64(rd.got.BytesRead)/rd.seconds/1e6)
	}
	var xfer msgReplay
	sp.time("mpi.World.Run", "", func() { xfer, err = replayMessages(in.c) })
	if err != nil {
		return 0, err
	}
	fails = append(fails, xfer.conformance())
	r.set("mpi.xfer_s", xfer.seconds)
	if xfer.want.Msgs > 0 {
		r.set("mpi.us_per_msg", xfer.seconds/float64(xfer.want.Msgs)*1e6)
	}
	if out != nil {
		var asm float64
		sp.time("enkf.Assemble", "", func() { asm, err = replayAssemble(in, out) })
		if err != nil {
			return 0, err
		}
		r.set("enkf.assemble_s", asm)
	}

	// The kernel layer: the oracle's single-threaded sweep and micro-rates.
	r.set("enkf.serial_s", w.ref.serialS)
	r.set("enkf.points_per_s", float64(w.ref.points)/w.ref.serialS)
	r.set("obs.perturb_reuse", perturbReuse(in))
	sp.time("obs.CenteredPerturbations", "", func() { r.set("obs.perturb_ns", perturbNs(in)) })
	kernelRates(r, sp)

	r.outcome(errors.Join(fails...))
	return wall, nil
}
