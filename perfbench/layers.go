package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"senkf/internal/enkf"
	"senkf/internal/ensio"
	"senkf/internal/grid"
	"senkf/internal/linalg"
	"senkf/internal/monitor"
	"senkf/internal/mpi"
	"senkf/internal/obs"
	"senkf/internal/plan"
	"senkf/internal/runtimeobs"
	"senkf/internal/sim"
	"senkf/internal/trace"
	"senkf/internal/wire"
)

// observedStack is the operator observability stack that senkf-run
// -monitor -wire -runtime-sample attaches: a monitor on the secondary side
// of a trace tee, a wire collector feeding the same tee, and a runtime
// sampler on a fixed cadence. There is no archive and no metrics server.
type observedStack struct {
	mon     *monitor.Monitor
	wire    *wire.Collector
	sampler *runtimeobs.Sampler
	tee     *trace.Tee
	tr      *trace.Tracer
	obs     plan.RunObserver
	emitNs  atomic.Int64 // time inside the monitor's Emit (timed stacks only)
}

// newObservedStack builds and starts the stack. A timed stack puts a
// timing wrapper between the tee and the monitor; since the monitor then
// no longer owns the tee, the run observer flushes it before EndRun, which
// is what the monitor's own tee does.
func newObservedStack(every time.Duration, timed bool) *observedStack {
	reg := trace.NewRegistry()
	st := &observedStack{mon: monitor.New(monitor.Options{RunRegistry: reg}), wire: wire.NewCollector()}
	if timed {
		st.tee = trace.NewTee(nil, timedSink{st.mon, &st.emitNs})
		st.obs = flushingObserver{st.mon, st.tee}
	} else {
		st.tee = st.mon.Tee(nil).(*trace.Tee)
		st.obs = st.mon
	}
	st.wire.SetSide(st.tee)
	st.tr = trace.New(nil, st.tee)
	st.tr.SetCounters(reg)
	st.sampler = runtimeobs.NewSampler(runtimeobs.SamplerConfig{Tracer: st.tr, Registry: reg, Interval: every})
	st.sampler.Start()
	return st
}

func (st *observedStack) attach(p *plan.Problem) {
	p.Tr, p.Obs, p.Msgs = st.tr, st.obs, st.wire
}

// finish stops the sampler, drains and closes the tee, and returns the
// monitor's view of the run.
func (st *observedStack) finish() monitor.Status {
	st.sampler.Stop()
	st.tee.Close()
	return st.mon.Status()
}

// timedSink accumulates the time the monitor spends folding events.
type timedSink struct {
	sink trace.Sink
	ns   *atomic.Int64
}

func (t timedSink) Emit(ev trace.Event) {
	t0 := time.Now()
	t.sink.Emit(ev)
	t.ns.Add(int64(time.Since(t0)))
}

type flushingObserver struct {
	mon *monitor.Monitor
	tee *trace.Tee
}

func (f flushingObserver) BeginRun(c *plan.Compiled) { f.mon.BeginRun(c) }

func (f flushingObserver) EndRun(err error) error {
	f.tee.Flush()
	return f.mon.EndRun(err)
}

// msgCounter is a plan.MsgObserver that counts the plan's stage-data
// messages (the result gather's tags fall outside the plan tag space and
// are not counted) and times an optional inner observer.
type msgCounter struct {
	inner   plan.MsgObserver
	spec    plan.Spec
	msgs    atomic.Int64
	bytes   atomic.Int64
	innerNs atomic.Int64
}

func (m *msgCounter) BeginMessages(c *plan.Compiled) {
	m.spec = c.Spec
	if m.inner != nil {
		m.inner.BeginMessages(c)
	}
}

func (m *msgCounter) OnMessage(src, dst, tag int, bytes int64, sentAt, deliveredAt float64, depth int) {
	if _, _, _, ok := m.spec.InvertTag(tag); ok {
		m.msgs.Add(1)
		m.bytes.Add(bytes)
	}
	if m.inner != nil {
		t0 := time.Now()
		m.inner.OnMessage(src, dst, tag, bytes, sentAt, deliveredAt, depth)
		m.innerNs.Add(int64(time.Since(t0)))
	}
}

// readReplay is the outcome of replaying the plan's reads.
type readReplay struct {
	seconds   float64 // time inside the read calls
	got, want ensio.IOStats
}

func (r readReplay) conformance() error {
	if r.got.Reads != r.want.Reads || r.got.BytesRead != r.want.BytesRead {
		return fmt.Errorf("ensio replay made %d reads / %d bytes, plan templates say %d / %d",
			r.got.Reads, r.got.BytesRead, r.want.Reads, r.want.BytesRead)
	}
	return nil
}

// replayReads performs every I/O rank's stage reads of the compiled plan,
// one rank after another, through ensio.MemberFile.
func replayReads(in *realInputs) (readReplay, error) {
	var rr readReplay
	nl := in.c.Spec.LevelCount()
	for _, r := range in.c.IO {
		files := map[int]*ensio.MemberFile{}
		err := func() error {
			defer func() {
				for _, f := range files {
					st := f.Stats()
					rr.got.Reads += st.Reads
					rr.got.BytesRead += st.BytesRead
					f.Close()
				}
			}()
			for _, k := range r.Members {
				f, err := ensio.OpenMember(ensio.MemberPath(in.dir, k))
				if err != nil {
					return err
				}
				files[k] = f
			}
			for _, st := range r.Stages {
				for _, k := range st.Members {
					y0, y1 := st.Read.Box.Y0, st.Read.Box.Y1
					t0 := time.Now()
					var err error
					if nl == 1 {
						_, err = files[k].ReadBar(y0, y1)
					} else {
						_, err = files[k].ReadBarLevels(y0, y1)
					}
					rr.seconds += time.Since(t0).Seconds()
					if err != nil {
						return err
					}
					rr.want.Reads++
					rr.want.BytesRead += int64(8 * st.Read.Box.Points() * nl)
				}
			}
			return nil
		}()
		if err != nil {
			return rr, err
		}
	}
	return rr, nil
}

// msgReplay is the outcome of pushing the expected edges through a world.
type msgReplay struct {
	seconds float64
	got     mpi.CommStats
	want    plan.EdgeStats
}

func (m msgReplay) conformance() error {
	if m.got.MsgsRecvd != m.want.Msgs || m.got.BytesSent != m.want.Bytes {
		return fmt.Errorf("mpi replay moved %d msgs / %d bytes, plan edges say %d / %d",
			m.got.MsgsRecvd, m.got.BytesSent, m.want.Msgs, m.want.Bytes)
	}
	return nil
}

// stageHeaderWords is the engine's per-message header: member and box.
const stageHeaderWords = 5

// replayMessages sends every edge of plan.ExpectedEdges through an
// mpi.World of the plan's size, with the engine's header and payload
// sizes, and times the exchange.
func replayMessages(c *plan.Compiled) (msgReplay, error) {
	edges := plan.ExpectedEdges(c)
	type send struct {
		dst    int
		n      int64
		floats int
	}
	sends := make([][]send, c.WorldSize())
	recvs := make([]int64, c.WorldSize())
	maxFloats := 0
	for _, k := range edges.Keys() {
		e := edges[k]
		floats := int(e.Bytes/e.Msgs/8) - stageHeaderWords
		sends[k.Src] = append(sends[k.Src], send{k.Dst, e.Msgs, floats})
		recvs[k.Dst] += e.Msgs
		if floats > maxFloats {
			maxFloats = floats
		}
	}
	payload := make([]float64, maxFloats)
	header := make([]int, stageHeaderWords)
	w, err := mpi.NewWorld(c.WorldSize())
	if err != nil {
		return msgReplay{}, err
	}
	t0 := time.Now()
	err = w.Run(func(comm *mpi.Comm) error {
		me := comm.Rank()
		for _, s := range sends[me] {
			for i := int64(0); i < s.n; i++ {
				if err := comm.Send(s.dst, 0, header, payload[:s.floats]); err != nil {
					return err
				}
			}
		}
		for i := int64(0); i < recvs[me]; i++ {
			if _, err := comm.Recv(mpi.AnySource, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return msgReplay{}, err
	}
	return msgReplay{seconds: time.Since(t0).Seconds(), got: w.TotalStats(), want: edges.Totals()}, nil
}

// replayAssemble times the rank-0 gather's assembly: the analysis is cut
// into the compute ranks' sub-domain blocks, which enkf.Assemble merges
// back into full fields, level by level.
func replayAssemble(in *realInputs, out [][][]float64) (float64, error) {
	m := in.cfg.Mesh
	full := grid.Box{X0: 0, X1: m.NX, Y0: 0, Y1: m.NY}
	subs := make([][]*enkf.Block, len(out))
	for l := range out {
		blk := &enkf.Block{Box: full, Data: out[l]}
		for _, r := range in.c.Compute {
			sub, err := blk.SubBlock(r.Sub)
			if err != nil {
				return 0, err
			}
			subs[l] = append(subs[l], sub)
		}
	}
	t0 := time.Now()
	for l := range subs {
		if _, err := enkf.Assemble(m, in.cfg.N, subs[l]); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds(), nil
}

// perturbReuse is the number of perturbation draws the kernel makes per
// distinct (observation, member) draw the analysis needs: every analysed
// point draws all members of every observation in its local box.
func perturbReuse(in *realInputs) float64 {
	var draws, distinct int
	for _, net := range in.nets {
		used := make([]bool, len(net.Obs))
		for _, r := range in.c.Compute {
			for _, st := range r.Stages {
				var cand []int
				for i, o := range net.Obs {
					if obs.ObsInBox(o, st.Box) {
						cand = append(cand, i)
					}
				}
				for y := st.Analyze.Y0; y < st.Analyze.Y1; y++ {
					for x := st.Analyze.X0; x < st.Analyze.X1; x++ {
						lb := in.cfg.Radius.LocalBox(in.cfg.Mesh, x, y)
						for _, i := range cand {
							if obs.ObsInBox(net.Obs[i], lb) {
								draws++
								used[i] = true
							}
						}
					}
				}
			}
		}
		for _, u := range used {
			if u {
				distinct++
			}
		}
	}
	if distinct == 0 {
		return 0
	}
	return float64(draws) / float64(distinct)
}

// microTime is how long each micro-rate repeats its call.
const microTime = 200 * time.Millisecond

// perturbNs is the cost of one (observation, member) perturbation draw.
func perturbNs(in *realInputs) float64 {
	list := in.nets[0].Obs
	if len(list) > 256 {
		list = list[:256]
	}
	n := in.cfg.N
	per := timeFor(microTime, func() {
		for _, o := range list {
			sinkF += obs.CenteredPerturbations(o, n, in.cfg.Seed)[0]
		}
	})
	return per / float64(len(list)*n) * 1e9
}

// sinkF keeps micro-rate results alive.
var sinkF float64

// kernelRates records the linear-algebra micro-rates, in the shapes of
// the repository's BenchmarkMatMul64, BenchmarkCholesky64 and
// BenchmarkModifiedCholesky.
func kernelRates(r *result, sp *spanLog) {
	s := linalg.NewStream(3)
	x, y := linalg.NewMatrix(64, 64), linalg.NewMatrix(64, 64)
	for i := range x.Data {
		x.Data[i], y.Data[i] = s.Norm(), s.Norm()
	}
	var per float64
	sp.time("linalg.MatMul", "", func() {
		per = timeFor(microTime, func() {
			z, err := linalg.MatMul(x, y)
			if err != nil {
				panic(err)
			}
			sinkF += z.Data[0]
		})
	})
	r.set("linalg.matmul64_gflops", 2*64*64*64/per/1e9)

	s = linalg.NewStream(1)
	a := linalg.NewMatrix(64, 66)
	for i := range a.Data {
		a.Data[i] = s.Norm()
	}
	spd := linalg.AAT(a)
	for i := 0; i < 64; i++ {
		spd.Data[i*64+i] += 64
	}
	sp.time("linalg.Cholesky", "", func() {
		per = timeFor(microTime, func() {
			l, err := linalg.Cholesky(spd)
			if err != nil {
				panic(err)
			}
			sinkF += l.Data[0]
		})
	})
	r.set("linalg.cholesky64_us", per*1e6)

	s = linalg.NewStream(2)
	u := linalg.NewMatrix(25, 40)
	for i := range u.Data {
		u.Data[i] = s.Norm()
	}
	linalg.CenterRows(u)
	sp.time("linalg.ModifiedCholeskyPrecision", "", func() {
		per = timeFor(microTime, func() {
			p, err := linalg.ModifiedCholeskyPrecision(u, 5, 1e-6)
			if err != nil {
				panic(err)
			}
			sinkF += p.Data[0]
		})
	})
	r.set("linalg.modchol_us", per*1e6)
}

// simEventsPerS is the event engine's rate in the shape of the
// repository's BenchmarkSimEngineEvents: 1000 processes, each taking a
// 4-slot resource, sleeping and releasing it 10 times. One event is one
// acquire-sleep-release round.
func simEventsPerS() (float64, error) {
	const procs, rounds = 1000, 10
	var runErr error
	per := timeFor(microTime, func() {
		env := sim.NewEnv()
		res := sim.NewResource(env, "disk", 4)
		for p := 0; p < procs; p++ {
			env.Go(fmt.Sprintf("p%d", p), func(pr *sim.Proc) {
				for j := 0; j < rounds; j++ {
					res.Acquire(pr)
					pr.Sleep(0.001)
					res.Release()
				}
			})
		}
		if _, err := env.Run(); err != nil {
			runErr = err
		}
	})
	return procs * rounds / per, runErr
}
