// Package schedule replays compiled execution plans (internal/plan) on the
// discrete-event machine (internal/sim + internal/parfs) at the paper's
// scale — thousands of simulated processors over the 0.1° problem geometry —
// to regenerate the evaluation figures. The *numerical* assimilation is not
// performed here (that is the job of the real engine in internal/core); what
// is simulated is the exact event structure each compiled plan prescribes:
// who reads what with how many disk-addressing operations, who waits for
// whom, and what overlaps with what. Because both this package and the real
// engine interpret the same plan.Compiled, the simulated schedule is
// structurally identical to a traced real run at the same geometry
// (plan.ExpectedDAG is the common reference).
//
// Schedules implemented:
//
//   - P-EnKF (§2.3, Figure 3): every processor block-reads its expansion
//     from every member file, one file after another, paying one addressing
//     operation per latitude row; local analysis only starts when all
//     members have arrived. No communication, no overlap.
//   - L-EnKF (§3.1): a single reader processor reads each member file in
//     full and distributes expansion blocks serially.
//   - S-EnKF (§4): n_cg concurrent groups of n_sdy I/O processors bar-read
//     the n_sdy·L overlapped small bars of their N/n_cg files (one
//     addressing operation each) and feed n_sdx compute processors
//     per stage; compute processors overlap stage-l analysis with stage-
//     (l+1) reading and communication, helper-thread style (Figure 8).
package schedule

import (
	"fmt"
	"math"
	"sort"

	"senkf/internal/costmodel"
	"senkf/internal/faults"
	"senkf/internal/grid"
	"senkf/internal/metrics"
	"senkf/internal/parfs"
	"senkf/internal/plan"
	"senkf/internal/runtimeobs"
	"senkf/internal/sim"
	"senkf/internal/trace"
)

// Config couples the problem/cost parameters with the file system model.
type Config struct {
	P  costmodel.Params
	FS parfs.Config

	// Tracer receives the virtual-clocked event stream of every simulated
	// run (phase spans per processor, OST service spans, stage readiness
	// instants). Nil disables tracing at zero cost.
	Tracer *trace.Tracer

	// Faults injects a deterministic fault plan: OST outage/degradation
	// windows and straggler processors affect every schedule; member-file
	// faults and I/O-rank deaths additionally drive the drop/failover logic
	// of SimulateSEnKF. Nil (the default) simulates a healthy machine with
	// the exact pre-fault event structure.
	Faults *faults.Plan

	// Obs, when non-nil, observes each simulated run: BeginRun with the
	// compiled plan before any event executes, EndRun with the outcome —
	// the hook a live monitor (internal/monitor) attaches through,
	// alongside a Tracer teeing events to it.
	Obs plan.RunObserver

	// Prof, when non-nil, runs every simulated process under its pprof
	// proc labels (via sim.Env.SetSpawnWrapper), so profiling the
	// simulator itself — the ROADMAP's "make it fast enough for massive
	// sweeps" item — attributes CPU to the same proc names the trace
	// uses. Nil disables labeling.
	Prof *runtimeobs.LabelSet

	// Msgs, when non-nil, receives the simulated substrate's mirror of the
	// real engine's per-message accounting: BeginMessages with the compiled
	// plan, then one OnMessage per (member, level, destination) stage-data
	// send, byte-sized by plan.StageMsgBytes — the real transport's formula,
	// not the cost model's nominal volume — so the simulated edge matrix is
	// bit-identical to the real and expected ones. Delivery timestamps are
	// the virtual send instants (zero latency: the simulator aggregates
	// messages into notifications; only the matrix is mirrored).
	Msgs plan.MsgObserver

	// Reads, when non-nil, receives per-read OST attribution from the
	// simulated file system (see parfs.ReadObserver). The wire collector
	// (internal/wire) implements both Msgs and Reads.
	Reads parfs.ReadObserver
}

// observe wraps an execution outcome through the configured RunObserver
// (nil-safe): a monitor may decorate err with blamed plan edges and a
// flight-recorder dump.
func (c Config) observe(err error) error {
	if c.Obs == nil {
		return err
	}
	return c.Obs.EndRun(err)
}

// announceFaults emits one fault instant per injected straggler so the
// injections are visible in the event stream (and to a live monitor)
// before their effects are.
func (c Config) announceFaults(tr *trace.Tracer) {
	if c.Faults == nil || !tr.Enabled() {
		return
	}
	for _, s := range c.Faults.Stragglers {
		tr.Instant(s.Proc, trace.CatFault, "straggler", 0,
			trace.Arg{Key: "factor", Val: s.Factor})
	}
}

// substrate builds a fresh discrete-event environment and the parallel
// file system on it, every process running under its pprof proc labels
// when Prof is set.
func (c Config) substrate() (*sim.Env, *parfs.FS, error) {
	env := sim.NewEnv()
	if c.Prof != nil {
		env.SetSpawnWrapper(c.Prof.SpawnWrapper())
	}
	fs, err := parfs.New(env, c.FS)
	return env, fs, err
}

// start is the preamble every full simulated run shares, after the caller
// has validated the config and its fault plan for the schedule: compile
// spec over the nsdx × nsdy decomposition at the config's level count,
// build the substrate with tracing, fault injection and wire telemetry
// installed, and begin observation. When predict is non-nil the Eq. 7–10
// model prediction for it is published ahead of the fault announcement.
func (c Config) start(nsdx, nsdy int, spec func(grid.Decomposition) plan.Spec, predict *costmodel.Choice) (*plan.Compiled, *sim.Env, *parfs.FS, error) {
	dec, err := decompose(c.P, nsdx, nsdy)
	if err != nil {
		return nil, nil, nil, err
	}
	cp, err := plan.Compile(spec(dec).WithLevels(c.P.LevelCount()))
	if err != nil {
		return nil, nil, nil, err
	}
	env, fs, err := c.substrate()
	if err != nil {
		return nil, nil, nil, err
	}
	env.SetTracer(c.Tracer)
	if c.Faults != nil {
		env.SetSlowdown(c.Faults.SlowdownFor)
		fs.SetFaults(c.Faults)
	}
	if c.Msgs != nil {
		c.Msgs.BeginMessages(cp)
	}
	if c.Reads != nil {
		fs.SetReadObserver(c.Reads)
	}
	if c.Obs != nil {
		c.Obs.BeginRun(cp)
	}
	if predict != nil {
		emitModelPrediction(c.Tracer, c.P, *predict)
	}
	c.announceFaults(c.Tracer)
	return cp, env, fs, nil
}

// obs records one phase interval in both the recorder and — when tracing —
// as a span on the processor's own track, keeping the two derivations of
// the paper's breakdowns byte-for-byte comparable. Optional args annotate
// the span (stage tags feed the per-stage overlap accounting).
func obs(tr *trace.Tracer, rec *metrics.Recorder, name string, ph metrics.Phase, t0, t1 float64, args ...trace.Arg) {
	rec.Record(name, ph, t0, t1)
	if tr.Enabled() {
		tr.Span(name, trace.CatPhase, ph.String(), t0, t1, args...)
	}
}

// emitModelPrediction publishes the Eq. 7–10 predictions for the choice
// about to be simulated: counter samples (model/t_read, model/t_comm,
// model/t_comp) on the model track so drift against measured phases is
// visible directly in a Chrome trace, gauges in the counter registry, and
// one "prediction" instant carrying the full Table-1 parameters and the
// choice — everything senkf-report needs to recompute drift from the
// trace file alone.
func emitModelPrediction(tr *trace.Tracer, p costmodel.Params, ch costmodel.Choice) {
	tRead, tComm, tComp := p.TRead(ch), p.TComm(ch), p.TComp(ch)
	if reg := tr.Counters(); reg != nil {
		reg.SetGauge("model/t_read", tRead)
		reg.SetGauge("model/t_comm", tComm)
		reg.SetGauge("model/t_comp", tComp)
		reg.SetGauge("model/t_total", p.TTotal(ch))
	}
	if !tr.Enabled() {
		return
	}
	tr.Counter(trace.ModelTrack, "model/t_read", 0, tRead)
	tr.Counter(trace.ModelTrack, "model/t_comm", 0, tComm)
	tr.Counter(trace.ModelTrack, "model/t_comp", 0, tComp)
	tr.Instant(trace.ModelTrack, trace.CatModel, "prediction", 0,
		trace.Arg{Key: "nsdx", Val: float64(ch.NSdx)},
		trace.Arg{Key: "nsdy", Val: float64(ch.NSdy)},
		trace.Arg{Key: "l", Val: float64(ch.L)},
		trace.Arg{Key: "ncg", Val: float64(ch.NCg)},
		trace.Arg{Key: "t_read", Val: tRead},
		trace.Arg{Key: "t_comm", Val: tComm},
		trace.Arg{Key: "t_comp", Val: tComp},
		trace.Arg{Key: "t_total", Val: p.TTotal(ch)},
		trace.Arg{Key: "n", Val: float64(p.N)},
		trace.Arg{Key: "nx", Val: float64(p.NX)},
		trace.Arg{Key: "ny", Val: float64(p.NY)},
		trace.Arg{Key: "a", Val: p.A},
		trace.Arg{Key: "b", Val: p.B},
		trace.Arg{Key: "c", Val: p.C},
		trace.Arg{Key: "theta", Val: p.Theta},
		trace.Arg{Key: "xi", Val: float64(p.Xi)},
		trace.Arg{Key: "eta", Val: float64(p.Eta)},
		trace.Arg{Key: "h", Val: float64(p.H)},
		trace.Arg{Key: "levels", Val: float64(p.LevelCount())})
}

// Validate checks both halves and their consistency.
func (c Config) Validate() error {
	if err := c.P.Validate(); err != nil {
		return err
	}
	if err := c.FS.Validate(); err != nil {
		return err
	}
	return nil
}

// DefaultConfig is the paper-scale machine: the 0.1° problem of §5.1
// (3600×1800 grid, 30 levels ⇒ h = 240 B, N = 120 members) on a parallel
// file system with 8 OSTs and a 6-stream backbone, 5 GB/s network links
// with 2 µs startup, and a per-point local-analysis cost calibrated so the
// computation-to-I/O balance matches Figure 1's trajectory.
func DefaultConfig() Config {
	return Config{
		P: costmodel.Params{
			N: 120, NX: 3600, NY: 1800,
			A: 2e-6, B: 2e-10, C: 0.12,
			Theta: 0.5e-9, Xi: 16, Eta: 8, H: 240,
		},
		FS: parfs.DefaultConfig,
	}
}

// Result is the outcome of one simulated run.
type Result struct {
	Algorithm string
	NP        int     // total processors used
	Runtime   float64 // virtual seconds

	// IO is the mean phase breakdown of the I/O processors (S-EnKF and the
	// L-EnKF reader); zero for P-EnKF, which has no dedicated I/O ranks.
	IO metrics.Breakdown
	// Compute is the mean phase breakdown of the compute processors. For
	// P-EnKF it contains both the read and the compute share, as in Fig. 9.
	Compute metrics.Breakdown

	// OverlapFraction is the share of I/O activity (file reading and
	// communication) that proceeded concurrently with local analysis — how
	// well data obtaining is hidden (Figure 11). Zero for the baselines.
	OverlapFraction float64
	// OverlapRuntimeFraction is the overlapped time as a share of total
	// runtime.
	OverlapRuntimeFraction float64
	// FirstStage is the non-overlappable initial acquisition time of
	// S-EnKF (the "<8%" of §5.4).
	FirstStage float64

	FSStats parfs.Stats

	// Fault outcomes (S-EnKF only; empty/zero without a fault plan):
	// DroppedMembers lists members whose files were unrecoverable and were
	// excluded from assimilation; Failovers counts bar rows adopted by a
	// surviving reader after a rank death; RankDeaths counts I/O ranks that
	// died during the run.
	DroppedMembers []int
	Failovers      int
	RankDeaths     int
}

// IOPercent returns the share of I/O (read) time in read+compute across
// compute processors — the quantity of Figure 1.
func (r Result) IOPercent() float64 {
	t := r.Compute.Read + r.Compute.Compute
	if t == 0 {
		return 0
	}
	return 100 * r.Compute.Read / t
}

// ChooseDecomposition picks (n_sdx, n_sdy) with n_sdx·n_sdy = np dividing
// the mesh while minimizing the expansion (halo) area — the natural choice
// an implementer makes for P-EnKF at a given processor count.
func ChooseDecomposition(p costmodel.Params, np int) (nsdx, nsdy int, err error) {
	best := math.Inf(1)
	found := false
	for j := 1; j <= np; j++ {
		if np%j != 0 || p.NY%j != 0 {
			continue
		}
		i := np / j
		if p.NX%i != 0 {
			continue
		}
		expArea := (float64(p.NX)/float64(i) + 2*float64(p.Xi)) * (float64(p.NY)/float64(j) + 2*float64(p.Eta))
		if expArea < best {
			best = expArea
			nsdx, nsdy = i, j
			found = true
		}
	}
	if !found {
		return 0, 0, fmt.Errorf("schedule: no decomposition of %dx%d into %d sub-domains", p.NX, p.NY, np)
	}
	return nsdx, nsdy, nil
}

// decompose builds the mesh decomposition the plan compiler works on: the
// cost model's localization radius (ξ, η) becomes the decomposition radius,
// so the plan's nominal addressing-op and point counts are exactly the
// quantities of Eqs. 2 and 5.
func decompose(p costmodel.Params, nsdx, nsdy int) (grid.Decomposition, error) {
	m, err := grid.NewMesh(p.NX, p.NY)
	if err != nil {
		return grid.Decomposition{}, err
	}
	return grid.NewDecomposition(m, nsdx, nsdy, grid.Radius{Xi: p.Xi, Eta: p.Eta})
}

// nominalBytes converts a plan's nominal point count to bytes at h bytes
// per grid point. All factors are exact small integers, so the product is
// exact in float64 regardless of association. Callers fold the level
// dimension into the point count (ReadTemplate.PointsAllLevels, or an
// explicit × LevelCount on communication volumes) so the plan's Levels and
// the cost model's H stay separate factors.
func nominalBytes(points, h int) float64 {
	return float64(points) * float64(h)
}

// SimulatePEnKF replays the compiled block-reading plan on nsdx × nsdy
// processors.
func SimulatePEnKF(cfg Config, nsdx, nsdy int) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.P.NX%nsdx != 0 || cfg.P.NY%nsdy != 0 {
		return Result{}, fmt.Errorf("schedule: %dx%d does not divide the %dx%d mesh", nsdx, nsdy, cfg.P.NX, cfg.P.NY)
	}
	if err := cfg.Faults.Validate(0, 0, 0, cfg.P.N, cfg.FS.OSTs); err != nil {
		return Result{}, err
	}
	cp, env, fs, err := cfg.start(nsdx, nsdy, func(dec grid.Decomposition) plan.Spec { return plan.PEnKF(dec, cfg.P.N) }, nil)
	if err != nil {
		return Result{}, err
	}
	rec, tr := metrics.NewRecorder(), cfg.Tracer

	lv := cp.Spec.LevelCount()
	for q := range cp.Compute {
		cr := &cp.Compute[q]
		env.Go(cr.Name, func(p *sim.Proc) {
			for _, st := range cr.Stages {
				// Phase 1: block-read every member file, one after another,
				// paying the plan's nominal addressing operations per file
				// (one per expansion row, §4.1.1) — rows that carry every
				// level on multilevel files.
				blockBytes := nominalBytes(st.Read.PointsAllLevels(), cfg.P.H)
				for _, k := range st.SelfMembers {
					t0 := p.Now()
					fs.Read(p, k, st.Read.AddrOps, blockBytes)
					obs(tr, rec, cr.Name, metrics.PhaseRead, t0, p.Now())
				}
				// Phase 2: local analysis on the sub-domain, level by level.
				t0 := p.Now()
				p.Sleep(cfg.P.C * float64(st.Analyze.Points()*lv))
				obs(tr, rec, cr.Name, metrics.PhaseCompute, t0, p.Now())
			}
		})
	}
	end, err := env.Run()
	if err = cfg.observe(err); err != nil {
		return Result{}, err
	}
	return Result{
		Algorithm: "P-EnKF",
		NP:        cp.NumCompute(),
		Runtime:   end,
		Compute:   rec.MeanBreakdown(metrics.ComputePrefix),
		FSStats:   fs.Stats(),
	}, nil
}

// SimulateLEnKF replays the compiled single-reader plan: one reader
// processor reads every member file in full and serially distributes
// expansion blocks to nsdx × nsdy compute processors.
func SimulateLEnKF(cfg Config, nsdx, nsdy int) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.P.NX%nsdx != 0 || cfg.P.NY%nsdy != 0 {
		return Result{}, fmt.Errorf("schedule: %dx%d does not divide the %dx%d mesh", nsdx, nsdy, cfg.P.NX, cfg.P.NY)
	}
	if err := cfg.Faults.Validate(0, 0, 0, cfg.P.N, cfg.FS.OSTs); err != nil {
		return Result{}, err
	}
	// L-EnKF stays single-level by design: compiling with the config's level
	// count makes the spec validator reject a multilevel request loudly.
	cp, env, fs, err := cfg.start(nsdx, nsdy, func(dec grid.Decomposition) plan.Spec { return plan.LEnKF(dec, cfg.P.N) }, nil)
	if err != nil {
		return Result{}, err
	}
	rec, tr := metrics.NewRecorder(), cfg.Tracer

	lv := cp.Spec.LevelCount()
	boxes := make([]*sim.Mailbox, cp.NumCompute())
	for r := range boxes {
		boxes[r] = sim.NewMailbox(env, fmt.Sprintf("mb%d", r))
	}
	rd := &cp.IO[0]
	env.Go(rd.Name, func(p *sim.Proc) {
		// One round per member: read the file in full (one addressing
		// operation), then scatter every destination its expansion block.
		for _, st := range rd.Stages {
			k := st.Members[0]
			t0 := p.Now()
			fs.Read(p, k, st.Read.AddrOps, nominalBytes(st.Read.PointsAllLevels(), cfg.P.H))
			obs(tr, rec, rd.Name, metrics.PhaseRead, t0, p.Now())
			// Serial distribution: the reader pays startup + transfer for
			// every destination, one destination after another.
			blockBytes := nominalBytes(st.Comm.PerDstPoints, cfg.P.H)
			t0 = p.Now()
			p.Sleep(float64(len(st.Comm.Dsts)) * (cfg.P.A + cfg.P.B*blockBytes))
			obs(tr, rec, rd.Name, metrics.PhaseComm, t0, p.Now())
			for _, dst := range st.Comm.Dsts {
				boxes[dst].Send(k)
				// Mirror the real engine's per-(member, level) stage-data
				// message, byte-sized by the transport's formula.
				if cfg.Msgs != nil {
					for lvl := 0; lvl < lv; lvl++ {
						cfg.Msgs.OnMessage(rd.Rank, dst, cp.Spec.Tag(st.Stage, k, lvl),
							plan.StageMsgBytes(cp, dst, st.Stage), p.Now(), p.Now(), 0)
					}
				}
			}
		}
	})
	for q := range cp.Compute {
		cr := &cp.Compute[q]
		mb := boxes[cr.Rank]
		env.Go(cr.Name, func(p *sim.Proc) {
			st := cr.Stages[0]
			t0 := p.Now()
			for n := 0; n < st.Expect; n++ {
				mb.Recv(p)
			}
			obs(tr, rec, cr.Name, metrics.PhaseWait, t0, p.Now())
			t0 = p.Now()
			p.Sleep(cfg.P.C * float64(st.Analyze.Points()))
			obs(tr, rec, cr.Name, metrics.PhaseCompute, t0, p.Now())
		})
	}
	end, err := env.Run()
	if err = cfg.observe(err); err != nil {
		return Result{}, err
	}
	return Result{
		Algorithm: "L-EnKF",
		NP:        cp.WorldSize(),
		Runtime:   end,
		IO:        rec.MeanBreakdown(metrics.IOPrefix),
		Compute:   rec.MeanBreakdown(metrics.ComputePrefix),
		FSStats:   fs.Stats(),
	}, nil
}

// stageMsg is the aggregated "your stage-l blocks from group g have
// arrived" notification an I/O processor sends a compute processor.
type stageMsg struct{ stage int }

// SimulateSEnKF replays the compiled multi-stage overlapped plan with the
// given parameter choice (n_sdx, n_sdy, L, n_cg).
func SimulateSEnKF(cfg Config, ch costmodel.Choice) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if !cfg.P.Feasible(ch) {
		return Result{}, fmt.Errorf("schedule: choice %v infeasible for the problem", ch)
	}
	p := cfg.P
	nsdy, ncg := ch.NSdy, ch.NCg
	pl := cfg.Faults
	if err := pl.Validate(ncg, nsdy, ch.L, p.N, cfg.FS.OSTs); err != nil {
		return Result{}, err
	}
	cp, env, fs, err := cfg.start(ch.NSdx, nsdy, func(dec grid.Decomposition) plan.Spec { return plan.SEnKF(dec, p.N, ch.L, ncg) }, &ch)
	if err != nil {
		return Result{}, err
	}
	rec, tr := metrics.NewRecorder(), cfg.Tracer
	lv := cp.Spec.LevelCount()

	// One mailbox per compute processor, indexed by compute rank. The plan
	// orders ranks row-major, so creation order is unchanged (j outer, i
	// inner).
	boxes := make([]*sim.Mailbox, cp.NumCompute())
	for q := range cp.Compute {
		cr := &cp.Compute[q]
		boxes[cr.Rank] = sim.NewMailbox(env, fmt.Sprintf("mb%d.%d", cr.J, cr.I))
	}

	// I/O processors: group g ∈ [0,ncg), bar row j ∈ [0,nsdy) — the plan's
	// IO order. The members of a group read the same file at once (§4.1.3) —
	// a cyclic barrier keeps them on the same file.
	groupBarriers := make([]*sim.Barrier, ncg)
	for g := range groupBarriers {
		groupBarriers[g] = sim.NewBarrier(env, fmt.Sprintf("grp%d", g), nsdy)
	}
	// Fault bookkeeping shared across the group's processors. The simulation
	// is single-threaded (exactly one goroutine runs at any instant), so
	// plain maps are safe; determinism comes from the plan, not the sharing.
	var (
		failovers  int
		rankDeaths int
		adopted    = map[[2]int]bool{} // (group, dead row) already counted
		droppedSet = map[int]bool{}
	)
	// Per-group effective file count: unrecoverable members contribute no
	// payload, shrinking the per-stage send volume of that group. The
	// group's member set comes from the plan (members k ≡ g mod n_cg).
	droppedInGroup := make([]int, ncg)
	for q := range cp.IO {
		if cp.IO[q].Row != 0 {
			continue
		}
		for _, k := range cp.IO[q].Members {
			if pl.Drops(k) {
				droppedInGroup[cp.IO[q].Group]++
			}
		}
	}

	for q := range cp.IO {
		me := &cp.IO[q]
		g, j, name := me.Group, me.Row, me.Name
		effFiles := len(me.Members) - droppedInGroup[g]
		env.Go(name, func(proc *sim.Proc) {
			// tStage is the group-agreed virtual time at the top of the
			// current stage: 0 initially, then the instant the last file
			// barrier of the previous stage released — identical for
			// every member of the group, so all members evaluate the
			// death predicates with the same (stage, time) and agree on
			// the live set without communication.
			tStage := 0.0
			for _, st := range me.Stages {
				l := st.Stage
				barBytes := nominalBytes(st.Read.PointsAllLevels(), p.H)
				sendBytes := nominalBytes(st.Comm.PerDstPoints*lv, p.H) * float64(effFiles)
				dead := func(jj int) bool { return pl.DeadAt(g, jj, l, tStage) }
				if dead(j) {
					if tr.Enabled() {
						tr.Instant(name, trace.CatFault, "rank-death", proc.Now(),
							trace.Arg{Key: trace.ArgStage, Val: float64(l)})
					}
					tr.Counters().Inc("faults.rank.deaths")
					rankDeaths++
					groupBarriers[g].Leave()
					return
				}
				// Rows this reader serves: its own, plus dead rows whose
				// cyclic successor it is (the failover rule every survivor
				// applies identically, on both substrates).
				serve, newRows := faults.Serving(j, nsdy, dead, func(jj int) bool { return adopted[[2]int{g, jj}] })
				for _, jj := range newRows {
					adopted[[2]int{g, jj}] = true
					failovers++
					tr.Counters().Inc("faults.failovers")
					if tr.Enabled() {
						tr.Instant(name, trace.CatFault, "failover", proc.Now(),
							trace.Arg{Key: "row", Val: float64(jj)},
							trace.Arg{Key: trace.ArgStage, Val: float64(l)})
					}
				}
				// Read this stage's small bar from each file of the
				// group: contiguous, one addressing operation each (per
				// served row). Faulted files cost their retry probes;
				// unrecoverable ones are dropped and contribute nothing.
				t0 := proc.Now()
				for _, file := range st.Members {
					if pl.Drops(file) {
						for a := 0; a < pl.Budget(); a++ {
							fs.Read(proc, file, 1, 0)
						}
						if !droppedSet[file] {
							droppedSet[file] = true
							tr.Counters().Inc("faults.members.dropped")
							if tr.Enabled() {
								tr.Instant(name, trace.CatFault, "member-dropped", proc.Now(),
									trace.Arg{Key: "member", Val: float64(file)})
							}
						}
					} else {
						if ff, ok := pl.FaultFor(file); ok && ff.Kind == faults.FileTransient {
							for a := 0; a < ff.Count; a++ {
								fs.Read(proc, file, 1, 0)
							}
						}
						for range serve {
							fs.Read(proc, file, st.Read.AddrOps, barBytes)
						}
					}
					groupBarriers[g].Wait(proc)
				}
				obs(tr, rec, name, metrics.PhaseRead, t0, proc.Now(),
					trace.Arg{Key: trace.ArgStage, Val: float64(l)})
				// All live members left the last barrier at this same
				// instant: the agreed stage-top time for stage l+1.
				tStage = proc.Now()
				// Send each compute processor of the served rows its
				// aggregated stage blocks (serialized at the sender's
				// link). The destinations of an adopted row come from the
				// dead rank's own plan entry.
				t0 = proc.Now()
				proc.Sleep(float64(len(serve)) * float64(len(st.Comm.Dsts)) * (p.A + p.B*sendBytes))
				obs(tr, rec, name, metrics.PhaseComm, t0, proc.Now(),
					trace.Arg{Key: trace.ArgStage, Val: float64(l)})
				for _, row := range serve {
					rp := cp.IOAt(g, row)
					for _, dst := range rp.Stages[l].Comm.Dsts {
						boxes[dst].Send(stageMsg{stage: l})
						// Mirror the per-(member, level) messages the real
						// engine sends for this aggregated notification;
						// dropped members carry no payload on either
						// substrate.
						if cfg.Msgs != nil {
							for _, file := range st.Members {
								if pl.Drops(file) {
									continue
								}
								for lvl := 0; lvl < lv; lvl++ {
									cfg.Msgs.OnMessage(rp.Rank, dst, cp.Spec.Tag(l, file, lvl),
										plan.StageMsgBytes(cp, dst, l), proc.Now(), proc.Now(), 0)
								}
							}
						}
					}
				}
			}
		})
	}

	// Compute processors: the helper thread is implicit — arrival counting
	// happens while the main loop computes, so stage l+1 data accumulates
	// in the mailbox during stage l's analysis, exactly the overlap of
	// Figure 8. Each group aggregates its N/n_cg member blocks into one
	// notification, so the plan's Expect = N per-member blocks arrive as
	// n_cg messages per stage.
	firstStage := sim.NewMailbox(env, "first-stage")
	for q := range cp.Compute {
		cr := &cp.Compute[q]
		name := cr.Name
		mb := boxes[cr.Rank]
		env.Go(name, func(proc *sim.Proc) {
			counts := make([]int, len(cr.Stages))
			for _, st := range cr.Stages {
				l := st.Stage
				// Wait for the ncg group notifications of stage l.
				t0 := proc.Now()
				for counts[l] < ncg {
					m := mb.Recv(proc).(stageMsg)
					counts[m.stage]++
					if tr.Enabled() && counts[m.stage] == ncg {
						// The last block of stage m.stage just arrived:
						// computing that stage is causally legal from
						// this instant on.
						tr.Instant(name, trace.CatStage, "ready", proc.Now(),
							trace.Arg{Key: trace.ArgStage, Val: float64(m.stage)})
					}
				}
				if t0 != proc.Now() {
					obs(tr, rec, name, metrics.PhaseWait, t0, proc.Now())
				}
				if l == 0 && cr.Rank == 0 {
					firstStage.Send(proc.Now())
				}
				t0 = proc.Now()
				proc.Sleep(p.C * float64(st.Analyze.Points()*lv))
				rec.Record(name, metrics.PhaseCompute, t0, proc.Now())
				if tr.Enabled() {
					tr.Span(name, trace.CatPhase, metrics.PhaseCompute.String(), t0, proc.Now(),
						trace.Arg{Key: trace.ArgStage, Val: float64(l)})
				}
			}
		})
	}

	end, err := env.Run()
	if err = cfg.observe(err); err != nil {
		return Result{}, err
	}
	ioSpans := rec.Spans(metrics.IOPrefix, metrics.PhaseRead, metrics.PhaseComm)
	cpSpans := rec.Spans(metrics.ComputePrefix, metrics.PhaseCompute)
	overlap := metrics.OverlapDuration(ioSpans, cpSpans)
	ioBusy := metrics.SpanTotal(ioSpans)
	var first float64
	if v, ok := firstStage.TryRecv(); ok {
		first = v.(float64)
	}
	res := Result{
		Algorithm:              "S-EnKF",
		NP:                     cp.WorldSize(),
		Runtime:                end,
		IO:                     rec.MeanBreakdown(metrics.IOPrefix),
		Compute:                rec.MeanBreakdown(metrics.ComputePrefix),
		OverlapRuntimeFraction: overlap / end,
		FirstStage:             first,
		FSStats:                fs.Stats(),
		Failovers:              failovers,
		RankDeaths:             rankDeaths,
	}
	for k := range droppedSet {
		res.DroppedMembers = append(res.DroppedMembers, k)
	}
	sort.Ints(res.DroppedMembers)
	if ioBusy > 0 {
		// Clamp: the hidden share of I/O cannot exceed 100%; resilient runs
		// with truncated spans from dead ranks must not report more.
		res.OverlapFraction = math.Min(1, overlap/ioBusy)
	}
	return res, nil
}

// ReadOnlyBlock simulates just the block-reading phase (no compute) of
// P-EnKF over nFiles member files — the measurement behind Figure 5. The
// read geometry (one addressing operation per expansion row, the full
// nominal expansion block per file) comes from the compiled P-EnKF plan,
// the same source the full schedule interprets.
func ReadOnlyBlock(cfg Config, nsdx, nsdy, nFiles int) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	dec, err := decompose(cfg.P, nsdx, nsdy)
	if err != nil {
		return 0, err
	}
	cp, err := plan.Compile(plan.PEnKF(dec, nFiles).WithLevels(cfg.P.LevelCount()))
	if err != nil {
		return 0, err
	}
	env, fs, err := cfg.substrate()
	if err != nil {
		return 0, err
	}
	for q := range cp.Compute {
		cr := &cp.Compute[q]
		st := cr.Stages[0]
		blockBytes := nominalBytes(st.Read.PointsAllLevels(), cfg.P.H)
		env.Go(cr.Name, func(p *sim.Proc) {
			for _, k := range st.SelfMembers {
				fs.Read(p, k, st.Read.AddrOps, blockBytes)
			}
		})
	}
	return env.Run()
}

// ReadOnlyConcurrent simulates just the concurrent-access reading of
// nFiles member files with the bar approach in ncg groups of nsdy readers
// each — the measurement behind Figure 10. A single-stage S-EnKF plan
// (n_sdx = 1, L = 1) prescribes the geometry: each reader's bar is the
// full-width sub-domain expansion at one addressing operation per file,
// and the group's members are the files k ≡ g (mod n_cg).
func ReadOnlyConcurrent(cfg Config, nsdy, ncg, nFiles int) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if nFiles%ncg != 0 {
		return 0, fmt.Errorf("schedule: %d files do not divide into %d groups", nFiles, ncg)
	}
	dec, err := decompose(cfg.P, 1, nsdy)
	if err != nil {
		return 0, err
	}
	cp, err := plan.Compile(plan.SEnKF(dec, nFiles, 1, ncg).WithLevels(cfg.P.LevelCount()))
	if err != nil {
		return 0, err
	}
	env, fs, err := cfg.substrate()
	if err != nil {
		return 0, err
	}
	barriers := make([]*sim.Barrier, ncg)
	for g := range barriers {
		barriers[g] = sim.NewBarrier(env, fmt.Sprintf("grp%d", g), nsdy)
	}
	for q := range cp.IO {
		r := &cp.IO[q]
		st := r.Stages[0]
		barBytes := nominalBytes(st.Read.PointsAllLevels(), cfg.P.H)
		g := r.Group
		env.Go(r.Name, func(p *sim.Proc) {
			for _, k := range st.Members {
				fs.Read(p, k, st.Read.AddrOps, barBytes)
				barriers[g].Wait(p)
			}
		})
	}
	return env.Run()
}
