// Resilient S-EnKF: the resilience policy of the one engine. The schedule
// is the one ExecutePlanLevels runs; the policy hardens it against the
// failures a parallel file system and a large rank count actually produce —
// unreadable or corrupted member files, transient storage errors, and
// I/O-rank deaths — all declared by the run's one fault plan,
// Problem.Faults.
//
// The recovery model is fail-stop with perfect failure detection, realised
// deterministically: every failure either surfaces as a classifiable open
// error (agreed world-wide through one Allreduce before the stage loop) or
// is a plan-declared rank death that every rank evaluates identically from
// the shared fault plan. Unreadable members are dropped and the analysis
// continues on the N−k survivors with a variance-preserving inflation
// reweighting; dead readers' bar rows are adopted by their cyclic successor
// within the group (failover), so compute ranks still receive every stage
// block. Messages keep the compiled plan's member tags: the survivor set
// only shrinks which members are sent and received. The outcome is a
// structured DegradedResult instead of a crash.
package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"senkf/internal/enkf"
	"senkf/internal/ensio"
	"senkf/internal/faults"
	"senkf/internal/mpi"
	"senkf/internal/plan"
	"senkf/internal/trace"
)

// minMembers is the survivor floor of a resilient run: an ensemble needs
// at least two members.
const minMembers = 2

// DroppedMember records one member excluded from the analysis and why.
type DroppedMember struct {
	Member int
	Reason string // "missing", "corrupt", "truncated", "io", "geometry"
}

// Failover records a dead reader's bar row being adopted by a survivor.
type Failover struct {
	Group      int
	FromReader int
	ToReader   int
	Stage      int // first stage the successor served the row
}

// DegradedResult is the structured outcome of a resilient run: the
// analysis over the surviving members plus everything a caller needs to
// interpret it.
type DegradedResult struct {
	// Fields is the analysis ensemble of the survivors, indexed by
	// survivor position (Fields[s] belongs to member Survivors[s]).
	Fields [][]float64
	// Survivors lists the member indices that were assimilated, ascending.
	Survivors []int
	Dropped   []DroppedMember
	Failovers []Failover
	// EffectiveConfig is the configuration the analysis actually ran with:
	// N shrunk to the survivor count and Inflation scaled by
	// sqrt((N−1)/(N′−1)) so the ensemble variance is not biased low by the
	// lost members. Callers can feed it to enkf.SerialReference to verify
	// the degraded result independently.
	EffectiveConfig enkf.Config
	// Degraded is true when anything was dropped or failed over.
	Degraded bool
}

// Member-drop reason codes exchanged through the agreement Allreduce, and
// the reason each names.
const (
	dropMissing = iota + 1
	dropCorrupt
	dropTruncated
	dropIO
	dropGeometry
)

var dropReasons = [...]string{dropMissing: "missing", dropCorrupt: "corrupt",
	dropTruncated: "truncated", dropIO: "io", dropGeometry: "geometry"}

// classifyOpenError maps an ensio open failure to a drop-reason code.
func classifyOpenError(err error) int {
	if errors.Is(err, os.ErrNotExist) {
		return dropMissing
	}
	var ce *ensio.CorruptionError
	if errors.As(err, &ce) {
		return dropCorrupt
	}
	if strings.Contains(err.Error(), "truncated") {
		return dropTruncated
	}
	return dropIO
}

// RunSEnKFResilient executes the S-EnKF schedule under the resilience
// policy, reading the fault plan from p.Faults: unreadable members are
// dropped (not fatal) down to two survivors, plan-declared reader deaths
// fail over to the group's surviving readers, and transient read errors
// are retried within the plan's budget. The DegradedResult is assembled
// at world rank 0.
func RunSEnKFResilient(p Problem, pl Plan) (*DegradedResult, error) {
	c, err := pl.compile(p, 1)
	if err != nil {
		return nil, err
	}
	fp := p.Faults
	if err := fp.Validate(pl.NCg, pl.Dec.NSdy, pl.L, p.Cfg.N, 0); err != nil {
		return nil, err
	}
	if fp != nil {
		for _, d := range fp.Deaths {
			if d.At > 0 {
				return nil, fmt.Errorf("core: time-based rank death (At=%g) is simulation-only; use BeforeStage for real runs", d.At)
			}
		}
	}
	fields, m, err := execute(p, c, true)
	if err != nil {
		return nil, err
	}
	failovers := planFailovers(fp, pl.Dec.NSdy)
	return &DegradedResult{
		Fields:          fields[0],
		Survivors:       m.members,
		Dropped:         m.dropped,
		Failovers:       failovers,
		EffectiveConfig: m.cfg,
		Degraded:        len(m.dropped) > 0 || len(failovers) > 0,
	}, nil
}

// membership is the member set a run assimilates. Without the resilience
// policy it is the whole ensemble; with it, every rank derives the same
// survivors from the agreement before the stage loop.
type membership struct {
	cfg     enkf.Config // effective configuration: cfg.N == len(members)
	members []int       // assimilated members, ascending
	pos     []int       // pos[k]: member k's survivor index (-1 when dropped)
	dropped []DroppedMember
}

// fullMembership is the whole ensemble under the unmodified configuration.
func fullMembership(cfg enkf.Config) *membership {
	m := &membership{cfg: cfg, members: make([]int, cfg.N), pos: make([]int, cfg.N)}
	for k := range m.pos {
		m.members[k], m.pos[k] = k, k
	}
	return m
}

// keep filters ks down to the assimilated members (ks itself when nothing
// was dropped).
func (m *membership) keep(ks []int) []int {
	if len(m.dropped) == 0 {
		return ks
	}
	out := make([]int, 0, len(ks))
	for _, k := range ks {
		if m.pos[k] >= 0 {
			out = append(out, k)
		}
	}
	return out
}

// agreeMembership is the world-wide failure-detection barrier: every rank
// contributes a drop-reason vector (only the designated reporter of each
// I/O group reports non-zero codes) and receives the identical sum, so all
// ranks derive the same survivor set without further communication.
func agreeMembership(comm *mpi.Comm, cfg enkf.Config, codes []float64) (*membership, error) {
	agreed, err := comm.AllreduceSum(codes)
	if err != nil {
		return nil, err
	}
	m := &membership{pos: make([]int, cfg.N)}
	for k := range m.pos {
		if code := int(agreed[k]); code != 0 {
			m.dropped = append(m.dropped, DroppedMember{Member: k, Reason: dropReasons[code]})
			m.pos[k] = -1
			continue
		}
		m.pos[k] = len(m.members)
		m.members = append(m.members, k)
	}
	if len(m.members) < minMembers {
		return nil, fmt.Errorf("core: only %d of %d members readable (%d dropped) — need at least %d",
			len(m.members), cfg.N, len(m.dropped), minMembers)
	}
	m.cfg = effectiveConfig(cfg, len(m.members))
	return m, nil
}

// openResilient opens I/O rank r's member files under the policy — retried
// within the plan's budget, through its read hook, checksum-verified — and
// joins the membership agreement with the failures classified. A reader
// dead before stage 0 opens nothing but still joins the agreement.
func openResilient(comm *mpi.Comm, p Problem, c *plan.Compiled, r plan.IORank, files map[int]*ensio.MemberFile) (*membership, error) {
	fp := p.Faults
	opts := ensio.OpenOptions{Retry: ensio.RetryPolicy{Attempts: fp.Budget()}, Hook: fp.EnsioHook(), Verify: true}
	deadFromStart := fp.DeadBeforeStage(r.Group, r.Row, 0)
	myCodes := make([]float64, p.Cfg.N)
	if !deadFromStart {
		for _, k := range r.Members {
			mf, err := ensio.OpenMemberOpts(ensio.MemberPath(p.Dir, k), opts)
			if err != nil {
				myCodes[k] = float64(classifyOpenError(err))
				continue
			}
			if err := mf.CheckGeometry(p.Cfg.Mesh.NX, p.Cfg.Mesh.NY, c.Spec.LevelCount(), k); err != nil {
				myCodes[k] = dropGeometry
				mf.Close()
				continue
			}
			files[k] = mf
		}
	}
	// Exactly one reader per group reports the group's codes — the first
	// reader alive at stage 0 (every rank derives the same choice from the
	// plan, so the sum is not multiplied by n_sdy).
	reporter := 0
	for fp.DeadBeforeStage(r.Group, reporter, 0) {
		reporter++
	}
	if r.Row != reporter {
		myCodes = make([]float64, p.Cfg.N)
	}
	m, err := agreeMembership(comm, p.Cfg, myCodes)
	if err != nil {
		return nil, err
	}
	for _, k := range m.keep(r.Members) {
		if files[k] == nil && !deadFromStart {
			return nil, fmt.Errorf("core: reader %s lost member %d agreed as a survivor", r.Name, k)
		}
	}
	return m, nil
}

// servedStages applies the failover rule to I/O rank r at stage l. A
// reader dead by then announces its death and reports !alive; a live one
// gets the stage plans of the rows it serves — its own, then each dead row
// it adopts from the group, read from the same member files and sent to
// that row's destinations.
func servedStages(p Problem, c *plan.Compiled, r plan.IORank, l int, t0 time.Time) (serve []plan.IOStage, alive bool) {
	fp, tr := p.Faults, p.Tr
	if fp.DeadBeforeStage(r.Group, r.Row, l) {
		if tr.Enabled() {
			tr.Instant(r.Name, trace.CatFault, "rank-death", time.Since(t0).Seconds(),
				trace.Arg{Key: trace.ArgStage, Val: float64(l)})
		}
		tr.Counters().Inc("faults.rank.deaths")
		return nil, false
	}
	rows, adopted := faults.Serving(r.Row, c.Spec.Dec.NSdy,
		func(j int) bool { return fp.DeadBeforeStage(r.Group, j, l) },
		func(j int) bool { return l > 0 && fp.DeadBeforeStage(r.Group, j, l-1) })
	for _, row := range adopted {
		tr.Counters().Inc("faults.failovers")
		if tr.Enabled() {
			tr.Instant(r.Name, trace.CatFault, "failover", time.Since(t0).Seconds(),
				trace.Arg{Key: "row", Val: float64(row)},
				trace.Arg{Key: trace.ArgStage, Val: float64(l)})
		}
	}
	serve = make([]plan.IOStage, len(rows))
	for i, row := range rows {
		serve[i] = c.IOAt(r.Group, row).Stages[l]
	}
	return serve, true
}

// announceDrops publishes the agreed member drops once, from world rank 0.
func announceDrops(p Problem, proc string, t0 time.Time, dropped []DroppedMember) {
	for _, d := range dropped {
		p.Tr.Counters().Inc("faults.members.dropped")
		if p.Tr.Enabled() {
			p.Tr.Instant(proc, trace.CatFault, "member-dropped", time.Since(t0).Seconds(),
				trace.Arg{Key: "member", Val: float64(d.Member)})
		}
	}
}

// effectiveConfig shrinks the ensemble to the survivors and scales the
// inflation so the analysis-spread loss from dropped members is
// compensated: deviations are multiplied by sqrt((N−1)/(N′−1)), the factor
// that restores the unbiased sample-variance normalisation.
func effectiveConfig(cfg enkf.Config, effN int) enkf.Config {
	out := cfg
	out.N = effN
	if effN < cfg.N {
		infl := cfg.Inflation
		if infl < 1 {
			infl = 1
		}
		out.Inflation = infl * math.Sqrt(float64(cfg.N-1)/float64(effN-1))
	}
	return out
}

// planFailovers derives the failover assignments from the plan — every
// rank could compute this, but only rank 0 needs it for the result.
func planFailovers(fp *faults.Plan, nsdy int) []Failover {
	if fp == nil {
		return nil
	}
	var out []Failover
	for _, d := range fp.Deaths {
		if d.At > 0 {
			continue
		}
		dead := func(jj int) bool { return fp.DeadBeforeStage(d.Group, jj, d.BeforeStage) }
		if s, ok := faults.Successor(d.Reader, nsdy, dead); ok {
			out = append(out, Failover{Group: d.Group, FromReader: d.Reader, ToReader: s, Stage: d.BeforeStage})
		}
	}
	return out
}
