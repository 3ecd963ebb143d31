package fleet

import (
	"fmt"
	"math"
	"sort"

	"rlsched/internal/job"
	"rlsched/internal/sim"
)

// Cluster churn (DESIGN.md §12): fleet membership changes while a run is
// in flight. A ChurnPlan schedules joins, drains and failures at global
// simulation instants; the actions are one more timed hook of Run's single
// event loop, beside migration sweeps and sampling ticks (hooksUntil fires
// hooks in global-time order, churn first at ties), so churned runs stay
// exactly as deterministic as static ones. The member state machine is
//
//	active ──announce──▶ draining ──drain──▶ retired
//	active ───────────────fail─────────────▶ retired
//
// A draining member still serves — its backlog keeps scheduling and
// placement may still target it (churn-aware routers steer away via
// Candidate.Draining) — until the drain instant, when its pending backlog
// is withdrawn and re-placed through the normal router path and the member
// retires. Retirement is advertised as zero capacity (the candidate's View
// is zeroed), which every router's capacity predicate rejects on all code
// paths: the fast filter pass, the generic filter loop, the unscored
// baselines, and migration (a NaN-scored incumbent always loses). A
// drained member's running jobs finish — capacity leaves gracefully; a
// failed member's running jobs are evicted mid-flight (sim.EvictRunning)
// and re-placed along with its backlog.

// ChurnKind enumerates the cluster-churn event types of a ChurnPlan.
type ChurnKind int

// Churn event kinds: a member joining the fleet, draining out of it with
// notice, or failing without any.
const (
	// ChurnJoin adds Member to the fleet at Time. The new member starts
	// idle at the current global clock and is immediately placeable.
	ChurnJoin ChurnKind = iota
	// ChurnDrain retires the named member at Time: its pending backlog is
	// withdrawn and re-placed, running jobs finish where they are. A
	// positive Notice marks the member draining (Candidate.Draining) from
	// Time−Notice on, giving churn-aware routers time to steer away.
	ChurnDrain
	// ChurnFail kills the named member at Time: pending AND running jobs
	// are withdrawn (running ones evicted mid-flight, losing all progress)
	// and re-placed. A positive Notice marks the member draining from
	// Time−Notice on — a reclamation warning; work started there inside the
	// window is still lost at Time.
	ChurnFail
)

// String names the kind.
func (k ChurnKind) String() string {
	switch k {
	case ChurnJoin:
		return "join"
	case ChurnDrain:
		return "drain"
	case ChurnFail:
		return "fail"
	}
	return "unknown"
}

// ChurnEvent is one scheduled membership change.
type ChurnEvent struct {
	// Time is the global simulation instant the change takes effect.
	Time float64
	// Kind selects the change.
	Kind ChurnKind
	// Member is the configuration of the joining member (ChurnJoin only).
	Member MemberConfig
	// Name is the target member (ChurnDrain / ChurnFail only).
	Name string
	// Notice is the drain announcement lead time: the member is marked
	// draining from Time−Notice on (ChurnDrain only; 0 = no notice).
	Notice float64
}

// ChurnPlan is a set of scheduled membership changes, applied by every
// subsequent Run. Events may be listed in any order; execution is sorted
// by instant (announcements at Time−Notice), with the plan order breaking
// ties deterministically.
type ChurnPlan []ChurnEvent

// validate rejects structurally bad plans up front; name resolution
// happens at fire time (a drain may target a member a join adds).
func (p ChurnPlan) validate() error {
	for i, ev := range p {
		if math.IsNaN(ev.Time) || math.IsInf(ev.Time, 0) {
			return fmt.Errorf("fleet: churn event %d: non-finite time %g", i, ev.Time)
		}
		switch ev.Kind {
		case ChurnJoin:
			if err := ev.Member.validate(); err != nil {
				return fmt.Errorf("fleet: churn event %d: join %w", i, err)
			}
		case ChurnDrain:
			if ev.Name == "" {
				return fmt.Errorf("fleet: churn event %d: drain needs a target name", i)
			}
			if !(ev.Notice >= 0) {
				return fmt.Errorf("fleet: churn event %d: drain notice must be non-negative, got %g", i, ev.Notice)
			}
		case ChurnFail:
			if ev.Name == "" {
				return fmt.Errorf("fleet: churn event %d: fail needs a target name", i)
			}
			if !(ev.Notice >= 0) {
				return fmt.Errorf("fleet: churn event %d: fail notice must be non-negative, got %g", i, ev.Notice)
			}
		default:
			return fmt.Errorf("fleet: churn event %d: unknown kind %d", i, ev.Kind)
		}
	}
	return nil
}

// EnableChurn installs a churn plan for subsequent Runs (nil removes it).
// The plan is re-executed from the start by every Run; a Fleet stays
// reusable. A run without a plan has no churn hook to fire (removing a
// plan is pinned byte-identical to never setting one).
func (f *Fleet) EnableChurn(plan ChurnPlan) error {
	if plan == nil {
		f.churnPlan = nil
		return nil
	}
	if err := plan.validate(); err != nil {
		return err
	}
	f.churnPlan = plan
	return nil
}

// memberState is the run-scoped lifecycle state of a member (see the
// state machine at the top of this file).
type memberState uint8

const (
	stateActive memberState = iota
	stateDraining
	stateRetired
)

// churn action kinds, in fire order at equal instants (announcements
// before effects by construction: an announcement's instant is strictly
// earlier unless Notice is 0, in which case plan order rules).
const (
	actAnnounce = iota
	actJoin
	actDrain
	actFail
)

// churnAction is one flattened plan step: a ChurnDrain with notice
// contributes two (announce at Time−Notice, drain at Time).
type churnAction struct {
	t    float64
	kind int
	ev   *ChurnEvent
}

// churner is the run-scoped churn state: the flattened, time-sorted
// action list and a cursor. One is built per Run.
type churner struct {
	actions []churnAction
	next    int
	// forced counts jobs withdrawn and re-placed by drains and failures;
	// joins/drains/fails count executed transitions. White-box hooks for
	// tests and the churn experiment.
	forced int
	joins  int
	drains int
	fails  int
}

// newChurner flattens and sorts the plan.
func newChurner(plan ChurnPlan) *churner {
	ch := &churner{}
	for i := range plan {
		ev := &plan[i]
		switch ev.Kind {
		case ChurnJoin:
			ch.actions = append(ch.actions, churnAction{t: ev.Time, kind: actJoin, ev: ev})
		case ChurnDrain:
			if ev.Notice > 0 {
				ch.actions = append(ch.actions, churnAction{t: ev.Time - ev.Notice, kind: actAnnounce, ev: ev})
			}
			ch.actions = append(ch.actions, churnAction{t: ev.Time, kind: actDrain, ev: ev})
		case ChurnFail:
			if ev.Notice > 0 {
				ch.actions = append(ch.actions, churnAction{t: ev.Time - ev.Notice, kind: actAnnounce, ev: ev})
			}
			ch.actions = append(ch.actions, churnAction{t: ev.Time, kind: actFail, ev: ev})
		}
	}
	sort.SliceStable(ch.actions, func(i, k int) bool { return ch.actions[i].t < ch.actions[k].t })
	return ch
}

// due reports whether an action fires at or before t.
func (ch *churner) due(t float64) bool {
	return ch != nil && ch.next < len(ch.actions) && ch.actions[ch.next].t <= t
}

// nextT is the next action's instant (only valid while actions remain).
func (ch *churner) nextT() float64 { return ch.actions[ch.next].t }

// findMember resolves a member name to its index (-1 when absent).
func (f *Fleet) findMember(name string) int {
	for i, m := range f.members {
		if m.name == name {
			return i
		}
	}
	return -1
}

// appendMember grows every per-member array of the fleet by one. The
// candidate store append may reallocate, so the cached candidate pointers
// are rebuilt — they must stay aimed at the live backing array.
func (f *Fleet) appendMember(mc MemberConfig, now float64) error {
	if f.findMember(mc.Name) >= 0 {
		return fmt.Errorf("fleet: duplicate member name %q", mc.Name)
	}
	m := &member{
		name:   mc.Name,
		cfg:    mc.Sim,
		sim:    sim.New(mc.Sim),
		sched:  mc.Scheduler,
		joinAt: now,
	}
	if f.rec != nil {
		m.sim.SetRecorder(f.rec, m.name)
	}
	m.sim.AdvanceClock(now)
	i := len(f.members)
	f.members = append(f.members, m)
	f.candStore = append(f.candStore, Candidate{Index: i, Name: m.name})
	f.cands = f.cands[:0]
	for k := range f.candStore {
		f.cands = append(f.cands, &f.candStore[k])
	}
	f.sims = append(f.sims, m.sim)
	f.active = append(f.active, false)
	f.dirtyFlag = append(f.dirtyFlag, false)
	f.obsFlag = append(f.obsFlag, false)
	f.markDirty(i)
	return nil
}

// churnStep fires the next due action: advance the fleet to its instant,
// then apply the membership change. Withdrawn jobs are re-placed through
// the normal router path immediately, in (SubmitTime, ID) order.
func (f *Fleet) churnStep(ch *churner, mig *migrator, sam *sampler) error {
	a := ch.actions[ch.next]
	ch.next++
	now := a.t
	f.advanceMembers(now)
	switch a.kind {
	case actAnnounce:
		i := f.findMember(a.ev.Name)
		if i < 0 {
			return fmt.Errorf("fleet: churn: no member named %q to drain", a.ev.Name)
		}
		m := f.members[i]
		if m.state == stateRetired {
			return fmt.Errorf("fleet: churn: member %q already retired at drain notice", a.ev.Name)
		}
		m.state = stateDraining
		m.drainAt = a.ev.Time
		m.evicting = a.ev.Kind == ChurnFail
		f.markDirty(i)
		return nil
	case actJoin:
		if err := f.appendMember(a.ev.Member, now); err != nil {
			return err
		}
		if sam != nil {
			sam.addMember(f.members[len(f.members)-1].name)
		}
		ch.joins++
		return nil
	case actDrain, actFail:
		i := f.findMember(a.ev.Name)
		if i < 0 {
			return fmt.Errorf("fleet: churn: no member named %q to remove", a.ev.Name)
		}
		if f.members[i].state == stateRetired {
			return fmt.Errorf("fleet: churn: member %q already retired", a.ev.Name)
		}
		forced, err := f.retireMember(i, a.kind == actFail, sam, now)
		if err != nil {
			return err
		}
		ch.forced += forced
		if a.kind == actFail {
			ch.fails++
		} else {
			ch.drains++
		}
		return nil
	}
	return fmt.Errorf("fleet: churn: unknown action kind %d", a.kind)
}

// retireMember takes member i out of service at the current instant: the
// entire pending backlog (not just the scheduler-visible window) is
// withdrawn, a failure additionally evicts the running jobs, per-cluster
// scorer state and sampling series for the member are retired, and every
// withdrawn job is re-placed through route, the step arrivals take,
// counted in the members' MovedOut/MovedIn. Returns the number of jobs
// force-moved.
func (f *Fleet) retireMember(i int, fail bool, sam *sampler, now float64) (int, error) {
	m := f.members[i]
	// Settle the member's clock at the churn instant first: heap stepping
	// only advances members with events due, so a quiet member's busy-time
	// integral may lag here — and an eviction below would then drop the
	// cycles its running jobs burned between its last event and the
	// failure. Members with events at or before now were already synced by
	// advanceMembers, so this is a pure clock move on every path.
	m.sim.AdvanceClock(now)
	var moved []*job.Job
	if pend := m.sim.PendingJobs(); len(pend) > 0 {
		// Copy before withdrawing: PendingJobs aliases the live queue.
		// Withdrawing the committed pick clears it.
		moved = append(make([]*job.Job, 0, len(pend)), pend...)
		for _, j := range moved {
			if _, err := m.sim.Withdraw(j.ID); err != nil {
				return 0, fmt.Errorf("fleet: churn: withdraw from %s: %w", m.name, err)
			}
		}
	}
	if fail {
		moved = append(moved, m.sim.EvictRunning()...)
	}
	m.state = stateRetired
	m.retireAt = now
	for _, s := range f.stateful {
		if cr, ok := s.(ClusterRetirer); ok {
			cr.RetireCluster(i)
		}
	}
	if sam != nil {
		sam.retire(i)
	}
	f.markDirty(i)
	f.touch(i)
	if len(moved) == 0 {
		return 0, nil
	}
	sort.Slice(moved, func(a, b int) bool {
		x, y := moved[a], moved[b]
		return x.SubmitTime < y.SubmitTime ||
			(x.SubmitTime == y.SubmitTime && x.ID < y.ID)
	})
	// Stateful scorers see every completion up to the churn instant before
	// the first forced re-placement is scored (mirrors migration sweeps).
	f.observeCompletions()
	for _, j := range moved {
		k, err := f.route(j, now, "churn: re-place")
		if err != nil {
			return 0, err
		}
		if k < 0 {
			return 0, fmt.Errorf("fleet: churn: router %s cannot re-place job %d (%d procs) off %s: no feasible cluster",
				f.router.Name(), j.ID, j.RequestedProcs, m.name)
		}
		m.movedOut++
		f.members[k].movedIn++
	}
	return len(moved), nil
}

// AvoidDraining is the churn-aware, deadline-aware Score plugin. It
// weighs what the announced retirement will actually destroy:
//
//   - A graceful drain (Evicting false) destroys nothing — running jobs
//     finish, pending work is re-placed with its submit order intact — so
//     the plugin expresses no preference and the ordering stays the load
//     scorer's. Blanket drain avoidance would idle the drainer's whole
//     capacity for the notice window and buy nothing.
//   - A failure warning (Evicting true) kills running jobs at DrainTime,
//     so the plugin penalizes the member for every job that cannot safely
//     complete first. A job the member can start immediately (free
//     processors, empty queue) whose requested time fits inside the
//     remaining window still runs there for free; everything else risks
//     losing its progress and steers away.
//
// Compose it with a load scorer (ChurnAwarePipeline) — as a soft penalty
// it still lets the doomed member take unsafe work when every healthy
// alternative is markedly more loaded (taking the eviction risk beats
// queueing behind a burst). A Draining+Evicting candidate without a
// DrainTime is treated as unsafe for everything.
type AvoidDraining struct{}

// Name implements Scorer.
func (AvoidDraining) Name() string { return "avoid-draining" }

// Score implements Scorer.
func (AvoidDraining) Score(j *job.Job, cands []*Candidate, out []float64) {
	for i, c := range cands {
		if c.Draining && c.Evicting && !safeOnDrainer(j, c) {
			out[i] = -1
		} else {
			out[i] = 0
		}
	}
}

// safeOnDrainer reports whether the job would start immediately on the
// draining candidate and finish before its announced retirement.
func safeOnDrainer(j *job.Job, c *Candidate) bool {
	return StartsNow(c, j) && c.DrainTime > 0 && c.Now+j.RequestedTime <= c.DrainTime
}

// ChurnAwarePipeline spreads by committed work like LeastLoadedPipeline
// but steers unsafe placements off evicting members: with no failure
// announced the drain plugin is constant (contributing nothing — the
// ordering is exactly least-loaded's), and under a warning its half
// weight outbids moderate load differences while still conceding when the
// doomed member's least-loaded advantage over every healthy alternative
// exceeds it (the relief valve: under a burst, risking eviction beats
// queueing). The pipeline reads Candidate.Now (the deadline check), so it
// does not declare ClockFree.
func ChurnAwarePipeline() *Pipeline {
	return NewPipeline("churn-aware",
		[]Filter{CapacityFilter{}},
		[]WeightedScorer{{LeastLoaded{}, 1}, {AvoidDraining{}, 0.5}})
}

// ChurnStats summarizes the churn a run executed: counts of membership
// transitions and of the jobs force-moved off drained or failed members.
// Zero-valued for runs without a churn plan.
type ChurnStats struct {
	// Joins, Drains and Fails count executed membership transitions.
	Joins, Drains, Fails int
	// Forced counts the jobs withdrawn and re-placed by drains and fails.
	Forced int
}

// ClusterRetirer is the optional capability of stateful scorers that keep
// per-cluster state: the fleet calls RetireCluster when a member retires
// mid-run (ChurnDrain/ChurnFail), so stale per-member shares cannot bias
// later decisions against a member that no longer exists.
type ClusterRetirer interface {
	// RetireCluster drops all state keyed to the member index.
	RetireCluster(cluster int)
}
