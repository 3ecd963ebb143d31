// Package fleet is the placement layer above the per-cluster schedulers:
// it routes one global arrival stream across many simulated clusters, each
// running its own scheduling policy (a trained kernel network or a
// heuristic). The first decision for an arriving job is *which cluster
// gets it* — made by a Router, typically a filter/score plugin Pipeline
// mirroring the predicate/priority split of cluster placement schedulers —
// and only then does the chosen cluster's own policy decide *when it
// runs*. The fleet simulator time-synchronizes the member clusters against
// the global clock: every member is advanced to an arrival's submit
// instant before the placement decision reads its state, so routers see
// the load each cluster genuinely has at that moment.
package fleet

import (
	"fmt"
	"math"
	"sort"

	"rlsched/internal/job"
	"rlsched/internal/metrics"
	"rlsched/internal/obs"
	"rlsched/internal/sim"
)

// Candidate is one member cluster's state at a placement instant — the
// view Filter and Scorer plugins consume.
type Candidate struct {
	// The resource and load fields lead the struct so the capacity-filter
	// and load-scorer passes — which stride the fleet's contiguous
	// candidate store at every placement — touch as few cache lines per
	// candidate as possible.

	// View is the member's resource state.
	View sim.ClusterView
	// Pending is the full backlog length.
	Pending int
	// PendingWork is Σ requested_time·procs over the backlog;
	// RunningWork is the committed remaining work area of running jobs.
	PendingWork float64
	RunningWork float64
	// Now is the member's clock (the global placement instant). Routers
	// that never read it can declare the ClockFree capability.
	Now float64
	// Index is the member's position in the fleet.
	Index int
	// Name identifies the cluster in results and metrics.
	Name string
	// Visible is the member's scheduler-visible pending queue (FCFS order).
	Visible []*job.Job
	// Draining reports the member has been announced for drain (churn.go):
	// it still serves, but its capacity is leaving — churn-aware scorers
	// (AvoidDraining) steer new work elsewhere. A retired member never
	// appears feasible at all: its View is zeroed, so the capacity filter
	// rejects it everywhere.
	Draining bool
	// DrainTime is the announced retirement instant of a draining member
	// (the deadline the drain or failure fires at), 0 when none was
	// announced. Deadline-aware churn plugins (AvoidDraining) compare it
	// against Now to keep using the member for work that safely completes
	// before the capacity leaves.
	DrainTime float64
	// Evicting distinguishes the severity of an announced retirement:
	// true for a failure warning (running jobs will be killed at DrainTime,
	// losing their progress), false for a graceful drain (running jobs
	// finish; only pending work is re-placed). Churn plugins penalize work
	// on evicting members — placing on a graceful drainer costs at most a
	// cheap re-place.
	Evicting bool
	// Attrs are the member's static placement attributes (class, failure
	// domain, taints) consumed by the constraint plugins (constraints.go).
	Attrs MemberAttrs
}

// Router picks the cluster an arriving job is routed to, returning an
// index into cands or -1 when no cluster is feasible. Routers must be
// deterministic given their own construction (seed) and the call sequence.
type Router interface {
	Name() string
	Place(j *job.Job, cands []*Candidate) int
}

// ExplainingRouter is a Router that can also report the per-candidate
// evidence behind a decision — filter verdicts, normalized plugin scores,
// totals, tie-breaks — into an obs.Explain. Pipeline implements it; the
// unscored baselines (random, round-robin) do not, so their recorded
// decisions carry no candidate table.
type ExplainingRouter interface {
	Router
	// PlaceExplained is Place that additionally fills ex (and scores, when
	// non-nil) with the decision evidence. The pick must be identical to
	// Place for the same inputs.
	PlaceExplained(j *job.Job, cands []*Candidate, scores []float64, ex *obs.Explain) int
}

// MemberConfig declares one fleet member: a cluster configuration and the
// scheduling policy that orders its local queue.
type MemberConfig struct {
	Name      string
	Sim       sim.Config
	Scheduler sim.Scheduler
	// Attrs are the member's static placement attributes for constraint
	// plugins (constraints.go). The zero value is unconstrained.
	Attrs MemberAttrs
}

// member wraps a simulator driven through the incremental stepping
// surface. committed is the job the local policy has chosen and is
// waiting to start — exactly the job sim.Schedule would be blocking on.
// movedIn/movedOut count migration moves into and out of the member.
// doneCursor marks how much of the member's completion log has already
// been fed to stateful scorers.
type member struct {
	name       string
	cfg        sim.Config
	sim        *sim.Simulator
	sched      sim.Scheduler
	committed  *job.Job
	placements int
	movedIn    int
	movedOut   int
	doneCursor int
	// stamp versions the member's entry in the fleet event heap (heap.go):
	// entries pushed under an older stamp are stale.
	stamp uint64
	// syncs counts syncTo calls on this member — the step-counting hook
	// the idle-members regression test asserts on. Written by at most one
	// goroutine at a time (stepWake blocks are disjoint).
	syncs int
	// attrs are the member's static placement attributes (constraints.go).
	attrs MemberAttrs
	// state is the run-scoped churn lifecycle state (churn.go); gone marks
	// a permanently drained member (Fleet.Drain), which starts every run
	// retired; transient marks a member a ChurnPlan joined mid-run, removed
	// again at the next reset.
	state     memberState
	gone      bool
	transient bool
	// drainAt is the announced retirement instant while state is
	// stateDraining (run-scoped, mirrored into Candidate.DrainTime);
	// evicting marks the announcement as a failure warning (running jobs
	// die at drainAt) rather than a graceful drain.
	drainAt  float64
	evicting bool
}

// pump applies local scheduling decisions at the current instant without
// advancing time: pick (when uncommitted), start when possible, backfill
// while the committed job waits. Together with the event loop in syncTo
// this reproduces sim.Run's semantics exactly — the single-member parity
// test pins that equivalence.
func (m *member) pump() error {
	for {
		if m.committed == nil {
			vis := m.sim.Visible()
			if len(vis) == 0 {
				return nil
			}
			idx := m.sched.Pick(vis, m.sim.Now(), m.sim.View())
			if idx < 0 || idx >= len(vis) {
				idx = 0
			}
			m.committed = vis[idx]
		}
		if m.sim.CanStartNow(m.committed) {
			if err := m.sim.StartNow(m.committed); err != nil {
				return fmt.Errorf("fleet: %s: %w", m.name, err)
			}
			m.committed = nil
			continue
		}
		m.sim.BackfillNow(m.committed)
		if !m.sim.CanStartNow(m.committed) {
			return nil
		}
	}
}

// syncTo advances the member to global time t, applying scheduling
// decisions at every internal event (completions) on the way.
func (m *member) syncTo(t float64) error {
	for {
		if err := m.pump(); err != nil {
			return err
		}
		et, ok := m.sim.NextEventTime()
		if !ok || et > t {
			break
		}
		m.sim.AdvanceClock(et)
	}
	m.sim.AdvanceClock(t)
	return m.pump()
}

// Fleet routes a job stream across member clusters.
type Fleet struct {
	members []*member
	router  Router
	cands   []*Candidate
	migCfg  *MigrationConfig
	// samCfg enables periodic health sampling (sample.go; nil = off, the
	// zero-cost default).
	samCfg *SamplingConfig
	// stateful lists the router's StateScorers (empty for stateless
	// routers): reset per run and fed member completions before every
	// placement and re-placement decision.
	stateful []StateScorer
	// assignObs lists the router's AssignObservers (constraints.go), fed
	// every successful routing decision; empty for almost all routers.
	assignObs []AssignObserver
	// churnPlan schedules mid-run membership changes (churn.go; nil = off,
	// the zero-cost default); baseN is the permanent member count runs
	// reset to (mid-run joins are transient); lastChurn retains the most
	// recent run's churn controller for white-box tests.
	churnPlan ChurnPlan
	baseN     int
	lastChurn *churner
	// lastMig retains the most recent run's migration controller state for
	// white-box invariant tests.
	lastMig *migrator
	// rec is the attached observability recorder (nil = disabled); explain
	// and placeEvt are its reused emission buffers.
	rec      obs.Recorder
	explain  obs.Explain
	placeEvt obs.PlacementDecision

	// Event-heap stepping state (heap.go). candStore is the contiguous
	// backing array of cands; sims mirrors members for pointer-chase-free
	// hot loops; active[i] records whether member i holds allocations.
	// fullSweep selects the pre-heap reference path (set by tests only;
	// see heap.go) and workers the parallel-stepping width (parallel.go).
	fullSweep bool
	workers   int
	// clockFree records that the router declared (via the ClockFree
	// capability) that it never reads Candidate.Now, letting candidatesAt
	// skip the fleet-wide clock refresh.
	clockFree bool
	events    eventHeap
	wake      []int
	sims      []*sim.Simulator
	candStore []Candidate
	active    []bool
	dirtyFlag []bool
	dirtyList []int
	obsFlag   []bool
	obsList   []int
}

// New assembles a fleet. Members must have distinct names.
func New(members []MemberConfig, router Router) (*Fleet, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("fleet: need at least one member")
	}
	if router == nil {
		return nil, fmt.Errorf("fleet: need a router")
	}
	f := &Fleet{router: router}
	seen := map[string]bool{}
	for i, mc := range members {
		if mc.Name == "" {
			mc.Name = fmt.Sprintf("cluster-%d", i)
		}
		if seen[mc.Name] {
			return nil, fmt.Errorf("fleet: duplicate member name %q", mc.Name)
		}
		seen[mc.Name] = true
		if mc.Scheduler == nil {
			return nil, fmt.Errorf("fleet: member %q needs a scheduler", mc.Name)
		}
		f.members = append(f.members, &member{
			name:  mc.Name,
			cfg:   mc.Sim,
			sim:   sim.New(mc.Sim),
			sched: mc.Scheduler,
			attrs: mc.Attrs,
		})
	}
	n := len(f.members)
	f.baseN = n
	f.candStore = make([]Candidate, n)
	f.sims = make([]*sim.Simulator, n)
	f.active = make([]bool, n)
	f.dirtyFlag = make([]bool, n)
	f.obsFlag = make([]bool, n)
	for i, m := range f.members {
		f.candStore[i] = Candidate{Index: i, Name: m.name, Attrs: m.attrs}
		f.cands = append(f.cands, &f.candStore[i])
		f.sims[i] = m.sim
	}
	if sp, ok := router.(interface{ StateScorers() []StateScorer }); ok {
		f.stateful = sp.StateScorers()
	}
	if ap, ok := router.(interface{ AssignObservers() []AssignObserver }); ok {
		f.assignObs = ap.AssignObservers()
	}
	if cf, ok := router.(ClockFree); ok && cf.ClockFree() {
		f.clockFree = true
	}
	return f, nil
}

// EnableMigration turns on cross-cluster re-placement of pending jobs for
// subsequent Runs (see migrate.go and DESIGN.md §7). The fleet's router
// must be a ScoredRouter — migration needs score margins, not just picks.
func (f *Fleet) EnableMigration(cfg MigrationConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if _, ok := f.router.(ScoredRouter); !ok {
		return fmt.Errorf("fleet: router %s cannot drive migration (no per-candidate scores)",
			f.router.Name())
	}
	f.migCfg = &cfg
	return nil
}

// SetRecorder attaches an observability recorder to subsequent Runs (nil
// detaches): the fleet emits one obs.PlacementDecision per routed job
// (with the full per-plugin score table when the router is an
// ExplainingRouter), the migration controller emits one obs.MigrationProbe
// per considered job, stateful fairness scorers emit obs.FairnessSnapshots
// before each decision, and every member simulator emits cluster-tagged
// job lifecycle events. Recording is strictly passive: run results are
// byte-identical with and without a recorder (pinned by parity tests).
func (f *Fleet) SetRecorder(r obs.Recorder) {
	f.rec = r
	for _, m := range f.members {
		m.sim.SetRecorder(r, m.name)
	}
}

// fairReporter is the optional aggregate-report surface of a stateful
// scorer (FairnessScorer implements it); recorded runs snapshot it before
// every placement decision.
type fairReporter interface {
	Report() metrics.FairnessReport
}

// placeRecorded is the traced twin of `f.router.Place(j, cands)`: same
// pick, plus one FairnessSnapshot per reporting stateful scorer and one
// PlacementDecision into the recorder.
func (f *Fleet) placeRecorded(j *job.Job, cands []*Candidate) int {
	for _, s := range f.stateful {
		if fr, ok := s.(fairReporter); ok {
			snap := obs.FairnessSnapshot{Time: j.SubmitTime, Report: fr.Report()}
			f.rec.Fairness(&snap)
		}
	}
	d := &f.placeEvt
	*d = obs.PlacementDecision{
		Time:   j.SubmitTime,
		Router: f.router.Name(),
		Job:    obs.Ref(j),
	}
	var k int
	if er, ok := f.router.(ExplainingRouter); ok {
		k = er.PlaceExplained(j, cands, nil, &f.explain)
		d.TieBreak = f.explain.TieBreak
		d.Candidates = f.explain.Candidates
	} else {
		k = f.router.Place(j, cands)
	}
	d.Winner = k
	if k >= 0 && k < len(f.members) {
		d.Cluster = f.members[k].name
	}
	f.rec.Placement(d)
	return k
}

// reset returns every member to an idle cluster at t=0 and clears all
// stateful-scorer and event-heap state (a Fleet is reusable across Runs).
// Members a ChurnPlan joined mid-run are transient and dropped here (the
// per-member arrays shrink back to the permanent prefix, so the cached
// candidate pointers stay valid); permanently drained members (Drain)
// start the run retired.
func (f *Fleet) reset() error {
	f.events = f.events[:0]
	f.wake = f.wake[:0]
	f.dirtyList = f.dirtyList[:0]
	f.obsList = f.obsList[:0]
	if len(f.members) > f.baseN {
		f.members = f.members[:f.baseN]
		f.candStore = f.candStore[:f.baseN]
		f.cands = f.cands[:f.baseN]
		f.sims = f.sims[:f.baseN]
		f.active = f.active[:f.baseN]
		f.dirtyFlag = f.dirtyFlag[:f.baseN]
		f.obsFlag = f.obsFlag[:f.baseN]
	}
	for i, m := range f.members {
		m.state = stateActive
		m.drainAt = 0
		m.evicting = false
		if m.gone {
			m.state = stateRetired
		}
		if err := m.sim.Load(nil); err != nil {
			return err
		}
		m.committed = nil
		m.placements = 0
		m.movedIn = 0
		m.movedOut = 0
		m.doneCursor = 0
		m.stamp++
		m.syncs = 0
		f.active[i] = false
		f.obsFlag[i] = false
		f.dirtyFlag[i] = false
		f.markDirty(i)
	}
	for _, s := range f.stateful {
		s.Reset()
	}
	return nil
}

// observeCompletions feeds every completion since the last call to the
// stateful scorers, members in index order, each member's completions in
// completion order — a deterministic stream, so stateful placement is
// reproducible run-to-run. Only members marked observation-pending
// (markObs — the ones an advance actually woke) are read: a member no
// event touched cannot have new completions, so the stream is identical
// to scanning the whole fleet.
func (f *Fleet) observeCompletions() {
	if len(f.stateful) == 0 || len(f.obsList) == 0 {
		return
	}
	sort.Ints(f.obsList)
	for _, i := range f.obsList {
		m := f.members[i]
		log := m.sim.Completions()
		for _, j := range log[m.doneCursor:] {
			for _, s := range f.stateful {
				s.Observe(i, j)
			}
		}
		m.doneCursor = len(log)
		f.obsFlag[i] = false
	}
	f.obsList = f.obsList[:0]
}

// ClusterResult is one member's share of a fleet run.
type ClusterResult struct {
	// Name and Processors identify the member.
	Name       string
	Processors int
	// Placements counts the jobs the router assigned here at arrival.
	Placements int
	// MovedIn / MovedOut count cross-cluster moves into and out of the
	// member: migration-sweep moves plus churn-forced re-placements
	// (zero when both migration and churn are disabled).
	MovedIn  int
	MovedOut int
	// Result is the member's scheduling result; its migration fields
	// cover the migrated jobs that finally ran here.
	Result metrics.Result
}

// Result is a finished fleet run: per-cluster results plus the fleet-wide
// merge and the per-job routing decisions.
type Result struct {
	Clusters []ClusterResult
	// Fleet merges the member results (metrics.Merge): job-averaged
	// metrics span every job; utilization is processor-weighted.
	Fleet metrics.Result
	// Assignments[i] is the member index stream job i was routed to.
	Assignments []int
	// Churn summarizes the membership changes the run executed (zero
	// without a churn plan).
	Churn ChurnStats
}

// Run routes the submit-ordered stream across the fleet and schedules
// every member to completion. The stream's jobs are owned by the run
// (pass freshly cloned windows, e.g. trace.Window). Placement is strictly
// serial in arrival order, so results are deterministic for deterministic
// routers and member policies regardless of how the surrounding code is
// parallelized. Every run takes one event loop: the timed hooks —
// migration sweeps (EnableMigration), health samples (EnableSampling) and
// churn actions (EnableChurn) — fire in global-time order between
// arrivals and keep firing while the backlog drains; a disabled hook is a
// nil that costs an arrival one compare.
func (f *Fleet) Run(stream []*job.Job) (*Result, error) {
	if len(stream) == 0 {
		return nil, fmt.Errorf("fleet: empty stream")
	}
	if err := f.reset(); err != nil {
		return nil, err
	}
	var mig *migrator
	if f.migCfg != nil {
		mig = newMigrator(*f.migCfg, f.router.(ScoredRouter), stream[0].SubmitTime)
		mig.rec = f.rec
	}
	f.lastMig = mig
	var sam *sampler
	if f.samCfg != nil {
		sam = f.newSampler(stream[0].SubmitTime)
	}
	var ch *churner
	if f.churnPlan != nil {
		ch = newChurner(f.churnPlan)
	}
	f.lastChurn = ch
	assignments := make([]int, len(stream))
	prev := stream[0].SubmitTime
	for i, j := range stream {
		if j.SubmitTime < prev {
			return nil, fmt.Errorf("fleet: stream job %d out of submit order", i)
		}
		prev = j.SubmitTime
		// Guard inline: most arrivals fall between hooks (a hook-free run
		// has none), and should cost only these compares.
		if hooksDue(mig, sam, ch, j.SubmitTime) {
			if err := f.hooksUntil(mig, sam, ch, j.SubmitTime); err != nil {
				return nil, err
			}
		}
		if err := f.advanceMembers(j.SubmitTime); err != nil {
			return nil, err
		}
		f.observeCompletions()
		k, err := f.route(j, j.SubmitTime, "route")
		if err != nil {
			return nil, err
		}
		if k < 0 {
			// Run has no fleet-level holding queue: a router that
			// declines a job (capacity, or a transient condition like a
			// BacklogFilter with every queue full) aborts the run.
			// Admission control belongs to the caller — the serving
			// /place endpoint answers 422 and keeps going.
			return nil, fmt.Errorf("fleet: router %s declined job %d (%d procs): no feasible cluster at placement time",
				f.router.Name(), j.ID, j.RequestedProcs)
		}
		f.members[k].placements++
		assignments[i] = k
	}
	if err := f.drainHooked(mig, sam, ch); err != nil {
		return nil, err
	}
	res := &Result{Assignments: assignments}
	// Utilization must be measured over one shared fleet horizon: a
	// member whose first routed job arrives late (or that runs dry
	// early) would otherwise report its busy fraction over a shorter
	// private window and bias the processor-weighted merge. The horizon
	// ends at the latest of the last arrival, the last completion on any
	// member and the last churn action fired — read off the run's state,
	// not off the loop step that processed them, so a completion landing
	// on a hook instant counts and a sample tick's passive clock moves
	// never do.
	start, end := stream[0].SubmitTime, prev
	for _, m := range f.members {
		if done := m.sim.Completions(); len(done) > 0 {
			end = math.Max(end, done[len(done)-1].EndTime)
		}
	}
	if ch != nil && ch.next > 0 {
		end = math.Max(end, ch.actions[ch.next-1].t)
	}
	if sam != nil {
		// Close every trajectory at the shared fleet horizon (a pure
		// read: the clock moves it performs are the same ones the final
		// pass below does anyway).
		sam.finalSample(f, end, mig)
	}
	results := make([]metrics.Result, len(f.members))
	procs := make([]int, len(f.members))
	for i, m := range f.members {
		m.sim.AdvanceClock(end)
		results[i] = m.sim.Result()
		results[i].Utilization = m.sim.UtilizationOver(start, end)
		procs[i] = m.cfg.Processors
		if m.gone {
			// A permanently drained member advertised no capacity this
			// run; weighting its idle processors into the merge would
			// deflate fleet utilization below what the serving capacity
			// actually delivered.
			procs[i] = 0
		}
	}
	if mig != nil {
		mig.fillMigrationMetrics(results)
	}
	for i, m := range f.members {
		res.Clusters = append(res.Clusters, ClusterResult{
			Name:       m.name,
			Processors: m.cfg.Processors,
			Placements: m.placements,
			MovedIn:    m.movedIn,
			MovedOut:   m.movedOut,
			Result:     results[i],
		})
	}
	res.Fleet = metrics.Merge(results, procs)
	if ch != nil {
		res.Churn = ChurnStats{Joins: ch.joins, Drains: ch.drains, Fails: ch.fails, Forced: ch.forced}
	}
	return res, nil
}

// route is the placement step arrivals and churn re-placements share: ask
// the router at global time t, then submit j to the pick. It returns -1
// without an error when the router declined j or picked a retired member
// (unreachable for well-formed routers — a retired member's zeroed View
// fails the capacity filter — but custom routers may ignore candidate
// state); the caller words that error. verb prefixes a Submit failure.
func (f *Fleet) route(j *job.Job, t float64, verb string) (int, error) {
	cands := f.candidatesAt(t)
	var k int
	if f.rec != nil {
		k = f.placeRecorded(j, cands)
	} else {
		k = f.router.Place(j, cands)
	}
	if k < 0 || k >= len(f.members) || f.members[k].state == stateRetired {
		return -1, nil
	}
	m := f.members[k]
	// The picked member may not have been woken: bring its clock to t
	// first. It has no events due (those woke it), so this fires nothing,
	// and a pre-submit pump would be a no-op at fixpoint — Submit is the
	// state change.
	m.sim.AdvanceClock(t)
	if err := m.sim.Submit(j); err != nil {
		return -1, fmt.Errorf("fleet: %s to %s: %w", verb, m.name, err)
	}
	f.observeAssign(k, j)
	if err := m.pump(); err != nil {
		return -1, err
	}
	f.markDirty(k)
	f.touch(k)
	return k, nil
}

// hooksDue reports whether a churn action, migration sweep or sample tick
// is due at or before t. Small enough to inline: a disabled hook is a nil
// compare.
func hooksDue(mig *migrator, sam *sampler, ch *churner, t float64) bool {
	return (mig != nil && mig.nextSweep <= t) || (sam != nil && sam.next <= t) || ch.due(t)
}

// hooksUntil fires, in global-time order, every churn action, migration
// sweep and sample tick due at or before t, each after advancing the fleet
// to its instant. At equal instants churn fires first (sweeps and samples
// see the post-churn fleet), then the sweep (samples see post-sweep
// state).
func (f *Fleet) hooksUntil(mig *migrator, sam *sampler, ch *churner, t float64) error {
	for {
		churnDue := ch.due(t)
		sweepDue := mig != nil && mig.nextSweep <= t
		sampleDue := sam != nil && sam.next <= t
		switch {
		case churnDue && (!sweepDue || ch.nextT() <= mig.nextSweep) &&
			(!sampleDue || ch.nextT() <= sam.next):
			if err := f.churnStep(ch, mig, sam); err != nil {
				return err
			}
		case sweepDue && (!sampleDue || mig.nextSweep <= sam.next):
			if err := f.advanceMembers(mig.nextSweep); err != nil {
				return err
			}
			if err := f.sweep(mig, mig.nextSweep); err != nil {
				return err
			}
			mig.nextSweep += mig.cfg.Interval
		case sampleDue:
			if err := f.advanceMembers(sam.next); err != nil {
				return err
			}
			sam.sample(f, sam.next, mig)
			sam.next += sam.cfg.Interval
		default:
			return nil
		}
	}
}

// drainHooked runs every member to completion after the last arrival,
// keeping the fleet time-synchronized so the hooks keep firing while
// backlogs drain. Each step takes the next member event off the heap (or,
// once no member has one, the next churn action) and fires the hooks due
// by then; a hook can retire events (a failure evicts) or create them (a
// move starts a job), so the step then re-peeks instead of advancing, and
// the fleet advances only to an event no hook precedes.
func (f *Fleet) drainHooked(mig *migrator, sam *sampler, ch *churner) error {
	for {
		next, any := f.nextFleetEvent()
		if !any {
			if !ch.due(math.Inf(1)) {
				break
			}
			next = ch.nextT()
		}
		if hooksDue(mig, sam, ch, next) {
			if err := f.hooksUntil(mig, sam, ch, next); err != nil {
				return err
			}
			continue
		}
		if err := f.advanceMembers(next); err != nil {
			return err
		}
	}
	for _, m := range f.members {
		if err := m.pump(); err != nil {
			return err
		}
		if m.committed != nil {
			return fmt.Errorf("fleet: %s: job %d (%d procs) can never start",
				m.name, m.committed.ID, m.committed.RequestedProcs)
		}
	}
	return nil
}
