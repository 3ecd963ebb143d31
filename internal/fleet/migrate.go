package fleet

import (
	"fmt"
	"math"

	"rlsched/internal/job"
	"rlsched/internal/metrics"
	"rlsched/internal/obs"
)

// Cross-cluster job migration (DESIGN.md §7): the placement decision made
// at arrival is revisited for jobs that are still waiting. Every sweep
// interval the controller withdraws each still-pending job, re-scores it
// through the same filter/score pipeline that placed it, and moves it only
// when the re-placement wins by more than a hysteresis margin — subject to
// a per-job cooldown and a per-job lifetime move cap, so thrash is
// impossible by construction, not by tuning. A job that stays put is
// resubmitted to its current cluster, which restores its exact queue
// position (sim.Submit orders by original submit time), making an aborted
// move a provable no-op.

// ScoredRouter is the router capability migration needs: per-candidate
// total scores, not just an argmax, so the controller can measure the
// margin between a job's current cluster and the best alternative.
// Pipeline implements it; the Random and RoundRobin baselines do not
// (there is no meaningful "how much better" under them).
type ScoredRouter interface {
	Router
	// PlaceScored scores the job against every candidate (NaN for
	// filtered-out clusters) and returns the argmax index, or -1 when no
	// cluster is feasible.
	PlaceScored(j *job.Job, cands []*Candidate, scores []float64) int
}

// MigrationConfig parameterizes the migration controller. The zero value
// is invalid (Interval is required); HysteresisMigration and
// AlwaysRebalance build the two standard policies.
type MigrationConfig struct {
	// Interval is the global-clock period between re-placement sweeps,
	// in simulation seconds. Required (> 0).
	Interval float64
	// Hysteresis is the minimum score margin — best candidate minus the
	// job's current cluster, on the pipeline's normalized scale — a move
	// must clear. 0 moves on any strict improvement (always-rebalance).
	Hysteresis float64
	// Cooldown is the minimum simulated time between two moves of the
	// same job (0 = none).
	Cooldown float64
	// MaxMovesPerJob caps how many times any single job may migrate over
	// its lifetime (0 = unlimited). A positive cap bounds total fleet
	// disruption at MaxMovesPerJob × jobs regardless of scoring noise.
	MaxMovesPerJob int
	// RequireStartNow additionally gates every move on the destination
	// being genuinely drained at the sweep instant: free capacity to
	// start the job now AND an empty pending queue. Score margins are
	// estimates; "the target can run this job right now and nobody there
	// is waiting" is a fact — under the gate the moved job strictly
	// improves its start time and no queued job at the destination loses
	// the capacity it was waiting for (the two failure modes of greedy
	// rebalancing onto clusters that merely *look* lighter).
	RequireStartNow bool
	// MigrateCommitted additionally lets sweeps re-place the job the
	// member's local policy has committed to (picked but still waiting
	// for capacity). A starved job is very often exactly that pick — a
	// short job at the head of an SJF/F1 queue blocked behind a wide
	// running job — so fairness-repairing sweeps need it movable. The
	// committed job is still pending (it has not started), so a withdraw
	// is legal; when the move goes through the member re-picks at the
	// sweep instant, and when the probe aborts the original pick is
	// restored untouched (never re-evaluated — time-dependent policies
	// would otherwise change a decision sim.Run would have held), which
	// keeps the disabled/ineffective-migration byte-parity guarantee.
	// Default off: moving the pick forfeits the EASY backfill shadow
	// reservation built around it, a trade only fairness-driven policies
	// should opt into.
	MigrateCommitted bool
}

func (c MigrationConfig) validate() error {
	// Negated comparisons so NaN fails loudly here instead of silently
	// disabling every sweep (NaN never compares <= the clock).
	if !(c.Interval > 0) {
		return fmt.Errorf("fleet: migration interval must be positive, got %g", c.Interval)
	}
	if !(c.Hysteresis >= 0) || !(c.Cooldown >= 0) || c.MaxMovesPerJob < 0 {
		return fmt.Errorf("fleet: migration config fields must be non-negative: %+v", c)
	}
	return nil
}

// HysteresisMigration returns the recommended production policy for a
// sweep interval: a 0.25 margin on the pipeline's normalized score scale,
// a cooldown of two sweep intervals, at most three moves per job, and the
// start-now gate — only rescue a stranded job onto capacity that can run
// it immediately.
func HysteresisMigration(interval float64) MigrationConfig {
	return MigrationConfig{
		Interval:        interval,
		Hysteresis:      0.25,
		Cooldown:        2 * interval,
		MaxMovesPerJob:  3,
		RequireStartNow: true,
	}
}

// AlwaysRebalance returns the greedy ablation: move on any strict score
// improvement, every sweep, with no cooldown or cap. It exists to be
// measured against — the fleet-migration experiment shows where greed
// pays and where hysteresis wins.
func AlwaysRebalance(interval float64) MigrationConfig {
	return MigrationConfig{Interval: interval}
}

// migInfo is the controller's per-job move history.
type migInfo struct {
	moves    int
	lastMove float64 // global clock of the most recent move
}

// migrator is the run-scoped state of the migration controller: the sweep
// schedule, per-job histories, and scratch buffers. One is built per
// Fleet.Run, so a Fleet can be reused across runs.
type migrator struct {
	cfg       MigrationConfig
	router    ScoredRouter
	nextSweep float64
	info      map[*job.Job]*migInfo
	moves     int
	scores    []float64
	snap      [][]*job.Job
	// rec is the run's observability recorder (nil = disabled); probe is
	// its reused emission buffer. Recording never changes sweep decisions.
	rec   obs.Recorder
	probe obs.MigrationProbe
}

func newMigrator(cfg MigrationConfig, router ScoredRouter, firstArrival float64) *migrator {
	return &migrator{
		cfg:       cfg,
		router:    router,
		nextSweep: firstArrival + cfg.Interval,
		info:      map[*job.Job]*migInfo{},
	}
}

// sweep re-places the fleet's pending backlog at the current instant.
// Every member's scheduler-visible queue is snapshotted before anything
// moves, so a job the sweep itself migrates is never re-evaluated at its
// destination within the same sweep.
func (f *Fleet) sweep(mig *migrator, now float64) error {
	// Stateful scorers (the fairness plugin) see every completion up to
	// the sweep instant before any re-placement is scored, so sweeps
	// repair fairness on the same signals arrivals are placed with. The
	// snapshot rides the candidate cache: a refreshed Pending count says
	// which members hold a backlog at all, so an idle member costs one
	// integer compare instead of a queue copy.
	f.observeCompletions()
	cands := f.candidatesAt(now)
	snap := mig.snap[:0]
	for i := range f.members {
		var vis []*job.Job
		if cands[i].Pending > 0 {
			vis = cands[i].Visible
		}
		if i < len(mig.snap) {
			snap = append(snap, append(mig.snap[i][:0], vis...))
		} else {
			snap = append(snap, append([]*job.Job(nil), vis...))
		}
	}
	mig.snap = snap

	for si, m := range f.members {
		for _, j := range snap[si] {
			// A job an earlier move's pump started is gone; the one the
			// local policy has committed to (it holds the backfill
			// reservation) moves only under MigrateCommitted.
			if j.Started() || (j == m.sim.Committed() && !mig.cfg.MigrateCommitted) {
				continue
			}
			if inf := mig.info[j]; inf != nil {
				if mig.cfg.MaxMovesPerJob > 0 && inf.moves >= mig.cfg.MaxMovesPerJob {
					mig.skipProbe(f, si, j, now, obs.ReasonMoveCap)
					continue
				}
				if mig.cfg.Cooldown > 0 && now-inf.lastMove < mig.cfg.Cooldown {
					mig.skipProbe(f, si, j, now, obs.ReasonCooldown)
					continue
				}
			}
			if err := f.tryMove(mig, si, j, now); err != nil {
				return err
			}
		}
	}
	return nil
}

// StartsNow reports whether c can start j now — cluster.CanAllocate behind
// an empty queue: the start-now gate of the sweep, /migrate and scorers.
func StartsNow(c *Candidate, j *job.Job) bool {
	return c.Pending == 0 && j.RequestedProcs > 0 && j.RequestedProcs <= c.View.FreeProcs
}

// MoveVerdict is the move-or-stay decision for one re-scored pending job —
// the only place the hysteresis margin and the start-now gate are compared,
// shared by the sweep controller (tryMove) and the serving daemon's
// /migrate. scores are PlaceScored's per-candidate totals (NaN = filtered
// out), from is the job's current candidate and best PlaceScored's argmax
// (-1 = nothing feasible). startNow says whether the best candidate can start
// the job immediately with nobody queued ahead of it; it is asked only once
// the margin has cleared, so it may be costly. It returns the destination (from when the job
// stays), the obs.Reason* saying why, and the best-minus-incumbent margin
// (0 when either side is unscored).
func MoveVerdict(scores []float64, from, best int, hysteresis float64, startNow func() bool) (dst int, reason string, margin float64) {
	switch {
	case best < 0:
		return from, obs.ReasonInfeasible, 0
	case best == from:
		return from, obs.ReasonIncumbent, 0
	}
	// An incumbent the filters now reject (NaN score) always loses.
	if cur := scores[from]; !math.IsNaN(cur) {
		margin = scores[best] - cur
		if !(margin > hysteresis) { // negated: a NaN margin stays too
			return from, obs.ReasonHysteresis, margin
		}
	}
	if !startNow() {
		return from, obs.ReasonNotDrained, margin
	}
	return best, obs.ReasonMoved, margin
}

// tryMove withdraws j from member src, re-scores it across the fleet, and
// either re-places it (margin over the incumbent exceeds the hysteresis)
// or resubmits it in place. Withdrawing before scoring keeps the job's own
// footprint from biasing its current cluster's backlog signals.
func (f *Fleet) tryMove(mig *migrator, src int, j *job.Job, now float64) error {
	srcM := f.members[src]
	wasCommitted := srcM.sim.Committed() == j
	if _, err := srcM.sim.Withdraw(j.ID); err != nil {
		return fmt.Errorf("fleet: migrate from %s: %w", srcM.name, err)
	}
	f.markDirty(src)
	cands := f.candidatesAt(now)
	if cap(mig.scores) < len(cands) {
		mig.scores = make([]float64, len(cands))
	}
	scores := mig.scores[:len(cands)]
	best := mig.router.PlaceScored(j, cands, scores)

	dst, reason, margin := MoveVerdict(scores, src, best, mig.cfg.Hysteresis, func() bool {
		return !mig.cfg.RequireStartNow || StartsNow(cands[best], j)
	})
	if mig.rec != nil {
		p := &mig.probe
		*p = obs.MigrationProbe{
			Time: now, Job: obs.Ref(j),
			From: src, FromName: srcM.name, To: best,
			Moved: dst != src, Reason: reason, Margin: margin,
		}
		if best >= 0 {
			p.ToName = f.members[best].name
		}
		mig.rec.Migration(p)
	}
	m := f.members[dst]
	// The destination may not have been woken at the sweep instant (no
	// events due), so its clock can trail `now`: advance it first — a
	// pure clock move, nothing fires — so Submit and the pump below act
	// at the sweep instant exactly as under the full sweep.
	m.sim.AdvanceClock(now)
	if err := m.sim.Submit(j); err != nil {
		return fmt.Errorf("fleet: migrate to %s: %w", m.name, err)
	}
	f.markDirty(dst)
	if dst == src {
		// Not worth moving: the resubmission restored the exact
		// pre-withdraw state (pinned by sim's withdraw/resubmit parity
		// test), so the probe is invisible to results. A committed pick
		// is committed again — re-picking here would let time-dependent
		// policies (SJF/F1 over newer arrivals) change a decision sim.Run
		// would have held, breaking ineffective-sweep parity.
		if wasCommitted {
			m.sim.Commit(j)
		}
		return nil
	}
	inf := mig.info[j]
	if inf == nil {
		inf = &migInfo{}
		mig.info[j] = inf
	}
	inf.moves++
	inf.lastMove = now
	mig.moves++
	srcM.movedOut++
	m.movedIn++
	m.sim.Pump(m.sched)
	f.touch(dst)
	if wasCommitted {
		// The source's pick genuinely left (Withdraw cleared it): let its
		// policy re-pick (and backfill) at this instant, exactly as sim.Run
		// would after a queue change. Time-dependent policies must see the
		// sweep instant, so bring a trailing clock up first (again a pure
		// move).
		srcM.sim.AdvanceClock(now)
		srcM.sim.Pump(srcM.sched)
		f.markDirty(src)
	}
	f.touch(src)
	return nil
}

// skipProbe records a sweep skipping j before any re-scoring happened
// (cooldown or lifetime move cap); no-op without a recorder.
func (mig *migrator) skipProbe(f *Fleet, src int, j *job.Job, now float64, reason string) {
	if mig.rec == nil {
		return
	}
	p := &mig.probe
	*p = obs.MigrationProbe{
		Time: now, Job: obs.Ref(j),
		From: src, FromName: f.members[src].name, To: -1, Reason: reason,
	}
	mig.rec.Migration(p)
}

// fillMigrationMetrics writes the controller's per-job histories into each
// member's metrics.Result: a migrated job is accounted on the cluster it
// finally ran on, with its original arrival time (so job-averaged metrics
// stay comparable across migration policies).
func (mig *migrator) fillMigrationMetrics(results []metrics.Result) {
	for i := range results {
		for _, j := range results[i].Jobs {
			inf := mig.info[j]
			if inf == nil || inf.moves == 0 {
				continue
			}
			results[i].MigratedJobs = append(results[i].MigratedJobs, j)
			results[i].Moves += inf.moves
			results[i].MigrationDelaySum += inf.lastMove - j.SubmitTime
		}
	}
}
