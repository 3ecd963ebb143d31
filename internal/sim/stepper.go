package sim

import (
	"container/heap"
	"fmt"
	"sort"

	"rlsched/internal/job"
	"rlsched/internal/metrics"
	"rlsched/internal/obs"
)

// This file is the incremental stepping surface of the simulator, used by
// the fleet placement layer (internal/fleet) to time-synchronize many
// member clusters against one global arrival stream. A member is driven
// externally: jobs arrive via Submit at the moment a placement decision
// routes them, the clock advances event-by-event via NextEventTime +
// AdvanceClock, and Pump applies the scheduling decisions due at each
// instant. Pump is Run's own loop body — Run is Pump plus its own clock
// advance — so a cluster driven this way schedules exactly as Run would
// (asserted by a parity test in internal/fleet).

// Submit injects an arriving job at the current clock: it joins the
// sequence history and the pending queue immediately. Submit is the
// arrival path of incrementally driven simulators and cannot be mixed with
// preloaded future arrivals (Load a full sequence OR Submit jobs one by
// one). The job's SubmitTime must not lie in the future — advance the
// clock to the arrival instant first.
//
// The pending queue stays in FCFS order keyed by (SubmitTime, ID). Fresh
// arrivals append (nothing already queued was submitted later), so
// incrementally driven runs schedule exactly like Load-driven ones; a
// *re*-submitted job (Withdraw on one cluster, Submit on another — the
// migration path) regains the queue position its original arrival time
// entitles it to instead of being demoted to the back. That ordering is
// what makes withdraw-then-resubmit-to-the-same-cluster a no-op on
// results, and why migrated jobs keep their original arrival time in
// metrics: waits are measured from true submission wherever the job runs.
func (s *Simulator) Submit(j *job.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if j.RequestedProcs > s.cfg.Processors {
		return fmt.Errorf("sim: job %d requests %d > %d procs",
			j.ID, j.RequestedProcs, s.cfg.Processors)
	}
	if s.arrivalIdx != len(s.seq) {
		return fmt.Errorf("sim: cannot Submit while %d preloaded arrivals are pending",
			len(s.seq)-s.arrivalIdx)
	}
	if j.SubmitTime > s.now {
		return fmt.Errorf("sim: job %d submitted in the future (%g > clock %g)",
			j.ID, j.SubmitTime, s.now)
	}
	j.Reset()
	// Both the sequence history and the pending queue keep (SubmitTime,
	// ID) order — the history so that metric summation order (and thus
	// floating-point results) is independent of withdraw/resubmit probes,
	// the queue for FCFS semantics. Walking back from the tail makes a
	// fresh arrival a plain append.
	insertOrdered(&s.seq, j)
	s.arrivalIdx = len(s.seq)
	insertOrdered(&s.pending, j)
	if s.rec != nil {
		s.recordJob(obs.JobSubmit, j)
	}
	return nil
}

// insertOrdered places j into the (SubmitTime, ID)-sorted slice.
func insertOrdered(s *[]*job.Job, j *job.Job) {
	q := *s
	idx := len(q)
	for idx > 0 {
		p := q[idx-1]
		if p.SubmitTime < j.SubmitTime ||
			(p.SubmitTime == j.SubmitTime && p.ID < j.ID) {
			break
		}
		idx--
	}
	q = append(q, nil)
	copy(q[idx+1:], q[idx:])
	q[idx] = j
	*s = q
}

// Withdraw removes a still-pending job from the simulator and returns it —
// the inverse of Submit, and the primitive cross-cluster migration
// (internal/fleet) is built from: withdraw from the source cluster,
// re-score, Submit to the destination. A job that has started (or already
// completed) cannot be withdrawn; neither can one the simulator never
// received. Withdrawing the committed job clears the pick. Withdraw-then-
// resubmit to the same cluster at the same instant restores the exact
// pre-withdraw schedule (Submit reinserts by original submit time; Commit
// restores a withdrawn pick), so an aborted migration is a provable no-op.
func (s *Simulator) Withdraw(id int) (*job.Job, error) {
	if s.arrivalIdx != len(s.seq) {
		return nil, fmt.Errorf("sim: cannot Withdraw while %d preloaded arrivals are pending",
			len(s.seq)-s.arrivalIdx)
	}
	for i, j := range s.pending {
		if j.ID != id {
			continue
		}
		s.pending = append(s.pending[:i], s.pending[i+1:]...)
		if s.committed == j {
			s.committed = nil
		}
		for k, q := range s.seq {
			if q == j {
				s.seq = append(s.seq[:k], s.seq[k+1:]...)
				break
			}
		}
		s.arrivalIdx = len(s.seq)
		if s.rec != nil {
			s.recordJob(obs.JobWithdraw, j)
		}
		return j, nil
	}
	return nil, fmt.Errorf("sim: job %d is not pending (never submitted, already started, or withdrawn)", id)
}

// PendingJobs returns the full arrived-but-unstarted queue in FCFS order
// (keyed by SubmitTime, then ID) — unlike Visible it is not capped by
// MaxObserve. The fleet's churn controller uses it to withdraw a draining
// or failed member's entire backlog, not just the scheduler-visible
// window. The returned slice aliases the simulator's queue: read it (or
// copy it) before calling anything that mutates the queue.
func (s *Simulator) PendingJobs() []*job.Job { return s.pending }

// EvictRunning forcibly terminates every running job at the current clock
// — the member-failure primitive of fleet churn. Each job's processors are
// released, it is removed from the sequence history (it did not complete
// here; the fleet resubmits it to a surviving member, where it re-enters
// that member's history with its original submit time), and its start
// state is reset so it can run again from scratch. The cluster's busy-time
// integral keeps the cycles burned before the eviction — the capacity
// genuinely was consumed. Evicted jobs are returned in (SubmitTime, ID)
// order so re-placement is deterministic; each one is recorded as a
// withdraw event when a recorder is attached.
func (s *Simulator) EvictRunning() []*job.Job {
	if len(s.running) == 0 {
		return nil
	}
	evicted := make([]*job.Job, 0, len(s.running))
	gone := make(map[*job.Job]bool, len(s.running))
	for len(s.running) > 0 {
		j := heap.Pop(&s.running).(*job.Job)
		if err := s.cluster.Release(j.ID); err != nil {
			panic(fmt.Sprintf("sim: evict release: %v", err))
		}
		evicted = append(evicted, j)
		gone[j] = true
	}
	keep := s.seq[:0]
	for _, j := range s.seq {
		if !gone[j] {
			keep = append(keep, j)
		}
	}
	s.seq = keep
	s.arrivalIdx = len(s.seq)
	sort.Slice(evicted, func(i, k int) bool {
		a, b := evicted[i], evicted[k]
		return a.SubmitTime < b.SubmitTime ||
			(a.SubmitTime == b.SubmitTime && a.ID < b.ID)
	})
	for _, j := range evicted {
		j.Reset()
		if s.rec != nil {
			s.recordJob(obs.JobWithdraw, j)
		}
	}
	return evicted
}

// AdvanceClock moves the clock forward to t, completing jobs and admitting
// preloaded arrivals in event order. Times at or before the current clock
// are a no-op (the clock never runs backwards).
func (s *Simulator) AdvanceClock(t float64) {
	if t <= s.now {
		return
	}
	s.advanceTo(t)
}

// NextEventTime returns the time of the earliest internal event (a running
// job completing or a preloaded arrival), and whether one exists.
func (s *Simulator) NextEventTime() (float64, bool) {
	t := -1.0
	if len(s.running) > 0 {
		t = s.running[0].EndTime
	}
	if s.arrivalIdx < len(s.seq) {
		if at := s.seq[s.arrivalIdx].SubmitTime; t < 0 || at < t {
			t = at
		}
	}
	if t < 0 {
		return 0, false
	}
	return t, true
}

// Result snapshots the run's metrics at the current instant (final once no
// events remain).
func (s *Simulator) Result() metrics.Result { return s.result() }

// Completions returns the append-only log of jobs that have finished
// executing, in completion order, since the last Load. Incremental
// consumers (the fleet's stateful fairness plugin) keep their own cursor
// into it and read only the tail: the log never reorders or shrinks while
// a run is in progress, and a new Load starts it empty. The returned slice
// aliases the simulator's log — read, don't mutate.
func (s *Simulator) Completions() []*job.Job { return s.done }

// UtilizationOver reports the busy fraction over an explicit horizon —
// the hook for fleet-wide aggregation, where every member must be
// measured over the same [start, end] window rather than its own
// first-arrival-to-last-event span. Advance the clock to end first so the
// busy-time accounting covers the whole window.
func (s *Simulator) UtilizationOver(start, end float64) float64 {
	return s.cluster.Utilization(start, end)
}

// PendingWork returns the queued work area Σ requested_time·procs over the
// pending queue — the backlog pressure signal placement scorers consume.
func (s *Simulator) PendingWork() float64 {
	w := 0.0
	for _, j := range s.pending {
		w += j.RequestedTime * float64(j.RequestedProcs)
	}
	return w
}

// RunningWorkAt returns the remaining work area Σ (end−t)·procs over
// running jobs at instant t, using the actual end times the simulator
// knows (schedulers never see them; the placement layer uses the aggregate
// the way a monitoring system would). The fleet's event-heap stepping
// evaluates it at the global clock without advancing members that have no
// events: as long as no running job ends at or before t (which would be an
// event waking the member), the value is the one the member would report
// with its own clock advanced to t.
func (s *Simulator) RunningWorkAt(t float64) float64 {
	w := 0.0
	for _, j := range s.running {
		if rem := j.EndTime - t; rem > 0 {
			w += rem * float64(j.RequestedProcs)
		}
	}
	return w
}
