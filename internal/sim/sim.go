// Package sim implements SchedGym (§IV-D of the paper): an event-driven
// simulator of a homogeneous HPC platform consuming SWF-style job
// sequences. Starting from an idle cluster it replays arrivals, queries a
// Scheduler whenever a decision is needed, optionally backfills (EASY
// style), and measures the §II-A3 metrics. A Gym-flavoured Env wraps the
// simulator for reinforcement learning with fixed-size observations and
// action masking.
package sim

import (
	"container/heap"
	"fmt"

	"rlsched/internal/cluster"
	"rlsched/internal/job"
	"rlsched/internal/metrics"
	"rlsched/internal/obs"
)

// DefaultMaxObserve is MAX_OBSV_SIZE in the paper: the scheduler sees at
// most this many pending jobs (the rest are cut off in FCFS order), the
// same order of magnitude Slurm uses for its pending-job window.
const DefaultMaxObserve = 128

// Config parameterizes a simulation run. A job can start exactly when the
// free processors cover its request; there is no per-user quota (§V-F's
// remark is not reproduced, DESIGN.md §1).
type Config struct {
	// Processors is the cluster size; it must match the trace.
	Processors int
	// Backfill enables backfilling while the selected job waits.
	Backfill bool
	// Conservative switches the backfilling discipline from EASY (only
	// the selected job holds a reservation) to conservative (every
	// pending job holds one, in FCFS order behind the selection). Only
	// meaningful with Backfill set; provided as an ablation of the
	// paper's backfilling substrate.
	Conservative bool
	// MaxObserve caps the scheduler-visible queue (default 128).
	MaxObserve int
}

func (c Config) maxObserve() int {
	if c.MaxObserve <= 0 {
		return DefaultMaxObserve
	}
	return c.MaxObserve
}

// ClusterView is the resource information exposed to schedulers (the
// actual runtime of jobs is never exposed, only requests).
type ClusterView struct {
	FreeProcs  int
	TotalProcs int
}

// Scheduler selects the next job to run. Pick receives the visible pending
// queue in FCFS order (never empty), the current time, and the resource
// view, and returns the index of the chosen job. Out-of-range picks are
// treated as 0.
type Scheduler interface {
	Pick(visible []*job.Job, now float64, view ClusterView) int
}

// runHeap orders running jobs by completion time.
type runHeap []*job.Job

func (h runHeap) Len() int            { return len(h) }
func (h runHeap) Less(i, j int) bool  { return h[i].EndTime < h[j].EndTime }
func (h runHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x interface{}) { *h = append(*h, x.(*job.Job)) }
func (h *runHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Simulator is a single-sequence SchedGym instance. Create one with New,
// Load a sequence, then either Run with a Scheduler or drive it step by
// step through Env.
type Simulator struct {
	cfg     Config
	cluster *cluster.Cluster

	seq        []*job.Job // the full sequence, submit-ordered
	arrivalIdx int        // next job to arrive
	pending    []*job.Job // arrived, not started (FCFS order)
	committed  *job.Job   // the pending job picked to run next (nil = none)
	running    runHeap
	completed  int
	done       []*job.Job // append-only completion log, in completion order
	now        float64

	// rec receives job lifecycle events (nil = disabled); recName tags
	// them with the cluster's name. Both survive Load — a recorder watches
	// the simulator, not one sequence. jobEvt is the reused emission
	// buffer.
	rec     obs.Recorder
	recName string
	jobEvt  obs.JobEvent
}

// SetRecorder attaches an observability recorder (nil detaches): the
// simulator emits one cluster-tagged obs.JobEvent per lifecycle transition
// — submit (arrival into the queue, preloaded or via Submit), start,
// finish, and withdraw. Recording is passive and survives Load.
func (s *Simulator) SetRecorder(r obs.Recorder, cluster string) {
	s.rec = r
	s.recName = cluster
}

// recordJob emits one lifecycle event at the current clock. Callers guard
// on s.rec != nil so the untraced path pays a single branch.
func (s *Simulator) recordJob(kind obs.JobEventKind, j *job.Job) {
	s.jobEvt = obs.JobEvent{Kind: kind, Time: s.now, Cluster: s.recName, Job: obs.Ref(j)}
	s.rec.Job(&s.jobEvt)
}

// New returns a simulator for the config.
func New(cfg Config) *Simulator {
	if cfg.Processors <= 0 {
		panic("sim: config needs a positive processor count")
	}
	return &Simulator{cfg: cfg, cluster: cluster.New(cfg.Processors)}
}

// Load resets the simulator and installs a job sequence (clones are NOT
// taken; callers pass freshly cloned windows, e.g. trace.Window). The
// sequence must be submit-ordered and fit the cluster.
func (s *Simulator) Load(seq []*job.Job) error {
	prev := -1.0
	for i, j := range seq {
		if err := j.Validate(); err != nil {
			return err
		}
		if j.SubmitTime < prev {
			return fmt.Errorf("sim: job %d out of submit order", i)
		}
		prev = j.SubmitTime
		if j.RequestedProcs > s.cfg.Processors {
			return fmt.Errorf("sim: job %d requests %d > %d procs",
				i, j.RequestedProcs, s.cfg.Processors)
		}
		j.Reset()
	}
	s.seq = seq
	s.arrivalIdx = 0
	s.pending = s.pending[:0]
	s.committed = nil
	s.running = s.running[:0]
	s.completed = 0
	s.done = s.done[:0]
	s.now = 0
	s.cluster.Reset()
	return nil
}

// Now returns the simulation clock.
func (s *Simulator) Now() float64 { return s.now }

// View returns the scheduler-visible resource state.
func (s *Simulator) View() ClusterView {
	return ClusterView{FreeProcs: s.cluster.Free(), TotalProcs: s.cluster.Total()}
}

// Visible returns the scheduler-visible window of the pending queue.
func (s *Simulator) Visible() []*job.Job {
	n := s.cfg.maxObserve()
	if n > len(s.pending) {
		n = len(s.pending)
	}
	return s.pending[:n]
}

// PendingCount returns the number of arrived, unstarted jobs.
func (s *Simulator) PendingCount() int { return len(s.pending) }

// advanceTo moves the clock to t, completing jobs and admitting arrivals in
// event order.
func (s *Simulator) advanceTo(t float64) {
	for {
		nextEvent := t
		kind := 0 // 0 = stop at t
		if len(s.running) > 0 && s.running[0].EndTime <= nextEvent {
			nextEvent = s.running[0].EndTime
			kind = 1
		}
		if s.arrivalIdx < len(s.seq) && s.seq[s.arrivalIdx].SubmitTime <= nextEvent {
			// Arrivals at the same instant as completions are
			// processed after them (completion frees resources the
			// arrival may use); strict earlier arrivals first.
			if kind == 0 || s.seq[s.arrivalIdx].SubmitTime < nextEvent {
				nextEvent = s.seq[s.arrivalIdx].SubmitTime
				kind = 2
			}
		}
		s.cluster.AdvanceTo(nextEvent)
		s.now = nextEvent
		switch kind {
		case 0:
			return
		case 1:
			j := heap.Pop(&s.running).(*job.Job)
			if err := s.cluster.Release(j.ID); err != nil {
				panic(fmt.Sprintf("sim: release: %v", err))
			}
			s.completed++
			s.done = append(s.done, j)
			if s.rec != nil {
				s.recordJob(obs.JobFinish, j)
			}
		case 2:
			s.pending = append(s.pending, s.seq[s.arrivalIdx])
			if s.rec != nil {
				s.recordJob(obs.JobSubmit, s.seq[s.arrivalIdx])
			}
			s.arrivalIdx++
		}
	}
}

// advanceToNextEvent advances to the earliest pending event (arrival or
// completion). It reports false when no events remain.
func (s *Simulator) advanceToNextEvent() bool {
	t, ok := s.NextEventTime()
	if ok {
		s.advanceTo(t)
	}
	return ok
}

// start allocates and launches a pending job at the current time.
func (s *Simulator) start(j *job.Job) {
	if err := s.cluster.Allocate(j.ID, j.RequestedProcs); err != nil {
		panic(fmt.Sprintf("sim: start job %d: %v", j.ID, err))
	}
	j.StartTime = s.now
	j.EndTime = s.now + j.RunTime
	heap.Push(&s.running, j)
	for i, p := range s.pending {
		if p == j {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			break
		}
	}
	if s.rec != nil {
		s.recordJob(obs.JobStart, j)
	}
}

// Pump applies every scheduling decision due at the current instant,
// without advancing the clock: it asks sched for a pick when nothing is
// committed, starts the committed job once it fits, and otherwise
// backfills around it (when Backfill is on), so the committed job holds its
// reservation while it waits. With a nil sched Pump stops where a pick is
// due and leaves the choice to the caller (Commit) — how Env lets the agent
// decide. Pump between clock advances is the whole scheduling loop: Run,
// Env and every fleet member drive the simulator through it.
func (s *Simulator) Pump(sched Scheduler) {
	for {
		if s.committed == nil {
			if len(s.pending) == 0 || sched == nil {
				return
			}
			vis := s.Visible()
			idx := sched.Pick(vis, s.now, s.View())
			if idx < 0 || idx >= len(vis) {
				idx = 0
			}
			s.committed = vis[idx]
		}
		if !s.cluster.CanAllocate(s.committed.RequestedProcs) {
			if s.cfg.Backfill {
				if s.cfg.Conservative {
					s.conservativeBackfill(s.committed)
				} else {
					s.backfill(s.committed)
				}
			}
			if !s.cluster.CanAllocate(s.committed.RequestedProcs) {
				return
			}
		}
		s.start(s.committed)
		s.committed = nil
	}
}

// Committed returns the job the scheduler picked and that waits to start,
// or nil when no pick is outstanding.
func (s *Simulator) Committed() *job.Job { return s.committed }

// Commit makes j, which must be pending, the pick the next Pump starts or
// backfills around — the agent's action in Env, and how the fleet restores
// a pick a migration probe withdrew and resubmitted.
func (s *Simulator) Commit(j *job.Job) { s.committed = j }

// shadow computes the EASY reservation for the chosen job: the earliest
// time enough processors will be free, assuming running jobs end at their
// recorded EndTime. It also returns the processors spare at that instant
// beyond the reservation ("extra" nodes usable by long backfill
// candidates).
func (s *Simulator) shadow(chosen *job.Job) (shadowTime float64, extra int) {
	free := s.cluster.Free()
	if free >= chosen.RequestedProcs {
		return s.now, free - chosen.RequestedProcs
	}
	ends := append(runHeap(nil), s.running...)
	heap.Init(&ends)
	for len(ends) > 0 {
		j := heap.Pop(&ends).(*job.Job)
		free += j.RequestedProcs
		if free >= chosen.RequestedProcs {
			return j.EndTime, free - chosen.RequestedProcs
		}
	}
	// Unreachable for valid sequences (every job fits an empty cluster).
	return s.now, 0
}

// backfill starts every pending job (in FCFS order) that fits the free
// processors now and cannot delay the chosen job: it either finishes (by
// its requested time) before the shadow time or uses only the extra
// processors spare at the shadow time.
func (s *Simulator) backfill(chosen *job.Job) {
	shadowTime, extra := s.shadow(chosen)
	i := 0
	for i < len(s.pending) {
		j := s.pending[i]
		if j == chosen {
			i++
			continue
		}
		fits := s.cluster.CanAllocate(j.RequestedProcs)
		endsInTime := s.now+j.RequestedTime <= shadowTime
		inExtra := j.RequestedProcs <= extra
		if fits && (endsInTime || inExtra) {
			if inExtra && !endsInTime {
				extra -= j.RequestedProcs
			}
			s.start(j) // removes pending[i]; do not advance i
			continue
		}
		i++
	}
}

// conservativeBackfill walks the pending queue with the chosen job first
// and the rest in FCFS order, giving every job a reservation in the
// availability profile (using requested times); jobs whose reservation is
// "now" start immediately. No job can delay an earlier reservation.
func (s *Simulator) conservativeBackfill(chosen *job.Job) {
	prof := newProfile(s.now, s.cluster.Free(), s.running)
	order := make([]*job.Job, 0, len(s.pending))
	order = append(order, chosen)
	for _, j := range s.pending {
		if j != chosen {
			order = append(order, j)
		}
	}
	for _, j := range order {
		start := prof.earliest(s.now, j.RequestedTime, j.RequestedProcs)
		if start <= s.now && s.cluster.CanAllocate(j.RequestedProcs) && j != chosen {
			s.start(j)
			prof.reserve(s.now, j.RequestedTime, j.RequestedProcs)
			continue
		}
		prof.reserve(start, j.RequestedTime, j.RequestedProcs)
	}
}

// Run drives the full sequence with the scheduler — Pump, then advance to
// the next event, until no events remain — and returns the result. The
// clock ends at the last completion, so utilization covers the full run.
func (s *Simulator) Run(sched Scheduler) (metrics.Result, error) {
	if len(s.seq) == 0 {
		return metrics.Result{}, fmt.Errorf("sim: no sequence loaded")
	}
	for {
		s.Pump(sched)
		if !s.advanceToNextEvent() {
			break
		}
	}
	if j := s.committed; j != nil {
		return metrics.Result{}, fmt.Errorf("sim: job %d (%d procs) can never start", j.ID, j.RequestedProcs)
	}
	return s.result(), nil
}

// result snapshots metrics after a run.
func (s *Simulator) result() metrics.Result {
	start := 0.0
	if len(s.seq) > 0 {
		start = s.seq[0].SubmitTime
	}
	return metrics.Result{
		Jobs:        s.seq,
		Utilization: s.cluster.Utilization(start, s.now),
	}
}
