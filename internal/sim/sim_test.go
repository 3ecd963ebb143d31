package sim

import (
	"math/rand"
	"testing"

	"rlsched/internal/job"
	"rlsched/internal/metrics"
	"rlsched/internal/trace"
)

// fcfsPick always selects slot 0 (the queue is FCFS-ordered).
type fcfsPick struct{}

func (fcfsPick) Pick(v []*job.Job, _ float64, _ ClusterView) int { return 0 }

// sjfPick selects the shortest requested runtime.
type sjfPick struct{}

func (sjfPick) Pick(v []*job.Job, _ float64, _ ClusterView) int {
	best := 0
	for i, j := range v {
		if j.RequestedTime < v[best].RequestedTime {
			best = i
		}
	}
	return best
}

// randPick selects a uniformly random visible job.
type randPick struct{ rng *rand.Rand }

func (r randPick) Pick(v []*job.Job, _ float64, _ ClusterView) int { return r.rng.Intn(len(v)) }

func seq(jobs ...*job.Job) []*job.Job { return jobs }

func TestRunSerialJobs(t *testing.T) {
	// Two 1-proc jobs on a 1-proc machine, both submitted at 0.
	s := New(Config{Processors: 1})
	j1 := job.New(1, 0, 100, 1, 100)
	j2 := job.New(2, 0, 100, 1, 100)
	if err := s.Load(seq(j1, j2)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(fcfsPick{})
	if err != nil {
		t.Fatal(err)
	}
	if j1.StartTime != 0 || j1.EndTime != 100 {
		t.Errorf("j1 ran [%g,%g], want [0,100]", j1.StartTime, j1.EndTime)
	}
	if j2.StartTime != 100 || j2.EndTime != 200 {
		t.Errorf("j2 ran [%g,%g], want [100,200]", j2.StartTime, j2.EndTime)
	}
	if res.Utilization != 1 {
		t.Errorf("util = %g, want 1 (machine never idle)", res.Utilization)
	}
	if got := metrics.Value(metrics.WaitTime, res); got != 50 {
		t.Errorf("avg wait = %g, want 50", got)
	}
}

func TestParallelPacking(t *testing.T) {
	// 4-proc machine: a 2-proc and a 2-proc job run together.
	s := New(Config{Processors: 4})
	j1 := job.New(1, 0, 100, 2, 100)
	j2 := job.New(2, 0, 100, 2, 100)
	if err := s.Load(seq(j1, j2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(fcfsPick{}); err != nil {
		t.Fatal(err)
	}
	if j1.StartTime != 0 || j2.StartTime != 0 {
		t.Errorf("both jobs must start at 0: %g, %g", j1.StartTime, j2.StartTime)
	}
}

func TestArrivalGating(t *testing.T) {
	// Second job arrives at t=500; the idle machine must wait for it.
	s := New(Config{Processors: 1})
	j1 := job.New(1, 0, 100, 1, 100)
	j2 := job.New(2, 500, 100, 1, 100)
	if err := s.Load(seq(j1, j2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(fcfsPick{}); err != nil {
		t.Fatal(err)
	}
	if j2.StartTime != 500 {
		t.Errorf("j2 start = %g, want 500 (arrival gated)", j2.StartTime)
	}
}

func TestNoBackfillBlocksQueue(t *testing.T) {
	// 4-proc machine. Running: j1 (4 procs, 100s). Queue: j2 wants 4
	// procs (blocked), j3 wants 1 proc for 10s. FCFS picks j2; without
	// backfilling j3 must NOT jump ahead even though it fits trivially.
	s := New(Config{Processors: 4, Backfill: false})
	j1 := job.New(1, 0, 100, 4, 100)
	j2 := job.New(2, 1, 100, 4, 100)
	j3 := job.New(3, 2, 10, 1, 10)
	if err := s.Load(seq(j1, j2, j3)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(fcfsPick{}); err != nil {
		t.Fatal(err)
	}
	if j2.StartTime != 100 {
		t.Errorf("j2 start = %g, want 100", j2.StartTime)
	}
	if j3.StartTime < 200 {
		t.Errorf("j3 start = %g, want >= 200 (no backfill)", j3.StartTime)
	}
}

func TestBackfillFillsHole(t *testing.T) {
	// With backfilling: j1 holds 3 of 4 procs until t=100; j2 (4 procs)
	// is blocked with its reservation at t=100; j3 (10s, 1 proc) fits the
	// idle proc and ends before the shadow time, so it backfills.
	s := New(Config{Processors: 4, Backfill: true})
	j1 := job.New(1, 0, 100, 3, 100)
	j2 := job.New(2, 1, 100, 4, 100)
	j3 := job.New(3, 2, 10, 1, 10)
	if err := s.Load(seq(j1, j2, j3)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(fcfsPick{}); err != nil {
		t.Fatal(err)
	}
	if j3.StartTime >= 100 {
		t.Errorf("j3 start = %g, want < 100 (backfilled)", j3.StartTime)
	}
	if j2.StartTime != 100 {
		t.Errorf("j2 start = %g, want exactly 100 — backfill must not delay the reserved job", j2.StartTime)
	}
}

func TestBackfillRespectsReservation(t *testing.T) {
	// j3 is small but LONG (runs past the shadow time) and doesn't fit in
	// the extra processors; it must not delay j2's reservation.
	// Machine: 4 procs. j1 uses 3 procs until t=100. j2 wants 2 procs
	// (shadow t=100, extra = (1+3)-2 = 2). j3 wants 1 proc for 1000s:
	// 1 <= extra(2) -> may backfill into the extra nodes. j4 wants 3
	// procs for 1000s: doesn't fit extra and too long -> must wait.
	s := New(Config{Processors: 4, Backfill: true})
	j1 := job.New(1, 0, 100, 3, 100)
	j2 := job.New(2, 1, 50, 2, 50)
	j3 := job.New(3, 2, 1000, 1, 1000)
	j4 := job.New(4, 3, 1000, 3, 1000)
	if err := s.Load(seq(j1, j2, j3, j4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(fcfsPick{}); err != nil {
		t.Fatal(err)
	}
	if j2.StartTime != 100 {
		t.Errorf("j2 start = %g, want 100 (reservation held)", j2.StartTime)
	}
	if j3.StartTime >= 100 {
		t.Errorf("j3 start = %g, want < 100 (fits extra nodes)", j3.StartTime)
	}
	if j4.StartTime < j2.StartTime {
		t.Errorf("j4 start = %g, must not pass the reserved j2", j4.StartTime)
	}
}

func TestLoadRejectsBadSequences(t *testing.T) {
	s := New(Config{Processors: 2})
	big := job.New(1, 0, 10, 8, 10)
	if err := s.Load(seq(big)); err == nil {
		t.Error("oversized job must be rejected")
	}
	a := job.New(1, 100, 10, 1, 10)
	b := job.New(2, 50, 10, 1, 10)
	if err := s.Load(seq(a, b)); err == nil {
		t.Error("out-of-order sequence must be rejected")
	}
	bad := job.New(3, 0, -5, 1, 10)
	if err := s.Load(seq(bad)); err == nil {
		t.Error("invalid job must be rejected")
	}
	if _, err := s.Run(fcfsPick{}); err == nil {
		t.Error("Run without a loaded sequence must error")
	}
}

func TestOutOfRangePickFallsBack(t *testing.T) {
	s := New(Config{Processors: 1})
	j1 := job.New(1, 0, 10, 1, 10)
	if err := s.Load(seq(j1)); err != nil {
		t.Fatal(err)
	}
	bad := &Priority{pick: 999}
	if _, err := s.Run(bad); err != nil {
		t.Fatal(err)
	}
	if !j1.Started() {
		t.Error("job must still run when the scheduler misbehaves")
	}
}

// Priority is a test scheduler returning a fixed (possibly invalid) index.
type Priority struct{ pick int }

func (p *Priority) Pick(v []*job.Job, _ float64, _ ClusterView) int { return p.pick }

func TestMaxObserveCutoff(t *testing.T) {
	s := New(Config{Processors: 1, MaxObserve: 2})
	var jobs []*job.Job
	for i := 0; i < 5; i++ {
		jobs = append(jobs, job.New(i+1, 0, 10, 1, 10))
	}
	if err := s.Load(jobs); err != nil {
		t.Fatal(err)
	}
	s.advanceToNextEvent()
	if got := len(s.Visible()); got != 2 {
		t.Errorf("visible = %d, want MaxObserve=2", got)
	}
	if s.PendingCount() != 5 {
		t.Errorf("pending = %d, want 5", s.PendingCount())
	}
}

func TestSJFBeatsFCFSOnBsld(t *testing.T) {
	// A long job ahead of many short jobs: SJF's bsld must beat FCFS.
	tr := trace.Preset("Lublin-2", 400, 21)
	run := func(s Scheduler) float64 {
		sm := New(Config{Processors: tr.Processors})
		if err := sm.Load(tr.Window(0, 400)); err != nil {
			t.Fatal(err)
		}
		res, err := sm.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return metrics.Value(metrics.BoundedSlowdown, res)
	}
	f := run(fcfsPick{})
	sj := run(sjfPick{})
	if sj >= f {
		t.Errorf("SJF bsld %.1f must beat FCFS %.1f on a loaded queue", sj, f)
	}
}

func TestSimInvariantsUnderRandomScheduling(t *testing.T) {
	tr := trace.Preset("Lublin-1", 300, 33)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3; trial++ {
		for _, bf := range []bool{false, true} {
			s := New(Config{Processors: tr.Processors, Backfill: bf})
			if err := s.Load(tr.SampleWindow(rng, 150)); err != nil {
				t.Fatal(err)
			}
			for {
				s.Pump(randPick{rng})
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("backfill=%v: %v", bf, err)
				}
				if !s.advanceToNextEvent() {
					break
				}
			}
			res := s.result()
			for _, j := range res.Jobs {
				if !j.Started() {
					t.Fatalf("job %d never started", j.ID)
				}
				if j.StartTime < j.SubmitTime {
					t.Fatalf("job %d started before submit", j.ID)
				}
			}
			if res.Utilization <= 0 || res.Utilization > 1 {
				t.Fatalf("utilization %g out of (0,1]", res.Utilization)
			}
		}
	}
}

// TestCheckInvariantsCatchesCountDrift corrupts the processor counts the
// simulator keeps beside its running jobs, and its committed pick, and
// expects CheckInvariants to notice each one.
func TestCheckInvariantsCatchesCountDrift(t *testing.T) {
	for name, corrupt := range map[string]func(s *Simulator){
		"cluster holds procs no running job requested": func(s *Simulator) {
			if err := s.cluster.Allocate(99, 2); err != nil {
				t.Fatal(err)
			}
		},
		"committed pick is running":    func(s *Simulator) { s.Commit(s.running[0]) },
		"committed pick never arrived": func(s *Simulator) { s.Commit(job.New(9, 0, 10, 1, 10)) },
	} {
		s := New(Config{Processors: 8})
		if err := s.Load(seq(job.New(1, 0, 100, 3, 100), job.New(2, 0, 100, 2, 100))); err != nil {
			t.Fatal(err)
		}
		s.advanceTo(0) // admit both arrivals
		s.Pump(fcfsPick{})
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s: before corruption: %v", name, err)
		}
		corrupt(s)
		if err := s.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants passed", name)
		}
	}
}

func TestBackfillNeverWorseForMakespan(t *testing.T) {
	// Backfilling can only add earlier starts under FCFS picking; the
	// last completion must not be later than without backfilling.
	tr := trace.Preset("SDSC-SP2", 300, 11)
	end := func(bf bool) float64 {
		s := New(Config{Processors: tr.Processors, Backfill: bf})
		if err := s.Load(tr.Window(0, 300)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(fcfsPick{}); err != nil {
			t.Fatal(err)
		}
		return s.Now()
	}
	if withBF, without := end(true), end(false); withBF > without+1e-6 {
		t.Errorf("backfill makespan %.0f > plain %.0f", withBF, without)
	}
}
