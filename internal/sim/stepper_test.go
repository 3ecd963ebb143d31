package sim

import (
	"testing"

	"rlsched/internal/job"
)

func stepJob(id int, submit, runtime float64, procs int) *job.Job {
	return job.New(id, submit, runtime, procs, runtime)
}

// TestSubmitAndEventStepping drives a simulator purely through the
// incremental surface and checks clock, events and work accounting.
func TestSubmitAndEventStepping(t *testing.T) {
	s := New(Config{Processors: 8})
	if _, ok := s.NextEventTime(); ok {
		t.Fatal("fresh simulator reports a pending event")
	}

	a := stepJob(1, 0, 100, 4)
	if err := s.Submit(a); err != nil {
		t.Fatal(err)
	}
	if s.PendingCount() != 1 {
		t.Fatalf("pending = %d, want 1", s.PendingCount())
	}
	if got := s.PendingWork(); got != 400 {
		t.Fatalf("PendingWork = %g, want 400", got)
	}
	if !s.cluster.CanAllocate(a.RequestedProcs) {
		t.Fatal("job fits an idle cluster")
	}
	s.Pump(fcfsPick{})
	if !a.Started() || s.Committed() != nil {
		t.Fatalf("Pump must start the job that fits: started=%v committed=%v", a.Started(), s.Committed())
	}
	if got := s.RunningWorkAt(s.Now()); got != 400 {
		t.Fatalf("RunningWorkAt(now) = %g, want 400", got)
	}

	// A job too wide for the free processors stays committed, not started.
	b := stepJob(2, 0, 50, 6)
	if err := s.Submit(b); err != nil {
		t.Fatal(err)
	}
	if s.cluster.CanAllocate(b.RequestedProcs) {
		t.Fatal("6 procs cannot start with 4 free")
	}
	s.Pump(fcfsPick{})
	if b.Started() || s.Committed() != b {
		t.Fatalf("the unstartable pick must wait committed: started=%v committed=%v", b.Started(), s.Committed())
	}

	et, ok := s.NextEventTime()
	if !ok || et != 100 {
		t.Fatalf("next event = %v,%v, want 100,true", et, ok)
	}
	s.AdvanceClock(50)
	if got := s.RunningWorkAt(s.Now()); got != 200 {
		t.Fatalf("RunningWorkAt(now) at t=50 = %g, want 200", got)
	}
	s.AdvanceClock(40) // never backwards
	if s.Now() != 50 {
		t.Fatalf("clock moved backwards to %g", s.Now())
	}
	s.AdvanceClock(100)
	if !s.cluster.CanAllocate(b.RequestedProcs) {
		t.Fatal("completion must free processors")
	}
	// Starting an existing pick needs no scheduler.
	s.Pump(nil)
	if b.StartTime != 100 || s.Committed() != nil {
		t.Fatalf("committed job started at %g (committed=%v), want 100", b.StartTime, s.Committed())
	}
	s.AdvanceClock(150)
	if s.completed != len(s.seq) {
		t.Fatal("both jobs completed, Done must be true")
	}
	res := s.Result()
	if len(res.Jobs) != 2 || res.Utilization <= 0 {
		t.Fatalf("result jobs=%d util=%g", len(res.Jobs), res.Utilization)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitGuards covers the error paths of the incremental surface.
func TestSubmitGuards(t *testing.T) {
	s := New(Config{Processors: 4})
	if err := s.Submit(stepJob(1, 10, 60, 2)); err == nil {
		t.Fatal("future submission must error before the clock reaches it")
	}
	if err := s.Submit(stepJob(2, 0, 60, 8)); err == nil {
		t.Fatal("a job wider than the cluster must be rejected")
	}

	// Preloaded future arrivals and Submit cannot mix.
	s2 := New(Config{Processors: 4})
	if err := s2.Load([]*job.Job{stepJob(3, 5, 60, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Submit(stepJob(4, 0, 60, 2)); err == nil {
		t.Fatal("Submit must refuse while preloaded arrivals are pending")
	}
}

// TestWithdraw covers the inverse-of-Submit surface: a pending job can be
// withdrawn exactly once, started and unknown jobs cannot, and accounting
// (pending queue, sequence history, Done) stays consistent.
func TestWithdraw(t *testing.T) {
	s := New(Config{Processors: 8})
	a := stepJob(1, 0, 100, 4)
	b := stepJob(2, 0, 50, 2)
	for _, j := range []*job.Job{a, b} {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Withdraw(99); err == nil {
		t.Fatal("withdrawing an unknown job must error")
	}
	got, err := s.Withdraw(1)
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("Withdraw returned %v, want job 1", got)
	}
	if s.PendingCount() != 1 || s.PendingWork() != 100 {
		t.Fatalf("after withdraw: pending=%d work=%g, want 1, 100", s.PendingCount(), s.PendingWork())
	}
	if _, err := s.Withdraw(1); err == nil {
		t.Fatal("double withdraw must error")
	}
	s.Pump(fcfsPick{})
	if !b.Started() {
		t.Fatal("the remaining job fits and must start")
	}
	if _, err := s.Withdraw(2); err == nil {
		t.Fatal("withdrawing a started job must error")
	}
	s.AdvanceClock(50)
	if s.completed != len(s.seq) {
		t.Fatal("the only remaining job completed; Done must account for the withdrawal")
	}
	if n := len(s.Result().Jobs); n != 1 {
		t.Fatalf("result holds %d jobs, want 1 (withdrawn job left the history)", n)
	}

	// Withdraw is Submit-mode only, like Submit itself.
	s2 := New(Config{Processors: 4})
	if err := s2.Load([]*job.Job{stepJob(3, 5, 60, 2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Withdraw(3); err == nil {
		t.Fatal("Withdraw must refuse while preloaded arrivals are pending")
	}

	// Withdrawing the committed pick clears it, resubmitting does not
	// commit it again, and Commit restores it.
	s3 := New(Config{Processors: 4})
	long, wide := stepJob(4, 0, 100, 4), stepJob(5, 0, 50, 4)
	for _, j := range []*job.Job{long, wide} {
		if err := s3.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	s3.Pump(fcfsPick{})
	if !long.Started() || s3.Committed() != wide {
		t.Fatalf("want long running and wide committed, got committed=%v", s3.Committed())
	}
	w, err := s3.Withdraw(wide.ID)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Committed() != nil {
		t.Fatal("withdrawing the committed job must clear the pick")
	}
	if err := s3.Submit(w); err != nil {
		t.Fatal(err)
	}
	if s3.Committed() != nil {
		t.Fatal("Submit must not commit a pick")
	}
	s3.Commit(w)
	if s3.Committed() != wide {
		t.Fatal("Commit must restore the pick")
	}
	if err := s3.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s3.AdvanceClock(100)
	s3.Pump(nil)
	if wide.StartTime != 100 {
		t.Fatalf("restored pick started at %g, want 100", wide.StartTime)
	}
}

// TestWithdrawResubmitParity is the migration subsystem's correctness
// anchor: withdrawing a pending job and immediately resubmitting it to the
// same simulator must reproduce the untouched run exactly — same queue
// order, same start times, same metrics — even when the job sits in the
// middle of the queue.
func TestWithdrawResubmitParity(t *testing.T) {
	mk := func() []*job.Job {
		return []*job.Job{
			stepJob(1, 0, 1000, 8), // occupies the whole cluster
			stepJob(2, 1, 300, 4),
			stepJob(3, 2, 200, 4),
			stepJob(4, 3, 100, 2),
		}
	}
	run := func(disturb bool) []*job.Job {
		s := New(Config{Processors: 8, Backfill: true})
		jobs := mk()
		for _, j := range jobs {
			s.AdvanceClock(j.SubmitTime)
			if err := s.Submit(j); err != nil {
				t.Fatal(err)
			}
		}
		if disturb {
			// Pull job 3 out of the middle of the queue and put it back.
			w, err := s.Withdraw(3)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Submit(w); err != nil {
				t.Fatal(err)
			}
			if vis := s.Visible(); vis[2].ID != 3 {
				t.Fatalf("resubmitted job lost its queue position: %v", vis)
			}
		}
		// Drive FCFS to completion through the stepping surface.
		for {
			s.Pump(fcfsPick{})
			et, ok := s.NextEventTime()
			if !ok {
				break
			}
			s.AdvanceClock(et)
		}
		return jobs
	}
	ref, got := run(false), run(true)
	for i := range ref {
		if ref[i].StartTime != got[i].StartTime {
			t.Fatalf("job %d: start %g without withdraw, %g with withdraw-resubmit",
				ref[i].ID, ref[i].StartTime, got[i].StartTime)
		}
	}
}

// TestPumpBackfillsAroundCommittedJob: while the committed job waits, Pump
// backfills only jobs that cannot delay its reservation, and starts it the
// moment it fits.
func TestPumpBackfillsAroundCommittedJob(t *testing.T) {
	s := New(Config{Processors: 8, Backfill: true})
	long := stepJob(1, 0, 1000, 8)
	if err := s.Submit(long); err != nil {
		t.Fatal(err)
	}
	s.Pump(fcfsPick{})
	if !long.Started() {
		t.Fatal("long fits an idle cluster")
	}
	// Wide job must wait for the full cluster; a short narrow job can
	// backfill ahead of it without delaying its reservation.
	wide := stepJob(2, 0, 100, 8)
	short := stepJob(3, 0, 50, 2)
	if err := s.Submit(wide); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(short); err != nil {
		t.Fatal(err)
	}
	s.Pump(fcfsPick{})
	if s.Committed() != wide {
		t.Fatalf("FCFS must commit to wide, got %v", s.Committed())
	}
	if short.Started() {
		t.Fatal("nothing is free at t=0; backfill cannot start anything")
	}
	s.AdvanceClock(1000) // long completes; 8 free
	// wide's reservation is now: it starts, and short (50s, 2p) would
	// delay it, so short does not backfill ahead of it.
	s.Pump(nil)
	if wide.StartTime != 1000 {
		t.Fatalf("wide started at %g, want 1000", wide.StartTime)
	}
	if short.Started() {
		t.Fatal("backfill must not delay the committed job's reservation")
	}
}

// TestCompletionsLog: the append-only completion log records finished
// jobs in completion order, survives incremental stepping, and a new Load
// starts it empty.
func TestCompletionsLog(t *testing.T) {
	s := New(Config{Processors: 8})
	if got := s.Completions(); len(got) != 0 {
		t.Fatalf("fresh simulator logs %d completions", len(got))
	}
	a := stepJob(1, 0, 100, 4) // completes at 100
	b := stepJob(2, 0, 50, 4)  // completes at 50
	for _, j := range []*job.Job{a, b} {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
		s.Pump(fcfsPick{})
	}
	s.AdvanceClock(60)
	if got := s.Completions(); len(got) != 1 || got[0] != b {
		t.Fatalf("after t=60 log = %v, want [b]", got)
	}
	s.AdvanceClock(200)
	got := s.Completions()
	if len(got) != 2 || got[0] != b || got[1] != a {
		t.Fatalf("log = %v, want [b a] in completion order", got)
	}
	// The log is append-only within a run: the earlier read's prefix is
	// untouched, and a cursor-style consumer sees only the tail.
	if err := s.Load(nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Completions(); len(got) != 0 {
		t.Fatalf("Load must clear the log, got %d entries", len(got))
	}
}
