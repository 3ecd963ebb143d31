package metrics

import (
	"testing"

	"rlsched/internal/job"
)

func startedJob(id int, submit, start, run float64, user int) *job.Job {
	j := job.New(id, submit, run, 1, run)
	j.StartTime = start
	j.EndTime = start + run
	j.UserID = user
	return j
}

func TestKindStringRoundTrip(t *testing.T) {
	for _, k := range Kinds {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind must reject unknown names")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind must still print")
	}
}

func TestMaximize(t *testing.T) {
	if !Utilization.Maximize() {
		t.Error("utilization is a maximization goal")
	}
	for _, k := range []Kind{BoundedSlowdown, Slowdown, WaitTime, Turnaround, FairMaxBoundedSlowdown} {
		if k.Maximize() {
			t.Errorf("%v must be a minimization goal", k)
		}
	}
}

func TestValueAverages(t *testing.T) {
	r := Result{Jobs: []*job.Job{
		startedJob(1, 0, 100, 100, 0), // wait 100, turnaround 200, sld 2
		startedJob(2, 0, 300, 100, 1), // wait 300, turnaround 400, sld 4
		job.New(3, 0, 50, 1, 50),      // unstarted: ignored
	}, Utilization: 0.7}

	if v := Value(WaitTime, r); v != 200 {
		t.Errorf("wait = %g, want 200", v)
	}
	if v := Value(Turnaround, r); v != 300 {
		t.Errorf("resp = %g, want 300", v)
	}
	if v := Value(Slowdown, r); v != 3 {
		t.Errorf("slowdown = %g, want 3", v)
	}
	if v := Value(BoundedSlowdown, r); v != 3 {
		t.Errorf("bsld = %g, want 3", v)
	}
	if v := Value(Utilization, r); v != 0.7 {
		t.Errorf("util = %g, want 0.7", v)
	}
}

func TestValueEmpty(t *testing.T) {
	if v := Value(BoundedSlowdown, Result{}); v != 0 {
		t.Errorf("empty result = %g, want 0", v)
	}
}

func TestFairMax(t *testing.T) {
	jobs := []*job.Job{
		startedJob(1, 0, 0, 100, 0),   // user 0: sld 1
		startedJob(2, 0, 100, 100, 0), // user 0: sld 2 -> avg 1.5
		startedJob(3, 0, 900, 100, 1), // user 1: sld 10 -> avg 10
	}
	if v := FairMax(jobs, BoundedSlowdown); v != 10 {
		t.Errorf("FairMax = %g, want 10 (worst user)", v)
	}
	r := Result{Jobs: jobs}
	if v := Value(FairMaxBoundedSlowdown, r); v != 10 {
		t.Errorf("Value(fair) = %g, want 10", v)
	}
	if v := FairMax(nil, BoundedSlowdown); v != 0 {
		t.Errorf("FairMax(nil) = %g, want 0", v)
	}
}

func TestRewardSign(t *testing.T) {
	r := Result{Jobs: []*job.Job{startedJob(1, 0, 100, 100, 0)}, Utilization: 0.8}
	if got := Reward(BoundedSlowdown, r); got != -2 {
		t.Errorf("bsld reward = %g, want -2 (negated)", got)
	}
	if got := Reward(Utilization, r); got != 0.8 {
		t.Errorf("util reward = %g, want +0.8", got)
	}
}

func TestMergeResults(t *testing.T) {
	a := Result{
		Jobs:        []*job.Job{startedJob(1, 0, 0, 10, 0), startedJob(2, 0, 90, 10, 0)},
		Utilization: 0.8,
	}
	b := Result{
		Jobs:        []*job.Job{startedJob(3, 0, 0, 10, 1)},
		Utilization: 0.2,
	}
	m := Merge([]Result{a, b}, []float64{300, 100})
	if len(m.Jobs) != 3 {
		t.Fatalf("merged jobs = %d, want 3", len(m.Jobs))
	}
	// (0.8*300 + 0.2*100) / 400 = 0.65
	if got := m.Utilization; got != 0.65 {
		t.Fatalf("merged utilization = %g, want 0.65", got)
	}
	// Job-averaged metrics must weight every job equally across clusters:
	// waits are 0, 90, 0 → mean 30.
	if got := Value(WaitTime, m); got != 30 {
		t.Fatalf("merged mean wait = %g, want 30", got)
	}
	if got := Merge(nil, nil); got.Utilization != 0 || got.Jobs != nil {
		t.Fatalf("empty merge = %+v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths must panic")
		}
	}()
	Merge([]Result{a}, []float64{1, 2})
}

// TestMergeEdgeCases pins the degenerate Merge inputs: empty slices,
// single results (identity), zero-processor members, and both directions
// of the length-mismatch panic.
func TestMergeEdgeCases(t *testing.T) {
	// Empty (non-nil) input: a zero result, no panic.
	if got := Merge([]Result{}, []float64{}); got.Utilization != 0 || len(got.Jobs) != 0 {
		t.Fatalf("empty-slice merge = %+v", got)
	}

	// Single result: Merge is the identity on every field.
	solo := Result{
		Jobs:              []*job.Job{startedJob(1, 0, 10, 10, 0)},
		Utilization:       0.4,
		MigratedJobs:      []*job.Job{startedJob(2, 0, 5, 5, 0)},
		Moves:             3,
		MigrationDelaySum: 17,
	}
	m := Merge([]Result{solo}, []float64{128})
	if len(m.Jobs) != 1 || m.Utilization != 0.4 ||
		len(m.MigratedJobs) != 1 || m.Moves != 3 || m.MigrationDelaySum != 17 {
		t.Fatalf("single merge is not the identity: %+v", m)
	}

	// Zero total processors: utilization must stay 0, not divide by zero.
	z := Merge([]Result{{Utilization: 0.9}}, []float64{0})
	if z.Utilization != 0 {
		t.Fatalf("zero-proc merge utilization = %g, want 0", z.Utilization)
	}

	// Mismatched proc counts panic in both directions.
	for _, procs := range [][]float64{{1, 2}, nil} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Merge with %d results, %d procs must panic", 1, len(procs))
				}
			}()
			Merge([]Result{solo}, procs)
		}()
	}
}

// TestMergeMigrationRoundTrip: migration fields must survive a merge —
// job sets concatenate, counters sum — and the split/delay helpers must
// read the merged result correctly.
func TestMergeMigrationRoundTrip(t *testing.T) {
	mig := startedJob(1, 0, 300, 100, 0)  // wait 300 → bsld 4
	nat := startedJob(2, 0, 100, 100, 0)  // wait 100 → bsld 2
	nat2 := startedJob(3, 0, 300, 100, 1) // wait 300 → bsld 4
	a := Result{
		Jobs:              []*job.Job{mig, nat},
		Utilization:       0.5,
		MigratedJobs:      []*job.Job{mig},
		Moves:             2,
		MigrationDelaySum: 120,
	}
	b := Result{Jobs: []*job.Job{nat2}, Utilization: 0.5}
	m := Merge([]Result{a, b}, []float64{100, 100})
	if m.Moves != 2 || len(m.MigratedJobs) != 1 || m.MigrationDelaySum != 120 {
		t.Fatalf("migration fields lost in merge: %+v", m)
	}
	gotMig, gotNat := MigrationSplit(BoundedSlowdown, m)
	if gotMig != 4 {
		t.Errorf("migrated bsld = %g, want 4", gotMig)
	}
	if gotNat != 3 { // (2 + 4) / 2
		t.Errorf("native bsld = %g, want 3", gotNat)
	}
	if d := MeanMigrationDelay(m); d != 120 {
		t.Errorf("mean migration delay = %g, want 120", d)
	}
	if d := MeanMigrationDelay(b); d != 0 {
		t.Errorf("delay without migrations = %g, want 0", d)
	}
	// Utilization is a cluster property: both halves of the split carry it.
	u1, u2 := MigrationSplit(Utilization, m)
	if u1 != m.Utilization || u2 != m.Utilization {
		t.Errorf("utilization split = %g/%g, want %g both", u1, u2, m.Utilization)
	}
}
