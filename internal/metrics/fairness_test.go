package metrics

import (
	"math"
	"testing"

	"rlsched/internal/job"
)

// TestPerUserBuckets: per-user means bucket by UserID, every negative ID
// collapses into the -1 bucket, unstarted jobs are ignored, and the output
// is sorted by user.
func TestPerUserBuckets(t *testing.T) {
	jobs := []*job.Job{
		startedJob(1, 0, 100, 100, 3),  // user 3: sld 2
		startedJob(2, 0, 300, 100, 3),  // user 3: sld 4 → mean 3
		startedJob(3, 0, 0, 100, 0),    // user 0: sld 1
		startedJob(4, 0, 100, 100, -1), // unknown
		startedJob(5, 0, 300, 100, -7), // also unknown: same bucket
		job.New(6, 0, 50, 1, 50),       // unstarted: ignored
	}
	users := PerUser(jobs, BoundedSlowdown)
	if len(users) != 3 {
		t.Fatalf("user buckets = %d, want 3 (got %+v)", len(users), users)
	}
	if users[0].UserID != -1 || users[0].Jobs != 2 || users[0].Mean != 3 {
		t.Errorf("unknown bucket = %+v, want {-1 2 3}", users[0])
	}
	if users[1].UserID != 0 || users[1].Jobs != 1 || users[1].Mean != 1 {
		t.Errorf("user 0 = %+v, want {0 1 1}", users[1])
	}
	if users[2].UserID != 3 || users[2].Jobs != 2 || users[2].Mean != 3 {
		t.Errorf("user 3 = %+v, want {3 2 3}", users[2])
	}
}

// TestPerUserSingleUser: all jobs from one user — FairMax equals the plain
// mean and Jain is exactly 1.
func TestPerUserSingleUser(t *testing.T) {
	jobs := []*job.Job{
		startedJob(1, 0, 100, 100, 5),
		startedJob(2, 0, 300, 100, 5),
	}
	rep := Fairness(jobs, BoundedSlowdown)
	if rep.Users != 1 || rep.MaxUser != 5 {
		t.Fatalf("report = %+v, want 1 user (id 5)", rep)
	}
	if rep.Max != 3 || rep.Min != 3 || rep.Spread != 0 {
		t.Errorf("extremes = %g/%g/%g, want 3/3/0", rep.Max, rep.Min, rep.Spread)
	}
	if rep.Jain != 1 || rep.MaxMeanRatio != 1 {
		t.Errorf("one user must be perfectly fair: jain %g ratio %g", rep.Jain, rep.MaxMeanRatio)
	}
	if got := FairMax(jobs, BoundedSlowdown); got != Value(BoundedSlowdown, Result{Jobs: jobs}) {
		t.Errorf("single-user FairMax %g != mean bsld", got)
	}
}

// TestPerUserAllUnknown: every job in the -1 bucket behaves like one user.
func TestPerUserAllUnknown(t *testing.T) {
	jobs := []*job.Job{
		startedJob(1, 0, 100, 100, -1),
		startedJob(2, 0, 300, 100, -3),
	}
	users := PerUser(jobs, BoundedSlowdown)
	if len(users) != 1 || users[0].UserID != -1 || users[0].Jobs != 2 {
		t.Fatalf("unknown-only buckets = %+v, want one -1 bucket of 2", users)
	}
	if got := FairMax(jobs, BoundedSlowdown); got != 3 {
		t.Errorf("FairMax = %g, want 3", got)
	}
}

// TestFairnessEmpty: no jobs (or none started) — the degenerate report is
// vacuously fair, and FairMax stays 0.
func TestFairnessEmpty(t *testing.T) {
	for _, jobs := range [][]*job.Job{nil, {}, {job.New(1, 0, 50, 1, 50)}} {
		rep := Fairness(jobs, BoundedSlowdown)
		if rep.Users != 0 || rep.Max != 0 || rep.Jain != 1 || rep.MaxMeanRatio != 1 || rep.MaxUser != -1 {
			t.Errorf("empty report = %+v", rep)
		}
		if got := FairMax(jobs, BoundedSlowdown); got != 0 {
			t.Errorf("empty FairMax = %g, want 0", got)
		}
	}
}

// TestFairnessOfExtremes pins Jain's index at its boundaries: uniform
// means → 1, one user absorbing everything → 1/n, all-zero means → 1.
func TestFairnessOfExtremes(t *testing.T) {
	uniform := []UserMean{{UserID: 0, Jobs: 1, Mean: 4}, {UserID: 1, Jobs: 1, Mean: 4}, {UserID: 2, Jobs: 1, Mean: 4}}
	if rep := FairnessOf(uniform); rep.Jain != 1 || rep.MaxMeanRatio != 1 || rep.Spread != 0 {
		t.Errorf("uniform report = %+v", rep)
	}
	oneHot := []UserMean{{UserID: 0, Mean: 9}, {UserID: 1, Mean: 0}, {UserID: 2, Mean: 0}}
	rep := FairnessOf(oneHot)
	if math.Abs(rep.Jain-1.0/3) > 1e-12 {
		t.Errorf("one-hot Jain = %g, want 1/3", rep.Jain)
	}
	if rep.MaxUser != 0 || rep.Max != 9 || rep.Min != 0 || rep.Spread != 9 {
		t.Errorf("one-hot extremes = %+v", rep)
	}
	if math.Abs(rep.MaxMeanRatio-3) > 1e-12 {
		t.Errorf("one-hot ratio = %g, want 3", rep.MaxMeanRatio)
	}
	zeros := []UserMean{{UserID: 0, Mean: 0}, {UserID: 1, Mean: 0}}
	if rep := FairnessOf(zeros); rep.Jain != 1 || rep.MaxMeanRatio != 1 {
		t.Errorf("all-zero report = %+v", rep)
	}
}

// TestFairnessMergeEquivalence: the per-user surface over a Merge'd fleet
// result equals the surface over the members' concatenated jobs, and both
// equal hand-computed fleet-wide means — fleet-wide fairness is
// first-class, not an artifact of slice order.
func TestFairnessMergeEquivalence(t *testing.T) {
	a := Result{
		Jobs: []*job.Job{
			startedJob(1, 0, 100, 100, 0), // user 0 on A: sld 2
			startedJob(2, 0, 300, 100, 1), // user 1 on A: sld 4
		},
		Utilization: 0.5,
	}
	b := Result{
		Jobs: []*job.Job{
			startedJob(3, 0, 700, 100, 0), // user 0 on B: sld 8
		},
		Utilization: 0.5,
	}
	m := Merge([]Result{a, b}, []float64{100, 100})
	merged := Fairness(m.Jobs, BoundedSlowdown)
	concat := Fairness(append(append([]*job.Job{}, a.Jobs...), b.Jobs...), BoundedSlowdown)
	if merged != concat {
		t.Fatalf("merged %+v != concatenated %+v", merged, concat)
	}
	// User 0 spans both clusters: fleet-wide mean (2+8)/2 = 5 beats user
	// 1's 4, so the fleet-wide worst user is 0 — the cross-cluster
	// aggregation a per-cluster FairMax cannot see (per-cluster maxima
	// are 4 and 8 for different users).
	if merged.MaxUser != 0 || merged.Max != 5 {
		t.Fatalf("fleet-wide worst = user %d at %g, want user 0 at 5", merged.MaxUser, merged.Max)
	}
	if got := FairMax(m.Jobs, BoundedSlowdown); got != 5 {
		t.Errorf("fleet-wide FairMax = %g, want 5", got)
	}
	if perA := FairMax(a.Jobs, BoundedSlowdown); perA != 4 {
		t.Errorf("cluster A FairMax = %g, want 4", perA)
	}
}
