package fleet

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"rlsched/internal/cluster"
	"rlsched/internal/job"
	"rlsched/internal/metrics"
	"rlsched/internal/obs"
	"rlsched/internal/sched"
	"rlsched/internal/sim"
)

// TestEnableMigrationValidation covers the configuration guards.
func TestEnableMigrationValidation(t *testing.T) {
	f, err := New(heteroMembers(), LeastLoadedPipeline())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.EnableMigration(MigrationConfig{}); err == nil {
		t.Fatal("zero interval must be rejected")
	}
	if err := f.EnableMigration(MigrationConfig{Interval: 10, Hysteresis: -1}); err == nil {
		t.Fatal("negative hysteresis must be rejected")
	}
	// NaN would silently disable every sweep (it never compares <= the
	// clock) or every move; both must fail loudly instead.
	if err := f.EnableMigration(MigrationConfig{Interval: math.NaN()}); err == nil {
		t.Fatal("NaN interval must be rejected")
	}
	if err := f.EnableMigration(MigrationConfig{Interval: 10, Hysteresis: math.NaN()}); err == nil {
		t.Fatal("NaN hysteresis must be rejected")
	}
	if err := f.EnableMigration(HysteresisMigration(100)); err != nil {
		t.Fatal(err)
	}

	r, err := New(heteroMembers(), NewRandom(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.EnableMigration(HysteresisMigration(100)); err == nil {
		t.Fatal("an unscored router cannot drive migration")
	}
}

// TestMigrationParityWhenIneffective pins the acceptance guarantee: a
// migration controller that never finds a worthwhile move (the hysteresis
// margin exceeds the pipeline's whole score range) must reproduce the
// migration-disabled run byte-for-byte — same assignments, same per-job
// start times, same fleet metrics — even though every sweep withdraws and
// resubmits every pending job.
func TestMigrationParityWhenIneffective(t *testing.T) {
	for _, tc := range []struct {
		name    string
		members func() []MemberConfig
		stream  []*job.Job
	}{
		{"lublin", heteroMembers, lublinStream(t, 250, 13)},
		{"coincident-horizon", strandedMembers, coincidentHorizon()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, err := New(tc.members(), LeastLoadedPipeline())
			if err != nil {
				t.Fatal(err)
			}
			baseStream := cloneStream(tc.stream)
			baseRes, err := base.Run(baseStream)
			if err != nil {
				t.Fatal(err)
			}

			mig, err := New(tc.members(), LeastLoadedPipeline())
			if err != nil {
				t.Fatal(err)
			}
			// Margin larger than any normalized pipeline score: probes
			// everywhere, moves nowhere. A short interval maximizes the
			// number of probes.
			if err := mig.EnableMigration(MigrationConfig{Interval: 50, Hysteresis: 1e9}); err != nil {
				t.Fatal(err)
			}
			migStream := cloneStream(tc.stream)
			migRes, err := mig.Run(migStream)
			if err != nil {
				t.Fatal(err)
			}

			for i := range baseRes.Assignments {
				if baseRes.Assignments[i] != migRes.Assignments[i] {
					t.Fatalf("job %d assigned to %d without migration, %d with ineffective migration",
						i, baseRes.Assignments[i], migRes.Assignments[i])
				}
			}
			for i := range baseStream {
				if baseStream[i].StartTime != migStream[i].StartTime {
					t.Fatalf("job %d starts at %g without migration, %g with ineffective migration",
						i, baseStream[i].StartTime, migStream[i].StartTime)
				}
			}
			for _, k := range []metrics.Kind{metrics.BoundedSlowdown, metrics.WaitTime} {
				a, b := metrics.Value(k, baseRes.Fleet), metrics.Value(k, migRes.Fleet)
				if a != b {
					t.Fatalf("%v: %g without migration, %g with ineffective migration", k, a, b)
				}
			}
			// Utilization integrates busy time; sweeps split the integration
			// interval at sweep instants, so the non-associative float sum
			// may differ in the last ulp even though the schedule is
			// identical.
			a, b := baseRes.Fleet.Utilization, migRes.Fleet.Utilization
			if math.Abs(a-b) > 1e-12 {
				t.Fatalf("util: %g without migration, %g with ineffective migration", a, b)
			}
			if migRes.Fleet.Moves != 0 || len(migRes.Fleet.MigratedJobs) != 0 {
				t.Fatalf("ineffective migration recorded %d moves, %d migrated jobs",
					migRes.Fleet.Moves, len(migRes.Fleet.MigratedJobs))
			}
		})
	}
}

// coincidentHorizon is the utilization-horizon regression input (run on
// strandedMembers under LeastLoadedPipeline): one job per member, both
// ending at t=100 — a sweep or sample instant for intervals 25, 50 and
// 100 — so the last completion is processed inside a hook. Fleet
// utilization is 0.475 (32·100 + 32·90 proc·s over 128 procs × 100 s);
// a horizon that stops at the last arrival (t=10) reports 1.0.
func coincidentHorizon() []*job.Job {
	return []*job.Job{job.New(1, 0, 100, 32, 100), job.New(2, 10, 90, 32, 90)}
}

// strandedScenario builds the textbook case for re-placement: cluster A's
// queue hides work the placement-time signals underestimate (tiny
// requested times, huge actual runtimes), so a job routed to A by
// least-loaded is stranded behind hours of surprise work while cluster B
// drains. Returns the stream; the stranded job is the last one.
func strandedScenario() []*job.Job {
	mk := func(id int, submit, run float64, procs int, req float64) *job.Job {
		return job.New(id, submit, run, procs, req)
	}
	return []*job.Job{
		// Seed both clusters with one full-width running job each.
		mk(1, 0, 100, 64, 100), // → A (tie breaks low)
		mk(2, 0, 500, 64, 500), // → B
		// Queue "cheap-looking" work on A: 10s requested, 4000s actual.
		mk(3, 1, 4000, 64, 10), // → A (B carries 500s)
		mk(4, 2, 4000, 64, 10), // → A still looks cheaper
		// The victim: routed to A on the same stale signals, then stuck
		// behind ~8000s of surprise work unless migrated to B, which is
		// idle from t=500.
		mk(5, 3, 60, 32, 60),
	}
}

func strandedMembers() []MemberConfig {
	return []MemberConfig{
		{Name: "A", Sim: sim.Config{Processors: 64, MaxObserve: 32}, Scheduler: sched.FCFS()},
		{Name: "B", Sim: sim.Config{Processors: 64, MaxObserve: 32}, Scheduler: sched.FCFS()},
	}
}

// TestMigrationRescuesStrandedJob: with migration off the victim waits for
// A's backlog; with hysteresis migration the first post-drain sweep moves
// it to the idle cluster B and it starts immediately. Fleet-wide bounded
// slowdown must strictly improve and every migration counter must agree.
func TestMigrationRescuesStrandedJob(t *testing.T) {
	run := func(enable bool) (*Result, []*job.Job) {
		f, err := New(strandedMembers(), LeastLoadedPipeline())
		if err != nil {
			t.Fatal(err)
		}
		if enable {
			if err := f.EnableMigration(HysteresisMigration(200)); err != nil {
				t.Fatal(err)
			}
		}
		stream := strandedScenario()
		res, err := f.Run(stream)
		if err != nil {
			t.Fatal(err)
		}
		return res, stream
	}

	off, offStream := run(false)
	on, onStream := run(true)

	victimOff, victimOn := offStream[4], onStream[4]
	if victimOff.StartTime < 4000 {
		t.Fatalf("scenario broken: victim started at %g without migration (expected to be stranded)",
			victimOff.StartTime)
	}
	if victimOn.StartTime >= victimOff.StartTime {
		t.Fatalf("migration did not rescue the victim: start %g vs %g",
			victimOn.StartTime, victimOff.StartTime)
	}
	offBsld := metrics.Value(metrics.BoundedSlowdown, off.Fleet)
	onBsld := metrics.Value(metrics.BoundedSlowdown, on.Fleet)
	if onBsld >= offBsld {
		t.Fatalf("fleet bsld %g with migration, %g without: no improvement", onBsld, offBsld)
	}

	if on.Fleet.Moves < 1 {
		t.Fatal("no moves recorded")
	}
	found := false
	for _, j := range on.Fleet.MigratedJobs {
		if j.ID == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("victim missing from MigratedJobs: %v", on.Fleet.MigratedJobs)
	}
	if d := metrics.MeanMigrationDelay(on.Fleet); d <= 0 {
		t.Fatalf("mean migration delay = %g, want > 0", d)
	}
	migBsld, natBsld := metrics.MigrationSplit(metrics.BoundedSlowdown, on.Fleet)
	if migBsld <= 0 || natBsld <= 0 {
		t.Fatalf("migration split = %g/%g, want both positive", migBsld, natBsld)
	}
	in, out := 0, 0
	for _, c := range on.Clusters {
		in += c.MovedIn
		out += c.MovedOut
	}
	if in != out || in != on.Fleet.Moves {
		t.Fatalf("move accounting disagrees: in=%d out=%d fleet=%d", in, out, on.Fleet.Moves)
	}
	// The victim kept its original arrival time: its wait is measured from
	// submission, not from the migration instant.
	if w := victimOn.Wait(); w != victimOn.StartTime-victimOn.SubmitTime {
		t.Fatalf("victim wait %g not measured from original submission", w)
	}
}

// TestMigrationBudgetAndCooldown: under a per-job lifetime cap of one move
// (MaxMovesPerJob=1) an aggressive controller still rescues the two
// stranded jobs but never moves any job twice.
func TestMigrationBudgetAndCooldown(t *testing.T) {
	mk := func(id int, submit, run float64, procs int, req float64) *job.Job {
		return job.New(id, submit, run, procs, req)
	}
	stream := []*job.Job{
		mk(1, 0, 100, 64, 100),
		mk(2, 0, 500, 64, 500),
		mk(3, 1, 4000, 64, 10),
		mk(4, 2, 4000, 64, 10),
		mk(5, 3, 60, 32, 60), // stranded victim #1
		mk(6, 4, 60, 32, 60), // stranded victim #2
	}
	f, err := New(strandedMembers(), LeastLoadedPipeline())
	if err != nil {
		t.Fatal(err)
	}
	cfg := MigrationConfig{
		Interval:       200,
		Hysteresis:     0.25,
		MaxMovesPerJob: 1,
	}
	if err := f.EnableMigration(cfg); err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fleet.Moves == 0 {
		t.Fatal("budgeted migration still must move the stranded jobs")
	}
	// Lifetime cap: no job may account for more than one move.
	perJob := map[int]int{}
	for _, c := range res.Clusters {
		if c.Result.Moves > 0 && len(c.Result.MigratedJobs) == 0 {
			t.Fatalf("cluster %s reports %d moves but no migrated jobs", c.Name, c.Result.Moves)
		}
	}
	if res.Fleet.Moves > len(res.Fleet.MigratedJobs) {
		t.Fatalf("MaxMovesPerJob=1 violated: %d moves across %d jobs",
			res.Fleet.Moves, len(res.Fleet.MigratedJobs))
	}
	for _, j := range res.Fleet.MigratedJobs {
		perJob[j.ID]++
		if perJob[j.ID] > 1 {
			t.Fatalf("job %d appears twice in MigratedJobs", j.ID)
		}
	}
	if math.IsNaN(metrics.Value(metrics.BoundedSlowdown, res.Fleet)) {
		t.Fatal("bsld must stay finite")
	}
}

// flipScorer sends job k (k < 3) to member k-1 and job 3 to member 0
// before t=50, to member 1 in [50, 150) and back to member 0 from t=150 on.
type flipScorer struct{}

func (flipScorer) Name() string { return "flip" }
func (flipScorer) Score(j *job.Job, cands []*Candidate, out []float64) {
	want := j.ID - 1
	if j.ID == 3 {
		want = 0
		if now := cands[0].Now; now >= 50 && now < 150 {
			want = 1
		}
	}
	for i, c := range cands {
		out[i] = 0
		if c.Index == want {
			out[i] = 1
		}
	}
}

// TestMigrationCooldownDefersReMove: job 3 waits behind full-width work on
// both members while the scorer's preference flips under it. The sweep at
// 100 moves it A → B; at 200 the scorer wants it back, but it moved 100 s
// ago and the cooldown is 150 s, so the probe is skipped for the cooldown;
// at 300 the cooldown has run out and it moves back to A.
func TestMigrationCooldownDefersReMove(t *testing.T) {
	f, err := New(strandedMembers(), NewPipeline("flip", []Filter{CapacityFilter{}}, []WeightedScorer{{flipScorer{}, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	cfg := MigrationConfig{Interval: 100, Hysteresis: 0.25, Cooldown: 150, MigrateCommitted: true}
	if err := f.EnableMigration(cfg); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewCollector()
	f.SetRecorder(rec)
	stream := []*job.Job{
		job.New(1, 0, 10000, 64, 10000), // fills A
		job.New(2, 0, 10000, 64, 10000), // fills B
		job.New(3, 1, 60, 32, 60),       // waits on A
	}
	if _, err := f.Run(stream); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range rec.Migrations() {
		if p.Job.ID == 3 && p.Time <= 300 {
			got = append(got, fmt.Sprintf("%g %s %s moved=%v", p.Time, p.FromName, p.Reason, p.Moved))
		}
	}
	want := []string{
		"100 A " + obs.ReasonMoved + " moved=true",
		"200 B " + obs.ReasonCooldown + " moved=false",
		"300 B " + obs.ReasonMoved + " moved=true",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("job 3's probes:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if stream[2].StartTime != 10000 {
		t.Fatalf("job 3 started at %g, want 10000 when A frees", stream[2].StartTime)
	}
}

// TestStartsNowMatchesCanAllocate: behind an empty queue the start-now gate
// answers what the member's cluster.CanAllocate answers, for every job
// width (zero included) and free count; behind a queued job it says no.
func TestStartsNowMatchesCanAllocate(t *testing.T) {
	const total = 8
	for free := 0; free <= total; free++ {
		cl := cluster.New(total)
		if free < total {
			if err := cl.Allocate(99, total-free); err != nil {
				t.Fatal(err)
			}
		}
		for procs := 0; procs <= total+1; procs++ {
			j := &job.Job{RequestedProcs: procs}
			c := &Candidate{View: sim.ClusterView{FreeProcs: cl.Free(), TotalProcs: total}}
			if got, want := StartsNow(c, j), cl.CanAllocate(procs); got != want {
				t.Errorf("free %d, procs %d: StartsNow = %v, CanAllocate = %v", free, procs, got, want)
			}
			if c.Pending = 1; StartsNow(c, j) {
				t.Errorf("free %d, procs %d: StartsNow behind a queued job", free, procs)
			}
		}
	}
}
