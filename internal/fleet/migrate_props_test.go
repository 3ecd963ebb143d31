package fleet

import (
	"math"
	"math/rand"
	"testing"

	"rlsched/internal/metrics"
	"rlsched/internal/obs"
	"rlsched/internal/sched"
	"rlsched/internal/sim"
)

// Randomized property tests for the migration controller: for arbitrary
// fleets, streams and budgets, conservation and the configured limits must
// hold exactly, and an ineffective controller must be byte-invisible.

// randomMembers draws 2–4 members. The first is always a 256-proc cluster
// so every Lublin job fits somewhere.
func randomMembers(rng *rand.Rand) []MemberConfig {
	scheds := []func() sim.Scheduler{
		func() sim.Scheduler { return sched.FCFS() },
		func() sim.Scheduler { return sched.SJF() },
		func() sim.Scheduler { return sched.F1() },
	}
	sizes := []int{256, 128, 64}
	n := 2 + rng.Intn(3)
	members := make([]MemberConfig, n)
	for i := range members {
		size := sizes[rng.Intn(len(sizes))]
		if i == 0 {
			size = 256
		}
		members[i] = MemberConfig{
			Name: string(rune('A' + i)),
			Sim: sim.Config{
				Processors: size,
				Backfill:   rng.Intn(2) == 0,
				MaxObserve: 32,
			},
			Scheduler: scheds[rng.Intn(len(scheds))](),
		}
	}
	return members
}

// randomMigration draws a budgeted controller config.
func randomMigration(rng *rand.Rand) MigrationConfig {
	return MigrationConfig{
		Interval:         100 + rng.Float64()*1900,
		Hysteresis:       []float64{0, 0.1, 0.3}[rng.Intn(3)],
		Cooldown:         float64(rng.Intn(3)) * 500,
		MaxMovesPerJob:   1 + rng.Intn(3), // always capped: the audit below needs a bound
		RequireStartNow:  rng.Intn(2) == 0,
		MigrateCommitted: rng.Intn(2) == 0,
	}
}

// TestMigrationInvariantsRandom: across random fleets, streams and
// configs — jobs are conserved exactly, every placement/move counter
// agrees, and the per-job move cap and per-job cooldown hold for every job
// (audited against the migration probes of an attached recorder, whose
// cap and cooldown skips must also be justified by the moves before them).
func TestMigrationInvariantsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 10; iter++ {
		stream := lublinStream(t, 150+rng.Intn(150), rng.Int63())
		cfg := randomMigration(rng)
		f, err := New(randomMembers(rng), LeastLoadedPipeline())
		if err != nil {
			t.Fatal(err)
		}
		if err := f.EnableMigration(cfg); err != nil {
			t.Fatal(err)
		}
		rec := obs.NewCollector()
		f.SetRecorder(rec)
		res, err := f.Run(stream)
		if err != nil {
			t.Fatalf("iter %d (cfg %+v): %v", iter, cfg, err)
		}

		// Conservation: every submitted job appears exactly once in the
		// fleet result, and every one of them ran.
		if len(res.Fleet.Jobs) != len(stream) {
			t.Fatalf("iter %d: %d jobs in, %d out", iter, len(stream), len(res.Fleet.Jobs))
		}
		seen := map[int]int{}
		for _, j := range res.Fleet.Jobs {
			seen[j.ID]++
			if !j.Started() {
				t.Fatalf("iter %d: job %d never started", iter, j.ID)
			}
		}
		for _, j := range stream {
			if seen[j.ID] != 1 {
				t.Fatalf("iter %d: job %d appears %d times in the result", iter, j.ID, seen[j.ID])
			}
		}
		placements, movedIn, movedOut := 0, 0, 0
		for _, c := range res.Clusters {
			placements += c.Placements
			movedIn += c.MovedIn
			movedOut += c.MovedOut
		}
		if placements != len(stream) {
			t.Fatalf("iter %d: %d placements for %d jobs", iter, placements, len(stream))
		}
		if movedIn != movedOut || movedIn != res.Fleet.Moves {
			t.Fatalf("iter %d: move accounting disagrees: in=%d out=%d fleet=%d",
				iter, movedIn, movedOut, res.Fleet.Moves)
		}

		// Budget audit against the recorded probes: each job's move
		// instants, in sweep order.
		moves := map[int][]float64{}
		totalMoves := 0
		for _, p := range rec.Migrations() {
			prev := moves[p.Job.ID]
			switch {
			case p.Moved:
				if len(prev) >= cfg.MaxMovesPerJob {
					t.Fatalf("iter %d: job %d moved again after %d moves, cap %d", iter, p.Job.ID, len(prev), cfg.MaxMovesPerJob)
				}
				if len(prev) > 0 && p.Time-prev[len(prev)-1] < cfg.Cooldown {
					t.Fatalf("iter %d: job %d re-moved after %g s, cooldown %g", iter, p.Job.ID, p.Time-prev[len(prev)-1], cfg.Cooldown)
				}
				moves[p.Job.ID] = append(prev, p.Time)
				totalMoves++
			case p.Reason == obs.ReasonMoveCap && len(prev) < cfg.MaxMovesPerJob:
				t.Fatalf("iter %d: job %d skipped for the move cap after %d moves", iter, p.Job.ID, len(prev))
			case p.Reason == obs.ReasonCooldown && (len(prev) == 0 || p.Time-prev[len(prev)-1] >= cfg.Cooldown):
				t.Fatalf("iter %d: job %d skipped for a cooldown that had run out", iter, p.Job.ID)
			}
		}
		if totalMoves != res.Fleet.Moves {
			t.Fatalf("iter %d: probes record %d moves, metrics report %d", iter, totalMoves, res.Fleet.Moves)
		}
		// MigratedJobs must be exactly the jobs with a recorded move.
		if len(res.Fleet.MigratedJobs) != len(moves) {
			t.Fatalf("iter %d: %d MigratedJobs vs %d jobs with moves", iter, len(res.Fleet.MigratedJobs), len(moves))
		}
		for _, j := range res.Fleet.MigratedJobs {
			if moves[j.ID] == nil {
				t.Fatalf("iter %d: job %d in MigratedJobs without a move log", iter, j.ID)
			}
		}
	}
}

// TestMigrationParityRandomizedSweep generalizes
// TestMigrationParityWhenIneffective across random fleets and streams: a
// controller whose hysteresis no normalized margin can clear must
// reproduce the migration-disabled run byte-for-byte — including with the
// committed pick in scope — even though every sweep withdraws and
// resubmits the whole backlog. Iterations 6 and up snap the stream to a
// one-minute grid (gridTimes) and the sweep interval to a multiple of it,
// so the last completion often lands on a sweep instant.
func TestMigrationParityRandomizedSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 12; iter++ {
		members := randomMembers(rng)
		stream := lublinStream(t, 150+rng.Intn(100), rng.Int63())
		interval := 50 + rng.Float64()*500
		if iter >= 6 {
			gridTimes(stream, 60)
			interval = 60 * float64(1+rng.Intn(4))
		}

		base, err := New(members, LeastLoadedPipeline())
		if err != nil {
			t.Fatal(err)
		}
		baseStream := cloneStream(stream)
		baseRes, err := base.Run(baseStream)
		if err != nil {
			t.Fatal(err)
		}

		mig, err := New(members, LeastLoadedPipeline())
		if err != nil {
			t.Fatal(err)
		}
		cfg := MigrationConfig{
			Interval:         interval,
			Hysteresis:       1e9,
			MigrateCommitted: iter%2 == 0,
		}
		if err := mig.EnableMigration(cfg); err != nil {
			t.Fatal(err)
		}
		migStream := cloneStream(stream)
		migRes, err := mig.Run(migStream)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}

		for i := range baseRes.Assignments {
			if baseRes.Assignments[i] != migRes.Assignments[i] {
				t.Fatalf("iter %d: job %d assigned to %d vs %d under ineffective migration",
					iter, i, baseRes.Assignments[i], migRes.Assignments[i])
			}
		}
		for i := range baseStream {
			if baseStream[i].StartTime != migStream[i].StartTime {
				t.Fatalf("iter %d: job %d starts at %g vs %g under ineffective migration (committed=%v)",
					iter, i, baseStream[i].StartTime, migStream[i].StartTime, cfg.MigrateCommitted)
			}
		}
		for _, k := range []metrics.Kind{metrics.BoundedSlowdown, metrics.WaitTime} {
			if a, b := metrics.Value(k, baseRes.Fleet), metrics.Value(k, migRes.Fleet); a != b {
				t.Fatalf("iter %d: %v %g vs %g", iter, k, a, b)
			}
		}
		if d := math.Abs(baseRes.Fleet.Utilization - migRes.Fleet.Utilization); d > 1e-12 {
			t.Fatalf("iter %d: utilization drifted by %g", iter, d)
		}
		if migRes.Fleet.Moves != 0 || len(migRes.Fleet.MigratedJobs) != 0 {
			t.Fatalf("iter %d: ineffective migration recorded %d moves", iter, migRes.Fleet.Moves)
		}
	}
}
