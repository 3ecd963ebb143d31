package fleet

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rlsched/internal/job"
	"rlsched/internal/sched"
	"rlsched/internal/sim"
	"rlsched/internal/trace"
)

// Tests of the event-heap stepping path (heap.go, parallel.go): the heap
// must be invisible in results — byte-identical to the pre-heap full-sweep
// reference for randomized fleets, with and without migration, for any
// worker count — while never stepping members that have no events.

// randomScaleMembers builds n members with randomized sizes, policies and
// backfill disciplines. Scheduler instances are fresh per member.
func randomScaleMembers(rng *rand.Rand, n int) []MemberConfig {
	sizes := []int{64, 128, 256}
	scheds := []func() sim.Scheduler{
		func() sim.Scheduler { return sched.FCFS() },
		func() sim.Scheduler { return sched.SJF() },
		func() sim.Scheduler { return sched.F1() },
	}
	members := make([]MemberConfig, n)
	for i := range members {
		members[i] = MemberConfig{
			Name: fmt.Sprintf("m%03d", i),
			Sim: sim.Config{
				Processors: sizes[rng.Intn(len(sizes))],
				Backfill:   rng.Intn(2) == 0,
				MaxObserve: 32,
			},
			Scheduler: scheds[rng.Intn(len(scheds))](),
		}
	}
	return members
}

// runVariant builds a fleet over members, applies cfg, and returns the
// marshaled result of running stream through it.
func runVariant(t *testing.T, members []MemberConfig, router func() Router,
	stream []*job.Job, cfg func(*Fleet)) []byte {
	t.Helper()
	f, err := New(members, router())
	if err != nil {
		t.Fatal(err)
	}
	if cfg != nil {
		cfg(f)
	}
	res, err := f.Run(cloneStream(stream))
	if err != nil {
		t.Fatal(err)
	}
	return marshalResult(t, res)
}

// TestHeapFullSweepParityProperty is the randomized anchor of the
// refactor: for fleets of 50–200 members with mixed policies, the
// heap-driven run (serial and parallel) must be byte-identical — every
// per-job field, every metric, every assignment and migration move — to
// the full-sweep reference path, with and without migration sweeps, and
// for stateless and stateful (fairness) routers. Each seed also runs on a
// one-minute time grid (gridTimes) with a grid-aligned sweep interval, so
// completions, arrivals and sweeps share instants.
func TestHeapFullSweepParityProperty(t *testing.T) {
	iters := 6
	if testing.Short() {
		iters = 2
	}
	for k := 0; k < 2*iters; k++ {
		iter, grid := k%iters, k >= iters
		name := fmt.Sprintf("iter%d", iter)
		if grid {
			name += "-grid"
		}
		t.Run(name, func(t *testing.T) {
			seed := int64(1009 + 37*iter)
			rng := rand.New(rand.NewSource(seed))
			n := 50 + rng.Intn(151)
			members := randomScaleMembers(rng, n)
			preset := "Lublin-1"
			if rng.Intn(2) == 0 {
				preset = "Lublin-2"
			}
			tr := trace.Preset(preset, 512, seed)
			stream := tr.SampleWindow(rng, 300)
			interval := stream[len(stream)-1].SubmitTime / 8
			if grid {
				gridTimes(stream, 60)
				interval = 60 * math.Ceil(stream[len(stream)-1].SubmitTime/8/60)
			}

			routers := map[string]func() Router{
				"binpack":  func() Router { return BinpackPipeline() },
				"fairness": func() Router { return FairnessPipeline(FairnessConfig{}) },
			}
			mig := HysteresisMigration(interval)
			mig.MigrateCommitted = iter%2 == 0

			for name, router := range routers {
				migrate := func(f *Fleet) {
					if err := f.EnableMigration(mig); err != nil {
						t.Fatal(err)
					}
				}
				variants := map[string]func(*Fleet){
					"fullsweep":     func(f *Fleet) { f.SetFullSweep(true) },
					"heap":          nil,
					"heap-workers4": func(f *Fleet) { f.SetWorkers(4) },
					"mig-fullsweep": func(f *Fleet) { f.SetFullSweep(true); migrate(f) },
					"mig-heap":      migrate,
					"mig-workers4":  func(f *Fleet) { f.SetWorkers(4); migrate(f) },
				}
				ref := runVariant(t, members, router, stream, variants["fullsweep"])
				for _, variant := range []string{"heap", "heap-workers4"} {
					got := runVariant(t, members, router, stream, variants[variant])
					if !bytes.Equal(ref, got) {
						t.Fatalf("%s/%s diverges from full-sweep reference (n=%d seed=%d)",
							name, variant, n, seed)
					}
				}
				migRef := runVariant(t, members, router, stream, variants["mig-fullsweep"])
				for _, variant := range []string{"mig-heap", "mig-workers4"} {
					got := runVariant(t, members, router, stream, variants[variant])
					if !bytes.Equal(migRef, got) {
						t.Fatalf("%s/%s diverges from full-sweep reference (n=%d seed=%d)",
							name, variant, n, seed)
					}
				}
			}
		})
	}
}

// TestIdleMembersNotStepped pins the sublinearity claim behaviorally: in a
// fleet where capacity filtering routes every job onto the one member big
// enough to run it, the other members have no events and must never be
// syncTo'd — the step-counting hook records zero syncs for them on the
// heap path (and non-zero on the full-sweep reference, proving the hook
// observes what it claims to).
func TestIdleMembersNotStepped(t *testing.T) {
	members := make([]MemberConfig, 100)
	for i := range members {
		procs := 64
		if i == 0 {
			procs = 256
		}
		members[i] = MemberConfig{
			Name:      fmt.Sprintf("idle%03d", i),
			Sim:       sim.Config{Processors: procs, MaxObserve: 32},
			Scheduler: sched.SJF(),
		}
	}
	stream := lublinStream(t, 150, 23)
	for _, j := range stream {
		// Wider than every small member: CapacityFilter leaves member 0.
		if j.RequestedProcs <= 64 {
			j.RequestedProcs = 65
		}
		if j.RequestedProcs > 256 {
			j.RequestedProcs = 256
		}
	}

	f, err := New(members, BinpackPipeline())
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(cloneStream(stream))
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range res.Assignments {
		if k != 0 {
			t.Fatalf("job %d routed to member %d; binpack should stack member 0", i, k)
		}
	}
	if f.members[0].syncs == 0 {
		t.Fatal("member 0 received placements but recorded no syncs")
	}
	for i := 1; i < len(f.members); i++ {
		if n := f.members[i].syncs; n != 0 {
			t.Fatalf("idle member %d was stepped %d times; events never touched it", i, n)
		}
	}

	ref, err := New(members, BinpackPipeline())
	if err != nil {
		t.Fatal(err)
	}
	ref.SetFullSweep(true)
	if _, err := ref.Run(cloneStream(stream)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ref.members); i++ {
		if ref.members[i].syncs == 0 {
			t.Fatalf("full-sweep reference did not step member %d; the hook is broken", i)
		}
	}
}

// TestWorkerCountParity drives wake lists past the parallel threshold
// (widely spaced arrivals over a round-robin-filled fleet, so every busy
// member wakes at once) and checks the result is byte-identical across
// worker counts, including degenerate ones.
func TestWorkerCountParity(t *testing.T) {
	members := make([]MemberConfig, 64)
	for i := range members {
		members[i] = MemberConfig{
			Name:      fmt.Sprintf("w%02d", i),
			Sim:       sim.Config{Processors: 128, Backfill: true, MaxObserve: 32},
			Scheduler: sched.SJF(),
		}
	}
	rng := rand.New(rand.NewSource(41))
	tr := trace.Preset("Lublin-1", 512, 41)
	stream := tr.SampleWindow(rng, 256)
	// Stretch arrivals so completions pile up between placements: every
	// advance then wakes a wide slice of the fleet at once.
	for i, j := range stream {
		j.SubmitTime = float64(i) * 1800
		if j.RequestedProcs > 128 {
			j.RequestedProcs = 128
		}
	}

	var ref []byte
	for _, workers := range []int{0, 1, 2, 3, 8, 16} {
		w := workers
		got := runVariant(t, members, func() Router { return NewRoundRobin() }, stream,
			func(f *Fleet) { f.SetWorkers(w) })
		if ref == nil {
			ref = got
			continue
		}
		if !bytes.Equal(ref, got) {
			t.Fatalf("workers=%d diverges from workers=0", w)
		}
	}
}
