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
// must be invisible in results — byte-identical to the full-sweep
// reference for randomized fleets, with and without migration, for any
// worker count — while never stepping members that have no events.

// fullSweepRouter is the reference the event heap is pinned against: the
// pre-heap full sweep, which wakes nothing selectively and caches
// nothing. Before every decision it brings every member to the decision
// instant, feeds every member's new completions to the stateful scorers,
// and rebuilds every candidate from the member simulators; it also checks
// the fleet's next-event peek against a scan of all members. It declares
// no ClockFree capability, so the fleet refreshes every candidate's clock
// too. runVariant binds it to its fleet.
type fullSweepRouter struct {
	Router
	tb testing.TB
	f  *Fleet
}

// referenceOf wraps a router constructor in the full-sweep reference.
func referenceOf(tb testing.TB, router func() Router) func() Router {
	return func() Router { return &fullSweepRouter{Router: router(), tb: tb} }
}

func (r *fullSweepRouter) bind(f *Fleet) { r.f = f }

func (r *fullSweepRouter) Place(j *job.Job, cands []*Candidate) int {
	r.sweep(cands)
	return r.Router.Place(j, cands)
}

// PlaceScored makes the reference a ScoredRouter, for migration sweeps.
func (r *fullSweepRouter) PlaceScored(j *job.Job, cands []*Candidate, scores []float64) int {
	r.sweep(cands)
	return r.Router.(ScoredRouter).PlaceScored(j, cands, scores)
}

func (r *fullSweepRouter) StateScorers() []StateScorer {
	if sp, ok := r.Router.(interface{ StateScorers() []StateScorer }); ok {
		return sp.StateScorers()
	}
	return nil
}

// sweep brings the whole fleet to the decision instant (every candidate's
// Now, the fleet having refreshed it) and rebuilds cands in place, so the
// fleet's own reads after the decision see the rebuilt state as well.
func (r *fullSweepRouter) sweep(cands []*Candidate) {
	f := r.f
	now := cands[0].Now
	for i, m := range f.members {
		m.syncTo(now)
		f.markObs(i)
	}
	f.observeCompletions()
	next, any := 0.0, false
	for i, m := range f.members {
		if t, ok := m.sim.NextEventTime(); ok && (!any || t < next) {
			next, any = t, true
		}
		c := cands[i]
		if m.state == stateRetired {
			*c = Candidate{Index: c.Index, Name: c.Name, Now: now}
			continue
		}
		c.View = m.sim.View()
		c.Visible = m.sim.Visible()
		c.Pending = m.sim.PendingCount()
		c.PendingWork = m.sim.PendingWork()
		c.RunningWork = m.sim.RunningWorkAt(now)
		c.Draining = m.state == stateDraining
		c.DrainTime = m.drainAt
		c.Evicting = m.evicting
	}
	if t, ok := f.nextFleetEvent(); t != next || ok != any {
		r.tb.Fatalf("at %g the event heap's next event is (%g, %v), a scan of all members finds (%g, %v)",
			now, t, ok, next, any)
	}
}

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

// runVariant builds a fleet over members, binds a fleet-reading test
// router to it, applies cfg, and returns the marshaled result of running
// stream through it.
func runVariant(t *testing.T, members []MemberConfig, router func() Router,
	stream []*job.Job, cfg func(*Fleet)) []byte {
	t.Helper()
	f, err := New(members, router())
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := f.router.(interface{ bind(*Fleet) }); ok {
		b.bind(f)
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
// the full-sweep reference (fullSweepRouter), with and without migration
// sweeps, and for stateless and stateful (fairness) routers. Each seed also runs on a
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
					"heap":          nil,
					"heap-workers4": func(f *Fleet) { f.SetWorkers(4) },
					"mig-heap":      migrate,
					"mig-workers4":  func(f *Fleet) { f.SetWorkers(4); migrate(f) },
				}
				ref := runVariant(t, members, referenceOf(t, router), stream, nil)
				for _, variant := range []string{"heap", "heap-workers4"} {
					got := runVariant(t, members, router, stream, variants[variant])
					if !bytes.Equal(ref, got) {
						t.Fatalf("%s/%s diverges from full-sweep reference (n=%d seed=%d)",
							name, variant, n, seed)
					}
				}
				migRef := runVariant(t, members, referenceOf(t, router), stream, migrate)
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

// idleClockProbe wraps a router and, before every decision, records the
// latest simulator clock among members 1..n-1. It forwards the wrapped
// router's ClockFree capability, so the fleet's stepping path is the one
// the wrapped router gets on its own.
type idleClockProbe struct {
	Router
	f      *Fleet
	latest float64
}

func (p *idleClockProbe) bind(f *Fleet) {
	p.f = f
	if b, ok := p.Router.(interface{ bind(*Fleet) }); ok {
		b.bind(f)
	}
}

func (p *idleClockProbe) ClockFree() bool {
	cf, ok := p.Router.(ClockFree)
	return ok && cf.ClockFree()
}

func (p *idleClockProbe) Place(j *job.Job, cands []*Candidate) int {
	for _, m := range p.f.members[1:] {
		p.latest = math.Max(p.latest, m.sim.Now())
	}
	return p.Router.Place(j, cands)
}

// TestIdleMembersNotStepped pins the sublinearity claim behaviorally: in a
// fleet where capacity filtering routes every job onto the one member big
// enough to run it, the other members have no events and must never be
// stepped — their simulator clocks stay at 0 through every decision on the
// heap path (and advance under the full-sweep reference, proving the probe
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

	run := func(router Router) (*idleClockProbe, *Result) {
		probe := &idleClockProbe{Router: router}
		f, err := New(members, probe)
		if err != nil {
			t.Fatal(err)
		}
		probe.bind(f)
		res, err := f.Run(cloneStream(stream))
		if err != nil {
			t.Fatal(err)
		}
		return probe, res
	}
	probe, res := run(BinpackPipeline())
	for i, k := range res.Assignments {
		if k != 0 {
			t.Fatalf("job %d routed to member %d; binpack should stack member 0", i, k)
		}
	}
	if probe.latest != 0 {
		t.Fatalf("an idle member's clock reached %g; events never touched it", probe.latest)
	}
	if ref, _ := run(referenceOf(t, func() Router { return BinpackPipeline() })()); ref.latest == 0 {
		t.Fatal("the full-sweep reference never advanced an idle member; the probe is broken")
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

// The fleet scalability suite (DESIGN.md §10): end-to-end Run at 1k, 5k
// and 10k members on the event heap, and at 10k under the full-sweep
// reference (fullSweepRouter). The ratio of the two 10k placements/s is
// the heap's speedup.

// scaleBenchMembers synthesizes an n-member fleet from the experiment size
// template ([256, 128, 64] cycling, SJF + EASY backfill, a fresh scheduler
// per member — required with parallel stepping).
func scaleBenchMembers(n int) []MemberConfig {
	sizes := []int{256, 128, 64}
	members := make([]MemberConfig, n)
	for i := range members {
		members[i] = MemberConfig{
			Name:      fmt.Sprintf("c%05d", i),
			Sim:       sim.Config{Processors: sizes[i%3], Backfill: true, MaxObserve: 32},
			Scheduler: sched.SJF(),
		}
	}
	return members
}

// scaleBenchStream samples the 4000-arrival stream the scale points route
// — long enough that per-run reset cost is noise against steady-state
// placement — clamped so every member size is feasible (the filter phase
// stays a ranking problem, not a capacity cliff).
func scaleBenchStream() []*job.Job {
	const arrivals = 4000
	tr := trace.Preset("Lublin-1", arrivals+64, 33)
	rng := rand.New(rand.NewSource(33))
	stream := tr.SampleWindow(rng, arrivals)
	for _, j := range stream {
		if j.RequestedProcs > 64 {
			j.RequestedProcs = 64
		}
	}
	return stream
}

// benchRun times b.N Runs of f over copies of stream, reports
// placements/s, and returns the mean seconds per placement.
func benchRun(b *testing.B, f *Fleet, stream []*job.Job) float64 {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Run(cloneStream(stream)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	placed := float64(b.N * len(stream))
	b.ReportMetric(placed/b.Elapsed().Seconds(), "placements/s")
	return b.Elapsed().Seconds() / placed
}

// BenchmarkFleetScale is the fleet-size scaling suite; sweep-µs is the
// mean per-arrival cost of bringing the fleet to the arrival and placing
// it. CI runs the n=1k point.
func BenchmarkFleetScale(b *testing.B) {
	for _, c := range []struct {
		name      string
		n         int
		fullSweep bool
	}{
		{"n=1k", 1000, false},
		{"n=5k", 5000, false},
		{"fullsweep-10k", 10000, true},
		{"n=10k", 10000, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			router := Router(BinpackPipeline())
			if c.fullSweep {
				router = &fullSweepRouter{Router: router, tb: b}
			}
			f, err := New(scaleBenchMembers(c.n), router)
			if err != nil {
				b.Fatal(err)
			}
			if r, ok := router.(*fullSweepRouter); ok {
				r.bind(f)
			}
			b.ReportMetric(benchRun(b, f, scaleBenchStream())*1e6, "sweep-µs")
		})
	}
}
