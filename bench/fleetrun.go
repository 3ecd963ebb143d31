package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"rlsched/internal/fleet"
	"rlsched/internal/job"
	"rlsched/internal/nn"
	"rlsched/internal/obs"
	"rlsched/internal/sched"
	"rlsched/internal/sim"
	"rlsched/internal/trace"
)

// fleet_run: offline placement simulation, continuing the n=1k shape of
// the root BenchmarkFleetScale with a seeded stream.

// fleetFixture is a fleet with the stream it routes and the result digest
// its first (warm-up) run produced.
type fleetFixture struct {
	fleet  *fleet.Fleet
	stream []*job.Job
	digest uint64
	warm   time.Duration
}

func buildFleet(r *run, router fleet.Router) (*fleetFixture, error) {
	sc := r.sc
	sizes := []int{256, 128, 64}
	members := make([]fleet.MemberConfig, sc.fleetMembers)
	for i := range members {
		members[i] = fleet.MemberConfig{
			Name:      fmt.Sprintf("c%05d", i),
			Sim:       sim.Config{Processors: sizes[i%3], Backfill: true, MaxObserve: 32},
			Scheduler: sched.SJF(), // one per member: stepping is parallel
		}
	}
	tr := trace.Preset("Lublin-1", sc.fleetArrivals+64, r.seed)
	stream := tr.SampleWindow(rand.New(rand.NewSource(r.seed)), sc.fleetArrivals)
	for _, j := range stream {
		// Every member size stays feasible: placement is a ranking
		// problem, not a capacity cliff.
		j.RequestedProcs = min(j.RequestedProcs, 64)
	}
	f, err := fleet.New(members, router)
	if err != nil {
		return nil, err
	}
	f.SetWorkers(runtime.GOMAXPROCS(0))
	fx := &fleetFixture{fleet: f, stream: stream}
	// The first run sizes every member's buffers; it is discarded.
	t0 := time.Now()
	res, err := f.Run(fx.clone())
	if err != nil {
		return nil, err
	}
	fx.warm = time.Since(t0)
	fx.digest = digest(res)
	return fx, nil
}

func (fx *fleetFixture) clone() []*job.Job {
	out := make([]*job.Job, len(fx.stream))
	for i, j := range fx.stream {
		out[i] = j.Clone()
	}
	return out
}

// digest folds where every job went, when it started and what the fleet
// achieved.
func digest(res *fleet.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, a := range res.Assignments {
		put(uint64(int64(a)))
	}
	for _, j := range res.Fleet.Jobs {
		put(math.Float64bits(j.StartTime))
	}
	put(math.Float64bits(res.Fleet.Utilization))
	return h.Sum64()
}

// timedRun routes one fresh copy of the stream and checks the outcome:
// every job placed, and the same result as the first run.
func (r *run) timedRun(fx *fleetFixture) (time.Duration, error) {
	stream := fx.clone() // outside the timed region
	t0 := time.Now()
	res, err := fx.fleet.Run(stream)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	r.attempted += int64(len(stream))
	unplaced := 0
	for _, a := range res.Assignments {
		if a < 0 {
			unplaced++
		}
	}
	if unplaced > 0 {
		r.failed += int64(unplaced)
		r.problem("%d of %d jobs were not placed", unplaced, len(stream))
	} else if got := digest(res); got != fx.digest {
		r.failed += int64(len(stream))
		r.problem("result digest %x differs from the first run's %x", got, fx.digest)
	}
	return d, nil
}

func runFleetRun(r *run) error {
	if r.trace {
		return traceFleetRun(r)
	}
	// A build takes a thirtieth of a second and allocates all of it, which
	// the host's other tenants slow by half (0.025 to 0.039 s between a quiet
	// hour and a busy one), so it is timed as the runs are: the fastest of
	// three in a row, and the median of many of those.
	reps := 3 * r.sc.setupReps
	fx, setup, err := timeSetup(reps, 3,
		func() (*fleetFixture, error) { return buildFleet(r, fleet.BinpackPipeline()) }, func(*fleetFixture) {})
	if err != nil {
		return err
	}
	r.set("setup_s", setup, fmt.Sprintf("median of %d builds, each the fastest of 3 in a row: members, stream, fleet, first run (%.3f s)", reps, fx.warm.Seconds()))

	var runs []time.Duration
	for start := time.Now(); time.Since(start) < seconds(r.sc.seconds) || len(runs) < r.sc.fleetBatch; {
		d, err := r.timedRun(fx)
		if err != nil {
			return err
		}
		runs = append(runs, d)
	}
	all := slices.Sorted(slices.Values(runs))
	r.printf("  all %d runs, ms: min %.2f p10 %.2f p25 %.2f p50 %.2f p75 %.2f p90 %.2f p95 %.2f max %.2f\n", len(all), ms(all[0]),
		ms(quantile(all, 0.10)), ms(quantile(all, 0.25)), ms(quantile(all, 0.50)), ms(quantile(all, 0.75)), ms(quantile(all, 0.90)), ms(quantile(all, 0.95)), ms(quantile(all, 1)))
	best := bestOf(runs, r.sc.fleetBatch)
	p50 := quantile(best, 0.50)
	note := fmt.Sprintf("one Fleet.Run of %d arrivals over %d members, the fastest of each %d runs in a row, n=%d runs in %d batches",
		len(fx.stream), r.sc.fleetMembers, r.sc.fleetBatch, len(runs), len(best))
	r.set("ops_per_s", float64(len(fx.stream))/p50.Seconds(), "placements/s at the median batch, "+note)
	r.set("latency_p50_ms", ms(p50), note)
	r.set("latency_tail_ms", ms(quantile(best, fleetTail)),
		fmt.Sprintf("p%g of the batches, %s, %d beyond it", 100*fleetTail, note, beyond(len(best), fleetTail)))
	return nil
}

// bestOf cuts samples, in the order they were taken, into batches of k and
// returns each batch's fastest, sorted. What the host's other tenants do
// slows a run by up to 1.7 times, in bursts of milliseconds, for a share of
// the time that wanders between nothing and most of it over minutes
// (README.md has the measurement); they never speed one up. The fastest of a
// few runs in a row is how a repeated operation is timed through that: over
// one such hour the median run moved by 60 percent and the median batch by 9.
func bestOf(samples []time.Duration, k int) []time.Duration {
	var best []time.Duration
	for ; len(samples) >= k; samples = samples[k:] {
		best = append(best, slices.Min(samples[:k]))
	}
	slices.Sort(best)
	return best
}

// traceFleetRun alternates the bare pipeline with a decorated one that
// times every Place, on the same stream, and splits a run into routing and
// everything else (event heap, member stepping, result merge).
func traceFleetRun(r *run) error {
	sc := r.sc
	log := newSpanLog()
	bare, err := buildFleet(r, fleet.BinpackPipeline())
	if err != nil {
		return err
	}
	router := &tracedRouter{inner: fleet.BinpackPipeline(), log: log}
	traced, err := buildFleet(r, router)
	if err != nil {
		return err
	}
	if traced.digest != bare.digest {
		r.problem("the decorated router changed the result: %x vs %x", traced.digest, bare.digest)
	}

	// One run with spans on and the allocator read around it (ReadMemStats
	// stops the world, so it stays out of the timed runs).
	var mem runtime.MemStats
	stream := traced.clone()
	log.on.Store(true)
	runtime.ReadMemStats(&mem)
	mallocs := mem.Mallocs
	t0 := time.Now()
	if _, err := traced.fleet.Run(stream); err != nil {
		return err
	}
	log.add("fleet.run", t0, time.Now(), 0, len(stream))
	runtime.ReadMemStats(&mem)
	log.on.Store(false)
	r.set("fleet.run_allocs_per_arrival", float64(mem.Mallocs-mallocs)/float64(len(stream)), "runtime.MemStats Mallocs delta over one Run")

	if err := r.ladder("s", func() (layers, whole float64, err error) {
		router.total, router.calls = 0, 0
		var bareTime, tracedTime time.Duration
		n := 0
		for start := time.Now(); time.Since(start) < seconds(sc.seconds/2) || n == 0; n++ {
			d, err := r.timedRun(bare)
			if err != nil {
				return 0, 0, err
			}
			bareTime += d
			if d, err = r.timedRun(traced); err != nil {
				return 0, 0, err
			}
			tracedTime += d
		}
		r.set("fleet.route_us", us(router.total)/float64(router.calls), fmt.Sprintf("Pipeline.Place inside Fleet.Run, n=%d", router.calls))
		r.set("fleet.step_self_share", (tracedTime-router.total).Seconds()/tracedTime.Seconds(), "(Run - sum of Place) / Run")
		r.set("trace_overhead_share", (tracedTime.Seconds()-bareTime.Seconds())/bareTime.Seconds(), "(traced - untraced Run time) / untraced")
		// Routing + step self is the decorated Run.
		return tracedTime.Seconds(), bareTime.Seconds(), nil
	}); err != nil {
		return err
	}
	r.set("proc.peak_rss_mb", peakRSSMB())

	// One pipeline pass per shape on the 8-candidate scene of the root
	// BenchmarkFleetPlace: the evidence a fast path needs to be kept.
	micro := seconds(sc.microSeconds)
	rng := rand.New(rand.NewSource(r.seed))
	net := nn.NewKernelNet(rng, sim.DefaultMaxObserve, sim.JobFeatures, nil)
	rlPipe, err := fleet.RLPipeline(net)
	if err != nil {
		return err
	}
	multi := fleet.NewPipeline("binpack+wait", []fleet.Filter{fleet.CapacityFilter{}},
		[]fleet.WeightedScorer{{Scorer: fleet.Binpack{}, Weight: 2}, {Scorer: fleet.QueueWait{}, Weight: 1}})
	cands, jobs := placeScene(r.seed, rng)
	k := 0
	place := func(p *fleet.Pipeline) func() {
		return func() {
			if p.Place(jobs[k%len(jobs)], cands) < 0 {
				r.problem("%s placed nothing", p.Name())
			}
			k++
		}
	}
	r.set("fleet.place_binpack_us", us(timeOp(micro, place(fleet.BinpackPipeline()))), "single scorer, 8 candidates")
	r.set("fleet.place_multi_us", us(timeOp(micro, place(multi))), "two scorers")
	r.set("fleet.place_rl_us", us(timeOp(micro, place(rlPipe))), "RLPipeline: kernel net scorer + queue wait")
	var ex obs.Explain
	scores := make([]float64, len(cands))
	r.set("fleet.place_explained_us", us(timeOp(micro, func() {
		rlPipe.PlaceExplained(jobs[k%len(jobs)], cands, scores, &ex)
		k++
	})), "RLPipeline with the decision trace captured")

	// Simulator.Run with SJF + backfill on 1024 jobs: the member stepping
	// cost in isolation.
	tr := trace.Preset("Lublin-1", 1200, r.seed)
	s := sim.New(sim.Config{Processors: tr.Processors, Backfill: true})
	sjf := sched.SJF()
	r.set("sim.run_sjf_1024_ms", ms(timeOp(micro, func() {
		if err := s.Load(tr.Window(0, min(1024, sc.traceJobs))); err != nil {
			r.problem("sim load: %v", err)
			return
		}
		if _, err := s.Run(sjf); err != nil {
			r.problem("sim run: %v", err)
		}
	})), "Load + Run")
	return r.writeTrace(log, map[string]string{spanRoute: "fleet.run"})
}

// placeScene is the 8-cluster heterogeneous snapshot and the rotation of
// arriving jobs that the root BenchmarkFleetPlace uses, seeded.
func placeScene(seed int64, rng *rand.Rand) ([]*fleet.Candidate, []*job.Job) {
	tr := trace.Preset("Lublin-1", 2048, seed)
	cands := make([]*fleet.Candidate, len(shardSizes))
	for i, procs := range shardSizes {
		queue := tr.SampleQueue(rng, 8+rng.Intn(25))
		work := 0.0
		for _, j := range queue {
			j.RequestedProcs = min(j.RequestedProcs, procs)
			work += j.RequestedTime * float64(j.RequestedProcs)
		}
		cands[i] = &fleet.Candidate{
			Index: i, Name: "c",
			View:    sim.ClusterView{FreeProcs: rng.Intn(procs + 1), TotalProcs: procs},
			Visible: queue, Pending: len(queue), PendingWork: work,
		}
	}
	jobs := make([]*job.Job, 64)
	for i := range jobs {
		jobs[i] = tr.SampleQueue(rng, 1)[0]
		jobs[i].RequestedProcs = min(jobs[i].RequestedProcs, 256)
	}
	return cands, jobs
}
