package exp

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"

	"rlsched/internal/fleet"
	"rlsched/internal/job"
	"rlsched/internal/metrics"
	"rlsched/internal/obs"
	"rlsched/internal/sched"
	"rlsched/internal/sim"
	"rlsched/internal/stats"
	"rlsched/internal/telemetry"
	"rlsched/internal/trace"
)

func init() {
	registry["fleet-placement"] = FleetPlacement
}

// fleetMembers builds the heterogeneous evaluation fleet: a large cluster
// scheduled by the trained RL policy and two smaller clusters running
// heuristics — the "trained kernel net or heuristic per member" setting of
// the placement layer. Fresh simulators per call; schedulers may be
// shared across calls (placement is serial).
func fleetMembers(o Options, rlSched sim.Scheduler) []fleet.MemberConfig {
	return synthesizeFleet(o, []fleet.MemberConfig{
		{Name: "large-256", Sim: sim.Config{Processors: 256, MaxObserve: o.MaxObserve}, Scheduler: rlSched},
		{Name: "mid-128", Sim: sim.Config{Processors: 128, MaxObserve: o.MaxObserve}, Scheduler: sched.SJF()},
		{Name: "small-64", Sim: sim.Config{Processors: 64, MaxObserve: o.MaxObserve}, Scheduler: sched.F1()},
	})
}

// synthesizeFleet scales a scenario's member template to o.Clusters
// members by cycling it (names gain a unique ordinal suffix). Scheduler
// instances are shared between the synthesized members of one template
// slot, which is safe because experiment fleets step members serially.
// Clusters <= 0 returns the template untouched, preserving every pinned
// scenario fleet.
func synthesizeFleet(o Options, base []fleet.MemberConfig) []fleet.MemberConfig {
	if o.Clusters <= 0 {
		return base
	}
	members := make([]fleet.MemberConfig, o.Clusters)
	for i := range members {
		t := base[i%len(base)]
		members[i] = fleet.MemberConfig{
			Name:      fmt.Sprintf("%s-%04d", t.Name, i),
			Sim:       t.Sim,
			Scheduler: t.Scheduler,
		}
	}
	return members
}

// fleetStreams samples the shared evaluation arrival streams, steady and
// workload shift: every router is measured on identical workloads (fresh
// clones per call, since a fleet run consumes its stream).
func fleetStreams(o Options, steady, shift *trace.Trace) [2][][]*job.Job {
	rng := rand.New(rand.NewSource(o.Seed + 4000))
	var streams [2][][]*job.Job
	for s := 0; s < o.EvalNSeq; s++ {
		n := min(o.EvalSeqLen, steady.Len())
		w1 := steady.SampleWindow(rng, n)
		// Workload shift: the arrival regime flips mid-stream from the
		// steady trace to the faster, smaller-job shift trace.
		h1 := steady.SampleWindow(rng, n/2)
		h2 := shift.SampleWindow(rng, n-n/2)
		streams[0] = append(streams[0], w1)
		streams[1] = append(streams[1], trace.Concat("shifted",
			&trace.Trace{Name: "w1", Processors: steady.Processors, Jobs: h1},
			&trace.Trace{Name: "w2", Processors: shift.Processors, Jobs: h2}).Jobs)
	}
	return streams
}

// enableMigration wires a -migrate policy ("" or "off" for none) into f,
// sweeping at the stream's interval.
func enableMigration(f *fleet.Fleet, policy string, stream []*job.Job) error {
	cfg, err := migrationConfigFor(policy, sweepInterval(stream))
	if err != nil || cfg == nil {
		return err
	}
	return f.EnableMigration(*cfg)
}

// routerCase is one row of a fleet comparison: a router built fresh for
// every run, and the migration policy the run sweeps with ("" for none).
type routerCase struct {
	name    string
	migrate string
	build   func() (fleet.Router, error)
}

// campaign runs every router on every seed (o.Seed, o.Seed+1, ...) twice,
// each time through run on a freshly built router and fleet, and records
// one evaluate/seed<s>/<router> phase per pair. The first run is quiet; the
// re-run alone carries o's trace, time-series and report sinks, so the
// comparison of the two (equal cases, identical assignments) checks both
// determinism and that recording is passive. It returns the first run's
// case per router and seed, and whether every re-run reproduced it.
func campaign[C any](o Options, seeds int, routers []routerCase,
	run func(Options, int64, routerCase) (C, []int, error)) (map[string][]C, bool, error) {
	quiet := o
	quiet.TracePath, quiet.TimeseriesPath, quiet.report = "", "", nil
	cases := map[string][]C{}
	deterministic := true
	for s := 0; s < seeds; s++ {
		seed := o.Seed + int64(s)
		for _, rc := range routers {
			donePhase := o.phase(fmt.Sprintf("evaluate/seed%d/%s", s, rc.name))
			c, assign, err := run(quiet, seed, rc)
			if err != nil {
				return nil, false, err
			}
			c2, assign2, err := run(o, seed, rc)
			if err != nil {
				return nil, false, err
			}
			if !reflect.DeepEqual(c, c2) || !slices.Equal(assign, assign2) {
				deterministic = false
			}
			cases[rc.name] = append(cases[rc.name], c)
			donePhase()
		}
	}
	return cases, deterministic, nil
}

// outcome is what the fleet tables read off one stream's run; summed over
// streams by add. The migrated and native sums are job-weighted, so a
// table's split and mean delay describe the jobs that actually moved.
type outcome struct {
	bsld, util, delay       float64
	moves, migrated, native int
	migBsld, natBsld        float64 // bsld summed over migrated and native jobs
	churn                   fleet.ChurnStats
	counts                  [3]int // placements per size class of a 3-size member template
}

func outcomeOf(res *fleet.Result) outcome {
	nm := len(res.Fleet.MigratedJobs)
	nn := len(res.Fleet.Jobs) - nm
	mb, nb := metrics.MigrationSplit(metrics.BoundedSlowdown, res.Fleet)
	out := outcome{
		bsld:     metrics.Value(metrics.BoundedSlowdown, res.Fleet),
		util:     res.Fleet.Utilization,
		delay:    res.Fleet.MigrationDelaySum,
		moves:    res.Fleet.Moves,
		migrated: nm,
		native:   nn,
		migBsld:  mb * float64(nm),
		natBsld:  nb * float64(nn),
		churn:    res.Churn,
	}
	// A -clusters synthesized fleet cycles the template, so member k is
	// still size class k%3.
	for k, c := range res.Clusters {
		out.counts[k%len(out.counts)] += c.Placements
	}
	return out
}

func (a *outcome) add(b outcome) {
	a.bsld += b.bsld
	a.util += b.util
	a.delay += b.delay
	a.moves += b.moves
	a.migrated += b.migrated
	a.native += b.native
	a.migBsld += b.migBsld
	a.natBsld += b.natBsld
	a.churn.Joins += b.churn.Joins
	a.churn.Drains += b.churn.Drains
	a.churn.Fails += b.churn.Fails
	a.churn.Forced += b.churn.Forced
	for k := range a.counts {
		a.counts[k] += b.counts[k]
	}
}

// total sums a router's outcomes over every stream of every seed, and
// lists their per-stream fleet bsld in order.
func total(seeds [][]outcome) (sum outcome, bsld []float64) {
	for _, runs := range seeds {
		for _, r := range runs {
			sum.add(r)
			bsld = append(bsld, r.bsld)
		}
	}
	return sum, bsld
}

// runStreams runs rc over the streams, each on a freshly built router and
// fleet of members under rc's migration policy; setup further configures
// stream i's fleet, and after vets its result. It returns one outcome per
// stream and the first stream's assignments.
func runStreams(streams [][]*job.Job, rc routerCase, members []fleet.MemberConfig,
	setup func(i int, f *fleet.Fleet, stream []*job.Job) error,
	after func(i int, stream []*job.Job, res *fleet.Result) error) ([]outcome, []int, error) {
	var outs []outcome
	var first []int
	for i, stream := range streams {
		router, err := rc.build()
		if err != nil {
			return nil, nil, err
		}
		f, err := fleet.New(members, router)
		if err != nil {
			return nil, nil, err
		}
		if err := enableMigration(f, rc.migrate, stream); err != nil {
			return nil, nil, err
		}
		if err := setup(i, f, stream); err != nil {
			return nil, nil, err
		}
		res, err := f.Run(stream)
		if err == nil {
			err = after(i, stream, res)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", rc.name, err)
		}
		outs = append(outs, outcomeOf(res))
		if first == nil {
			first = res.Assignments
		}
	}
	return outs, first, nil
}

// alpha is the significance level of every fleet experiment's claims. It
// was fixed before any claim was measured, and it is not an option.
const alpha = 0.05

// verdict is one "A beats B" claim judged by stats.SignTest over paired
// outcomes, lower being better.
type verdict struct {
	claim        string
	wins, losses int
	p            float64
}

func judge(claim string, a, b []float64) verdict {
	w, l, p := stats.SignTest(a, b)
	return verdict{claim, w, l, p}
}

// holds reports whether A won more pairs than it lost at p < alpha.
func (v verdict) holds() bool { return v.wins > v.losses && v.p < alpha }

func (v verdict) String() string {
	return fmt.Sprintf("%s: won %d, lost %d, p = %.3g (α = %g)", v.claim, v.wins, v.losses, v.p, alpha)
}

// selfCheck closes a fleet experiment: it notes every verdict and the
// determinism outcome (okNote when every re-run reproduced) on the last
// table, then fails the experiment on the first violation. On a -clusters
// synthesized fleet a failed verdict is reported, not failed — the claims
// are sized for each scenario's pinned fleet — but nondeterminism and the
// caller's violations always fail.
func selfCheck(o Options, verdicts []verdict, deterministic bool, okNote string, violations []string, tables ...*Table) ([]Artifact, error) {
	t := tables[len(tables)-1]
	for _, v := range violations {
		t.Notes = append(t.Notes, "self-check VIOLATED: "+v)
	}
	for _, v := range verdicts {
		switch {
		case v.holds():
			t.Notes = append(t.Notes, "verdict holds: "+v.String())
		case o.Clusters > 0:
			t.Notes = append(t.Notes, fmt.Sprintf("verdict not asserted at %d synthesized clusters: %s", o.Clusters, v))
		default:
			t.Notes = append(t.Notes, "verdict VIOLATED: "+v.String())
			violations = append(violations, v.String())
		}
	}
	if deterministic {
		t.Notes = append(t.Notes, okNote)
	} else {
		t.Notes = append(t.Notes, "determinism: VIOLATED — assignments differed across rebuilt fleets")
		violations = append(violations, "assignments were not deterministic")
	}
	arts := make([]Artifact, len(tables))
	for i, t := range tables {
		arts[i] = t
	}
	if len(violations) > 0 {
		return arts, fmt.Errorf("self-check failed: %s", violations[0])
	}
	return arts, nil
}

// placementSeeds is how many stream seeds fleet-placement's campaign spans
// per scenario; the policy is trained once, on o.Seed.
const placementSeeds = 10

// FleetPlacement compares placement routers — random, round-robin,
// least-loaded, binpack and RL-scored — over a heterogeneous fleet on
// fleet-wide bounded slowdown and utilization, for a steady arrival
// stream and a workload-shift stream, each over placementSeeds stream
// seeds. Its self-check is one verdict per load-aware router against
// random on the steady scenario's per-stream fleet bsld, plus campaign's
// determinism re-run (the RL training behind the policy is itself
// worker-count independent).
func FleetPlacement(o Options) ([]Artifact, error) {
	// Fail a mistyped -migrate policy in milliseconds, not after the
	// training run and the baseline evaluations.
	if _, err := migrationConfigFor(o.Migrate, 1); err != nil {
		return nil, err
	}
	cache := newTraceCache(o)
	doneTrain := o.phase("train")
	agent, _, err := trainRL(cache, o, "Lublin-1", metrics.BoundedSlowdown, false, false)
	if err != nil {
		return nil, err
	}
	doneTrain()
	members := fleetMembers(o, agent.Scheduler())

	// -migrate applies to the scored pipelines; the random and round-robin
	// baselines expose no margins to act on.
	routers := []routerCase{
		{"random", "", func() (fleet.Router, error) { return fleet.NewRandom(o.Seed + 17), nil }},
		{"round-robin", "", func() (fleet.Router, error) { return fleet.NewRoundRobin(), nil }},
		{"least-loaded", o.Migrate, func() (fleet.Router, error) { return fleet.LeastLoadedPipeline(), nil }},
		{"binpack", o.Migrate, func() (fleet.Router, error) { return fleet.BinpackPipeline(), nil }},
		{"rl-scored", o.Migrate, func() (fleet.Router, error) { return fleet.RLPipeline(agent.PPO().Policy) }},
	}

	scenarios := []string{"steady (Lublin-1)", "workload shift (Lublin-1 → Lublin-2)"}
	var tables []*Table
	var verdicts []verdict
	deterministic := true
	// With -trace-out set, the recording re-run of the rl-scored router's
	// first stream carries a collector, so the determinism comparison
	// doubles as a recorder-parity check; the last scenario's recording
	// becomes the exported timeline. With -timeseries set, the same run
	// carries a health sampler, pinning sampling parity on a live RL fleet.
	var timeline *obs.Collector
	var health *telemetry.Set
	for si, scenario := range scenarios {
		run := func(o Options, seed int64, rc routerCase) ([]outcome, []int, error) {
			so := o
			so.Seed = seed
			streams := fleetStreams(so, cache.get("Lublin-1"), cache.get("Lublin-2"))[si]
			return runStreams(streams, rc, members, func(i int, f *fleet.Fleet, stream []*job.Job) error {
				if rc.name != "rl-scored" || seed != o.Seed || i != 0 {
					return nil
				}
				if o.TracePath != "" {
					timeline = obs.NewCollector()
					f.SetRecorder(timeline)
				}
				if o.TimeseriesPath == "" {
					return nil
				}
				health = telemetry.NewSet()
				return f.EnableSampling(fleet.SamplingConfig{Interval: sweepInterval(stream), Set: health})
			}, func(i int, _ []*job.Job, res *fleet.Result) error {
				o.addResult(fmt.Sprintf("%s/%s/seed%d/stream%d", scenario, rc.name, seed, i), res.Fleet)
				return nil
			})
		}
		cases, det, err := campaign(o, placementSeeds, routers, run)
		if err != nil {
			return nil, err
		}
		deterministic = deterministic && det
		t := &Table{
			Title: fmt.Sprintf("Fleet placement, %s: %d seeds × %d × %d-job streams over [256 RL, 128 SJF, 64 F1]",
				scenario, placementSeeds, o.EvalNSeq, o.EvalSeqLen),
			Header: []string{"Router", "fleet bsld", "fleet util", "large/mid/small"},
		}
		for _, rc := range routers {
			sum, bsld := total(cases[rc.name])
			n := float64(len(bsld))
			t.AddRow(rc.name, fmt.Sprintf("%.2f", sum.bsld/n), fmt.Sprintf("%.3f", sum.util/n),
				fmt.Sprintf("%d/%d/%d", sum.counts[0], sum.counts[1], sum.counts[2]))
		}
		if si == 0 {
			_, random := total(cases["random"])
			for _, name := range []string{"least-loaded", "binpack", "rl-scored"} {
				_, bsld := total(cases[name])
				verdicts = append(verdicts, judge("steady: "+name+" beats random on per-stream fleet bsld", bsld, random))
			}
		}
		tables = append(tables, t)
	}
	arts, err := selfCheck(o, verdicts, deterministic,
		"placement determinism: assignments reproduced exactly across rebuilt routers", nil, tables...)
	if err != nil {
		return arts, err
	}
	if health != nil {
		if err := health.WriteFile(o.TimeseriesPath); err != nil {
			return nil, fmt.Errorf("write timeseries: %w", err)
		}
	}
	if timeline != nil {
		if err := timeline.WriteChromeTraceSeriesFile(o.TracePath, health); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return arts, nil
}
