package exp

import (
	"fmt"
	"math/rand"
	"slices"

	"rlsched/internal/fleet"
	"rlsched/internal/job"
	"rlsched/internal/metrics"
	"rlsched/internal/obs"
	"rlsched/internal/sched"
	"rlsched/internal/sim"
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

// fleetStreams samples the shared evaluation arrival streams: every router
// is measured on identical workloads (fresh clones per call, since a fleet
// run consumes its stream).
func fleetStreams(o Options, steady, shift *trace.Trace) [][]*trace.Trace {
	rng := rand.New(rand.NewSource(o.Seed + 4000))
	streams := make([][]*trace.Trace, 2)
	for s := 0; s < o.EvalNSeq; s++ {
		n := o.EvalSeqLen
		if n > steady.Len() {
			n = steady.Len()
		}
		w1 := steady.SampleWindow(rng, n)
		// Workload shift: the arrival regime flips mid-stream from the
		// steady trace to the faster, smaller-job shift trace.
		h1 := steady.SampleWindow(rng, n/2)
		h2 := shift.SampleWindow(rng, n-n/2)
		streams[0] = append(streams[0], &trace.Trace{Name: "steady", Processors: steady.Processors, Jobs: w1})
		streams[1] = append(streams[1], trace.Concat("shifted",
			&trace.Trace{Name: "w1", Processors: steady.Processors, Jobs: h1},
			&trace.Trace{Name: "w2", Processors: shift.Processors, Jobs: h2}))
	}
	return streams
}

// enableMigration wires the -migrate policy under router when it can drive
// it: the scored pipelines. The random and round-robin baselines expose no
// margins to act on.
func enableMigration(f *fleet.Fleet, router fleet.Router, policy string, stream []*job.Job) error {
	if _, scored := router.(fleet.ScoredRouter); !scored {
		return nil
	}
	cfg, err := migrationConfigFor(policy, sweepInterval(stream))
	if err != nil || cfg == nil {
		return err
	}
	return f.EnableMigration(*cfg)
}

// routerCase is one row of a fleet comparison: a router built fresh for
// every run, and whether the run interleaves migration sweeps.
type routerCase struct {
	name    string
	migrate bool
	build   func() (fleet.Router, error)
}

// campaign runs every router on every seed (o.Seed, o.Seed+1, ...) twice,
// each time through run on a freshly built router and fleet, and records
// one evaluate/seed<s>/<router> phase per pair. It returns the first run's
// case per router and seed, and whether every re-run reproduced it: same
// on the cases and identical assignments.
func campaign[C any](o Options, seeds int, routers []routerCase,
	run func(Options, int64, routerCase) (C, []int, error), same func(a, b C) bool) (map[string][]C, bool, error) {
	cases := map[string][]C{}
	deterministic := true
	for s := 0; s < seeds; s++ {
		seed := o.Seed + int64(s)
		for _, rc := range routers {
			donePhase := o.phase(fmt.Sprintf("evaluate/seed%d/%s", s, rc.name))
			c, assign, err := run(o, seed, rc)
			if err != nil {
				return nil, false, err
			}
			c2, assign2, err := run(o, seed, rc)
			if err != nil {
				return nil, false, err
			}
			if !same(c, c2) || !slices.Equal(assign, assign2) {
				deterministic = false
			}
			cases[rc.name] = append(cases[rc.name], c)
			donePhase()
		}
	}
	return cases, deterministic, nil
}

// selfCheck closes a campaign table: the determinism note (okNote when
// every re-run reproduced), then the first violation, if any, as a note
// and as the experiment's error.
func selfCheck(t *Table, id, check string, deterministic bool, okNote string, violations []string) ([]Artifact, error) {
	if deterministic {
		t.Notes = append(t.Notes, okNote)
	} else {
		t.Notes = append(t.Notes, "determinism: VIOLATED — assignments differed across rebuilt fleets")
		violations = append(violations, "assignments were not deterministic")
	}
	if len(violations) > 0 {
		t.Notes = append(t.Notes, check+" self-check VIOLATED: "+violations[0])
		return []Artifact{t}, fmt.Errorf("%s: self-check failed: %s", id, violations[0])
	}
	return []Artifact{t}, nil
}

// FleetPlacement compares placement routers — random, round-robin,
// least-loaded, binpack and RL-scored — over a heterogeneous fleet on
// fleet-wide bounded slowdown and utilization, for a steady arrival
// stream and a workload-shift stream. The placement path is strictly
// serial in arrival order, so every router's assignments are
// deterministic for a fixed seed regardless of worker count (the RL
// training behind the policy is itself worker-count independent); the
// determinism note at the bottom is verified per run.
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
	rlSched := agent.Scheduler()

	routers := []routerCase{
		{"random", false, func() (fleet.Router, error) { return fleet.NewRandom(o.Seed + 17), nil }},
		{"round-robin", false, func() (fleet.Router, error) { return fleet.NewRoundRobin(), nil }},
		{"least-loaded", false, func() (fleet.Router, error) { return fleet.LeastLoadedPipeline(), nil }},
		{"binpack", false, func() (fleet.Router, error) { return fleet.BinpackPipeline(), nil }},
		{"rl-scored", false, func() (fleet.Router, error) { return fleet.RLPipeline(agent.PPO().Policy) }},
	}

	scenarios := []string{"steady (Lublin-1)", "workload shift (Lublin-1 → Lublin-2)"}
	var arts []Artifact
	deterministic := true
	// With -trace set, the rl-scored router's determinism re-run carries a
	// collector: the assignment comparison below then doubles as a
	// recorder-parity check, and the last scenario's recording becomes the
	// exported timeline. With -timeseries set, the same re-run carries a
	// health sampler, so the assignment comparison also pins sampling
	// parity on a live RL fleet.
	var timeline *obs.Collector
	var health *telemetry.Set
	for si, scenario := range scenarios {
		t := &Table{
			Title:  fmt.Sprintf("Fleet placement, %s: %d × %d-job streams over [256 RL, 128 SJF, 64 F1]", scenario, o.EvalNSeq, o.EvalSeqLen),
			Header: []string{"Router", "fleet bsld", "fleet util", "large/mid/small"},
		}
		for _, rc := range routers {
			donePhase := o.phase(fmt.Sprintf("evaluate/%s/%s", scenario, rc.name))
			router, err := rc.build()
			if err != nil {
				return nil, err
			}
			f, err := fleet.New(fleetMembers(o, rlSched), router)
			if err != nil {
				return nil, err
			}
			// Streams are resampled identically per router (same seed).
			streams := fleetStreams(o, cache.get("Lublin-1"), cache.get("Lublin-2"))[si]
			if err := enableMigration(f, router, o.Migrate, streams[0].Jobs); err != nil {
				return nil, err
			}
			var bsldSum, utilSum float64
			// Placement counts aggregate by template slot: a -clusters
			// synthesized fleet cycles the 3-size template, so slot i%3 is
			// still the large/mid/small size class.
			counts := make([]int, 3)
			var firstAssign []int
			for _, st := range streams {
				res, err := f.Run(st.Jobs)
				if err != nil {
					return nil, fmt.Errorf("fleet-placement: %s: %w", rc.name, err)
				}
				bsldSum += metrics.Value(metrics.BoundedSlowdown, res.Fleet)
				utilSum += res.Fleet.Utilization
				for i, c := range res.Clusters {
					counts[i%len(counts)] += c.Placements
				}
				if firstAssign == nil {
					firstAssign = res.Assignments
				}
			}
			// Re-run the first stream with a freshly built router+fleet:
			// assignments must reproduce exactly.
			router2, err := rc.build()
			if err != nil {
				return nil, err
			}
			f2, err := fleet.New(fleetMembers(o, rlSched), router2)
			if err != nil {
				return nil, err
			}
			again := fleetStreams(o, cache.get("Lublin-1"), cache.get("Lublin-2"))[si][0]
			if err := enableMigration(f2, router2, o.Migrate, again.Jobs); err != nil {
				return nil, err
			}
			if o.TracePath != "" && rc.name == "rl-scored" {
				timeline = obs.NewCollector()
				f2.SetRecorder(timeline)
			}
			if o.TimeseriesPath != "" && rc.name == "rl-scored" {
				health = telemetry.NewSet()
				if err := f2.EnableSampling(fleet.SamplingConfig{
					Interval: sweepInterval(again.Jobs),
					Set:      health,
				}); err != nil {
					return nil, err
				}
			}
			res2, err := f2.Run(again.Jobs)
			if err != nil {
				return nil, err
			}
			for i := range firstAssign {
				if firstAssign[i] != res2.Assignments[i] {
					deterministic = false
				}
			}
			o.addResult(fmt.Sprintf("%s/%s", scenario, rc.name), res2.Fleet)
			n := float64(len(streams))
			t.AddRow(rc.name,
				fmt.Sprintf("%.2f", bsldSum/n),
				fmt.Sprintf("%.3f", utilSum/n),
				fmt.Sprintf("%d/%d/%d", counts[0], counts[1], counts[2]))
			donePhase()
		}
		if si == 0 {
			t.Notes = append(t.Notes,
				"shape to check: load-aware routing (least-loaded / binpack / rl-scored) beats random on fleet-wide bsld")
		}
		arts = append(arts, t)
	}
	note := "placement determinism: assignments reproduced exactly across rebuilt routers"
	if !deterministic {
		note = "placement determinism: VIOLATED — assignments differed across rebuilt routers"
	}
	last := arts[len(arts)-1].(*Table)
	last.Notes = append(last.Notes, note)
	if !deterministic {
		return arts, fmt.Errorf("fleet-placement: assignments were not deterministic")
	}
	if health != nil {
		if err := health.WriteFile(o.TimeseriesPath); err != nil {
			return nil, fmt.Errorf("fleet-placement: write timeseries: %w", err)
		}
	}
	if timeline != nil {
		if err := timeline.WriteChromeTraceSeriesFile(o.TracePath, health); err != nil {
			return nil, fmt.Errorf("fleet-placement: write trace: %w", err)
		}
	}
	return arts, nil
}
