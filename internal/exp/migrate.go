package exp

import (
	"fmt"
	"slices"

	"rlsched/internal/fleet"
	"rlsched/internal/job"
	"rlsched/internal/obs"
	"rlsched/internal/sched"
	"rlsched/internal/sim"
	"rlsched/internal/trace"
)

func init() {
	registry["fleet-migration"] = FleetMigration
}

// migrationMembers is the heterogeneous fleet the migration experiment
// runs on: no RL member, so the experiment isolates the value of
// re-placement from the value of the learned per-cluster policy (and needs
// no training run). FCFS on the large cluster makes head-of-line blocking
// — the canonical stranding mechanism — possible.
func migrationMembers(o Options) []fleet.MemberConfig {
	return synthesizeFleet(o, []fleet.MemberConfig{
		{Name: "large-256", Sim: sim.Config{Processors: 256, MaxObserve: o.MaxObserve}, Scheduler: sched.FCFS()},
		{Name: "mid-128", Sim: sim.Config{Processors: 128, MaxObserve: o.MaxObserve}, Scheduler: sched.SJF()},
		{Name: "small-64", Sim: sim.Config{Processors: 64, MaxObserve: o.MaxObserve}, Scheduler: sched.F1()},
	})
}

// migrationStreams extends the fleet-placement workload-shift stream with
// a mid-stream burst: the second half switches to the Lublin-2 regime with
// arrivals compressed 4×, briefly saturating the fleet. Queued jobs are
// placed on burst-time signals; as actual runtimes unfold the members
// drain at different speeds, which is precisely where one-shot placement
// strands work. Streams are identical across policies for a fixed seed.
func migrationStreams(o Options, steady, shift *trace.Trace) [][]*job.Job {
	streams := fleetStreams(o, steady, shift)[1]
	for _, st := range streams {
		// Re-compress the shifted half's interarrivals 4× in place (the
		// jobs are fresh clones owned by this call).
		if h := len(st) / 2; h < len(st) {
			base := st[h].SubmitTime
			for _, j := range st[h:] {
				j.SubmitTime = base + (j.SubmitTime-base)/4
			}
		}
	}
	return streams
}

// sweepInterval derives the migration sweep period from the stream: ~8
// mean interarrivals, so a sweep sees a few new placements' worth of
// drift without dominating runtime.
func sweepInterval(stream []*job.Job) float64 {
	if len(stream) < 2 {
		return 1
	}
	span := stream[len(stream)-1].SubmitTime - stream[0].SubmitTime
	iv := 8 * span / float64(len(stream)-1)
	if iv <= 0 {
		iv = 1
	}
	return iv
}

// migrationConfigFor maps a -migrate policy name to a controller config
// (nil for "off"/""), or errors on an unknown name.
func migrationConfigFor(policy string, interval float64) (*fleet.MigrationConfig, error) {
	switch policy {
	case "", "off":
		return nil, nil
	case "hysteresis":
		cfg := fleet.HysteresisMigration(interval)
		return &cfg, nil
	case "always":
		cfg := fleet.AlwaysRebalance(interval)
		return &cfg, nil
	}
	return nil, fmt.Errorf("exp: unknown migration policy %q (off|hysteresis|always)", policy)
}

// migrationSeeds is how many seeds fleet-migration's campaign spans.
const migrationSeeds = 20

// FleetMigration compares one-shot placement against hysteresis migration
// and greedy always-rebalance on the burst-sharpened workload-shift
// stream, over a heuristic [256 FCFS, 128 SJF, 64 F1] fleet routed by the
// least-loaded pipeline, across migrationSeeds seeds. It self-checks the
// claim that motivates the subsystem: under a workload shift, hysteresis
// migration beats no migration on per-stream fleet bounded slowdown.
func FleetMigration(o Options) ([]Artifact, error) {
	leastLoaded := func() (fleet.Router, error) { return fleet.LeastLoadedPipeline(), nil }
	routers := []routerCase{
		{"no-migration", "", leastLoaded},
		{"hysteresis", "hysteresis", leastLoaded},
		{"always-rebalance", "always", leastLoaded},
	}
	members := migrationMembers(o)
	// With -trace-out set, every recorded hysteresis stream carries its own
	// collector, and the first recording that contains an actual move
	// becomes the exported timeline (the first stream when nothing moved).
	var timeline, col *obs.Collector
	hasMove := func(c *obs.Collector) bool {
		return slices.ContainsFunc(c.Migrations(), func(p obs.MigrationProbe) bool { return p.Moved })
	}
	run := func(o Options, seed int64, rc routerCase) ([]outcome, []int, error) {
		so := o
		so.Seed = seed
		cache := newTraceCache(so)
		streams := migrationStreams(so, cache.get("Lublin-1"), cache.get("Lublin-2"))
		return runStreams(streams, rc, members, func(_ int, f *fleet.Fleet, _ []*job.Job) error {
			col = nil
			if o.TracePath != "" && rc.name == "hysteresis" {
				col = obs.NewCollector()
				f.SetRecorder(col)
			}
			return nil
		}, func(i int, _ []*job.Job, res *fleet.Result) error {
			if col != nil && (timeline == nil || (!hasMove(timeline) && hasMove(col))) {
				timeline = col
			}
			o.addResult(fmt.Sprintf("%s/seed%d/stream%d", rc.name, seed, i), res.Fleet)
			return nil
		})
	}
	cases, deterministic, err := campaign(o, migrationSeeds, routers, run)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: fmt.Sprintf("Fleet migration, workload shift + burst: %d seeds × %d × %d-job streams over [256 FCFS, 128 SJF, 64 F1], least-loaded router",
			migrationSeeds, o.EvalNSeq, o.EvalSeqLen),
		Header: []string{"Policy", "fleet bsld", "fleet util", "moves", "migrated", "mean delay", "bsld mig/native"},
	}
	for _, rc := range routers {
		sum, bsld := total(cases[rc.name])
		n := float64(len(bsld))
		split, delay := "—", "—"
		if sum.migrated > 0 {
			split = fmt.Sprintf("%.2f/%.2f", sum.migBsld/float64(sum.migrated), sum.natBsld/float64(sum.native))
			delay = fmt.Sprintf("%.0fs", sum.delay/float64(sum.migrated))
		}
		t.AddRow(rc.name, fmt.Sprintf("%.2f", sum.bsld/n), fmt.Sprintf("%.3f", sum.util/n),
			fmt.Sprintf("%d", sum.moves), fmt.Sprintf("%d", sum.migrated), delay, split)
	}
	_, hyst := total(cases["hysteresis"])
	_, none := total(cases["no-migration"])
	win := judge("hysteresis beats no-migration on per-stream fleet bsld", hyst, none)
	arts, err := selfCheck(o, []verdict{win}, deterministic,
		"determinism: assignments reproduced exactly across rebuilt fleets", nil, t)
	if err != nil {
		return arts, err
	}
	if timeline != nil {
		if err := timeline.WriteChromeTraceFile(o.TracePath); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return arts, nil
}
