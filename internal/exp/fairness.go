package exp

import (
	"fmt"
	"math/rand"

	"rlsched/internal/fleet"
	"rlsched/internal/job"
	"rlsched/internal/metrics"
	"rlsched/internal/sched"
	"rlsched/internal/sim"
	"rlsched/internal/trace"
)

func init() {
	registry["fleet-fairness"] = FleetFairness
}

// fairnessSeeds is how many seed variants the fleet-fairness self-check
// spans: the aggregate win must hold across all of them, and FairMax must
// improve on a strict majority of them individually.
const fairnessSeeds = 5

// fairnessStreamsN and fairnessStreamLen fix the campaign geometry: 6
// streams of 192 jobs per seed. The burst scenario's load regime — busy
// fleet, saturating mid-trace burst, enough pooled jobs per user for
// stable per-user means — is what the self-check is calibrated against,
// so the campaign does not stretch with -scale (which would change the
// regime, not just the precision); scale still controls the trace length
// and the observation window.
const (
	fairnessStreamsN  = 6
	fairnessStreamLen = 192
)

// fairnessMeanBound bounds the efficiency cost of fairness on every seed:
// the fair router's pooled mean bounded slowdown must stay within this
// factor of least-loaded's.
const fairnessMeanBound = 1.5

// fairnessTrace synthesizes the skewed-user workload: a near-uniform user
// population plus one dominant user holding an outsized share of the
// submissions (the HPC2N u17 pattern the paper's §V-F discussion is built
// on), on a trace sized to keep the heterogeneous fleet busy but not
// saturated — the burst injected by fairnessStreams is what tips it over.
func fairnessTrace(jobs int, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	return trace.GenerateSynth(trace.SynthConfig{
		Name:               "fleet-fair",
		Processors:         256,
		Jobs:               jobs,
		MeanInterarrival:   350,
		Burstiness:         1.5,
		BurstLen:           8,
		MeanRuntime:        4000,
		RuntimeSigma:       1.6,
		MeanProcs:          16,
		SerialProb:         0.3,
		EstimateFactor:     2,
		Users:              12,
		UserSkew:           0.3,
		DominantUserWeight: 0.3,
	}, rng)
}

// fairnessStreams samples the evaluation streams and injects the heavy-user
// burst: the middle third of every stream is re-attributed to the dominant
// user (ID 0) with interarrivals compressed 5×, so one user briefly floods
// the whole fleet mid-trace — the regime where per-cluster fairness
// metrics stay blind while the fleet-wide per-user view degrades.
func fairnessStreams(o Options, seed int64) [][]*job.Job {
	tr := fairnessTrace(o.TraceJobs, seed)
	rng := rand.New(rand.NewSource(seed + 9000))
	out := make([][]*job.Job, fairnessStreamsN)
	for s := range out {
		jobs := tr.SampleWindow(rng, fairnessStreamLen)
		n := len(jobs)
		lo, hi := n/3, 2*n/3
		if hi > lo {
			base := jobs[lo].SubmitTime
			for _, j := range jobs[lo:hi] {
				j.UserID = 0
				// Compression is affine toward the burst start, so the
				// stream stays submit-ordered: burst jobs only move
				// earlier, never past the jobs before or after them.
				j.SubmitTime = base + (j.SubmitTime-base)/5
			}
		}
		out[s] = jobs
	}
	return out
}

// fairnessMembers is the fleet the fairness experiment runs on: EASY
// backfilling everywhere (without it a committed wide job stalls its whole
// cluster for a full drain — a lottery no router controls), SJF on the
// large members (SJF's starvation of long and wide jobs is the classic
// per-user unfairness mechanism, and a starved job sits *unselected* in
// the queue where a sweep can still withdraw it) and F1 on the small one.
func fairnessMembers(o Options) []fleet.MemberConfig {
	return synthesizeFleet(o, []fleet.MemberConfig{
		{Name: "large-256", Sim: sim.Config{Processors: 256, Backfill: true, MaxObserve: o.MaxObserve}, Scheduler: sched.SJF()},
		{Name: "mid-128", Sim: sim.Config{Processors: 128, Backfill: true, MaxObserve: o.MaxObserve}, Scheduler: sched.SJF()},
		{Name: "small-64", Sim: sim.Config{Processors: 64, Backfill: true, MaxObserve: o.MaxObserve}, Scheduler: sched.F1()},
	})
}

// fairnessMigration is the repair-sweep policy the fairness subsystem (and
// the least-loaded+mig decomposition row) runs under: the standard
// hysteresis controller with the committed pick movable — a starved short
// job is almost always the committed head of an SJF/F1 queue blocked
// behind wide running work.
func fairnessMigration(stream []*job.Job) fleet.MigrationConfig {
	cfg := fleet.HysteresisMigration(sweepInterval(stream))
	cfg.MigrateCommitted = true
	return cfg
}

// fairnessCase aggregates one router's campaign over every stream of one
// seed: the pooled job set's fairness report and mean bounded slowdown.
type fairnessCase struct {
	rep  metrics.FairnessReport
	mean float64
}

// runFairnessCampaign runs the router over every stream of the seed and
// pools the completed jobs into one fleet-wide fairness view (the PerUser
// surface composing over Merge'd results — per-stream FairMax would be the
// per-cluster blindness all over again, one level up). With rc.migrate set
// the run interleaves fairness-grade repair sweeps.
func runFairnessCampaign(o Options, seed int64, rc routerCase) (fairnessCase, []int, error) {
	router, err := rc.build()
	if err != nil {
		return fairnessCase{}, nil, err
	}
	f, err := fleet.New(fairnessMembers(o), router)
	if err != nil {
		return fairnessCase{}, nil, err
	}
	streams := fairnessStreams(o, seed)
	if rc.migrate && len(streams) > 0 {
		if err := f.EnableMigration(fairnessMigration(streams[0])); err != nil {
			return fairnessCase{}, nil, err
		}
	}
	var pooled []*job.Job
	var firstAssign []int
	for _, stream := range streams {
		res, err := f.Run(stream)
		if err != nil {
			return fairnessCase{}, nil, fmt.Errorf("fleet-fairness: %s: %w", router.Name(), err)
		}
		pooled = append(pooled, res.Fleet.Jobs...)
		if firstAssign == nil {
			firstAssign = res.Assignments
		}
	}
	return fairnessCase{
		rep:  metrics.Fairness(pooled, metrics.BoundedSlowdown),
		mean: metrics.Value(metrics.BoundedSlowdown, metrics.Result{Jobs: pooled}),
	}, firstAssign, nil
}

// FleetFairness measures fleet-wide per-user fairness on the skewed-user
// burst workload over a backfilling [256 SJF, 128 SJF, 64 F1] fleet. The
// fairness subsystem under test is placement by the FairnessPipeline plus
// fairness-aware repair sweeps; it is compared against the deployed
// one-shot routers (least-loaded, binpack) and, for decomposition, against
// least-loaded under the identical migration policy — so the table shows
// how much of the win is re-placement and how much is the fairness
// scoring steering it.
//
// The self-check spans fairnessSeeds seed variants:
//
//  1. On every seed, fair's pooled mean bounded slowdown stays within
//     fairnessMeanBound× of one-shot least-loaded's (fairness is bought
//     with a bounded efficiency budget, not throughput collapse).
//  2. Aggregated across the seeds, fair strictly improves both fleet-wide
//     FairMaxBoundedSlowdown and Jain's index over least-loaded AND over
//     binpack.
//  3. Fair improves FairMax over least-loaded on a strict majority of the
//     seeds individually (discrete-event schedules are chaotic; a single
//     seed's tail job is weather, the majority and the aggregate are
//     climate).
//
// Determinism is pinned per seed: a freshly built router and fleet must
// reproduce identical assignments and fairness reports (stateful fairness
// shares included).
func FleetFairness(o Options) ([]Artifact, error) {
	routers := []routerCase{
		{"least-loaded", false, func() (fleet.Router, error) { return fleet.LeastLoadedPipeline(), nil }},
		{"binpack", false, func() (fleet.Router, error) { return fleet.BinpackPipeline(), nil }},
		{"least-loaded+mig", true, func() (fleet.Router, error) { return fleet.LeastLoadedPipeline(), nil }},
		{"fair", true, func() (fleet.Router, error) { return fleet.FairnessPipeline(fleet.FairnessConfig{}), nil }},
	}

	t := &Table{
		Title: fmt.Sprintf("Fleet fairness, heavy-user burst: %d seeds × %d × %d-job streams over backfilling [256 SJF, 128 SJF, 64 F1]",
			fairnessSeeds, fairnessStreamsN, fairnessStreamLen),
		Header: []string{"Router", "fair-bsld (fleet)", "Jain", "mean bsld", "max/mean", "users"},
	}
	// Stateful fairness shares included, a rebuilt router and fleet must
	// reproduce the same fairness report.
	cases, deterministic, err := campaign(o, fairnessSeeds, routers, runFairnessCampaign, func(a, b fairnessCase) bool {
		return a == b
	})
	if err != nil {
		return nil, err
	}

	// agg averages a router's per-seed campaign outcomes.
	agg := func(name string) (fm, jain, mean, ratio, users float64) {
		for _, c := range cases[name] {
			fm += c.rep.Max
			jain += c.rep.Jain
			mean += c.mean
			ratio += c.rep.MaxMeanRatio
			users += float64(c.rep.Users)
		}
		n := float64(len(cases[name]))
		return fm / n, jain / n, mean / n, ratio / n, users / n
	}
	for _, rc := range routers {
		fm, jain, mean, ratio, users := agg(rc.name)
		t.AddRow(rc.name,
			fmt.Sprintf("%.2f", fm),
			fmt.Sprintf("%.3f", jain),
			fmt.Sprintf("%.2f", mean),
			fmt.Sprintf("%.2f", ratio),
			fmt.Sprintf("%.0f", users))
	}

	var violations []string
	// 1. Per-seed bounded efficiency cost.
	for s := 0; s < fairnessSeeds; s++ {
		ll, fair := cases["least-loaded"][s], cases["fair"][s]
		if !(fair.mean <= fairnessMeanBound*ll.mean) {
			violations = append(violations, fmt.Sprintf(
				"seed +%d: fair mean bsld %.3f > %.1f× least-loaded %.3f",
				s, fair.mean, fairnessMeanBound, ll.mean))
		}
	}
	// 2. Aggregate strict improvement vs both one-shot baselines.
	fairFM, fairJain, _, _, _ := agg("fair")
	for _, base := range []string{"least-loaded", "binpack"} {
		bFM, bJain, _, _, _ := agg(base)
		if !(fairFM < bFM) {
			violations = append(violations, fmt.Sprintf(
				"aggregate FairMax: fair %.3f !< %s %.3f", fairFM, base, bFM))
		}
		if !(fairJain > bJain) {
			violations = append(violations, fmt.Sprintf(
				"aggregate Jain: fair %.4f !> %s %.4f", fairJain, base, bJain))
		}
	}
	// 3. Per-seed FairMax majority vs least-loaded.
	fmWins := 0
	for s := 0; s < fairnessSeeds; s++ {
		if cases["fair"][s].rep.Max < cases["least-loaded"][s].rep.Max {
			fmWins++
		}
	}
	if 2*fmWins <= fairnessSeeds {
		violations = append(violations, fmt.Sprintf(
			"per-seed FairMax majority: fair beat least-loaded on only %d of %d seeds",
			fmWins, fairnessSeeds))
	}

	if len(violations) == 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"fairness win verified across %d seeds: fair strictly improves aggregate fleet-wide FairMax bsld and Jain vs least-loaded and binpack (per-seed FairMax wins: %d/%d), mean bsld within %.1f× on every seed",
			fairnessSeeds, fmWins, fairnessSeeds, fairnessMeanBound))
	} else {
		t.Notes = append(t.Notes, "fairness win VIOLATED: "+violations[0])
	}
	note := "placement determinism: assignments and fairness reports reproduced exactly across rebuilt routers"
	if !deterministic {
		note = "placement determinism: VIOLATED — assignments differed across rebuilt routers"
		violations = append(violations, "assignments were not deterministic")
	}
	t.Notes = append(t.Notes, note)

	if len(violations) > 0 {
		// The fairness-win claims pin the default three-member scenario;
		// a -clusters synthesized fleet spreads contention thin enough
		// that they may legitimately not hold (determinism must, always).
		if o.Clusters > 0 && deterministic {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"self-check relaxed at %d synthesized clusters: %s",
				o.Clusters, violations[0]))
			return []Artifact{t}, nil
		}
		return []Artifact{t}, fmt.Errorf("fleet-fairness: self-check failed: %s", violations[0])
	}
	return []Artifact{t}, nil
}
