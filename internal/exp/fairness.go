package exp

import (
	"fmt"
	"math/rand"

	"rlsched/internal/fleet"
	"rlsched/internal/job"
	"rlsched/internal/metrics"
	"rlsched/internal/sched"
	"rlsched/internal/sim"
	"rlsched/internal/stats"
	"rlsched/internal/trace"
)

func init() {
	registry["fleet-fairness"] = FleetFairness
}

// fairnessSeeds is how many seeds the fleet-fairness campaign spans; each
// seed is one paired outcome of every fairness verdict.
const fairnessSeeds = 100

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

// fairnessMeanBound bounds the efficiency cost of fairness: the fair
// router's pooled mean bounded slowdown must beat this multiple of
// least-loaded's across the seeds.
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
// the run interleaves repair sweeps under that policy with the committed
// pick movable — a starved short job is almost always the committed head
// of an SJF/F1 queue blocked behind wide running work.
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
	cfg, err := migrationConfigFor(rc.migrate, sweepInterval(streams[0]))
	if err != nil {
		return fairnessCase{}, nil, err
	}
	if cfg != nil {
		cfg.MigrateCommitted = true
		if err := f.EnableMigration(*cfg); err != nil {
			return fairnessCase{}, nil, err
		}
	}
	var pooled []*job.Job
	var firstAssign []int
	for _, stream := range streams {
		res, err := f.Run(stream)
		if err != nil {
			return fairnessCase{}, nil, fmt.Errorf("%s: %w", rc.name, err)
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
// The self-check is five verdicts over fairnessSeeds seeds, one paired
// outcome per seed: fair beats least-loaded and binpack on fleet-wide
// FairMaxBoundedSlowdown and on Jain's index (negated, so lower is
// better), and fair's pooled mean bounded slowdown beats
// fairnessMeanBound× least-loaded's (fairness is bought with a bounded
// efficiency budget, not throughput collapse). Discrete-event schedules
// are chaotic — a single seed's tail job is weather — so each claim is a
// sign test over the seeds, not a comparison of campaign means.
//
// Determinism is pinned per seed: a freshly built router and fleet must
// reproduce identical assignments and fairness reports (stateful fairness
// shares included).
func FleetFairness(o Options) ([]Artifact, error) {
	routers := []routerCase{
		{"least-loaded", "", func() (fleet.Router, error) { return fleet.LeastLoadedPipeline(), nil }},
		{"binpack", "", func() (fleet.Router, error) { return fleet.BinpackPipeline(), nil }},
		{"least-loaded+mig", "hysteresis", func() (fleet.Router, error) { return fleet.LeastLoadedPipeline(), nil }},
		{"fair", "hysteresis", func() (fleet.Router, error) { return fleet.FairnessPipeline(fleet.FairnessConfig{}), nil }},
	}

	t := &Table{
		Title: fmt.Sprintf("Fleet fairness, heavy-user burst: %d seeds × %d × %d-job streams over backfilling [256 SJF, 128 SJF, 64 F1]",
			fairnessSeeds, fairnessStreamsN, fairnessStreamLen),
		Header: []string{"Router", "fair-bsld (fleet)", "Jain", "mean bsld", "max/mean", "users"},
	}
	cases, deterministic, err := campaign(o, fairnessSeeds, routers, runFairnessCampaign)
	if err != nil {
		return nil, err
	}
	// perSeed lists f's value on each of a router's seeds.
	perSeed := func(name string, f func(fairnessCase) float64) []float64 {
		var out []float64
		for _, c := range cases[name] {
			out = append(out, f(c))
		}
		return out
	}
	fairMax := func(c fairnessCase) float64 { return c.rep.Max }
	negJain := func(c fairnessCase) float64 { return -c.rep.Jain } // lower is better
	mean := func(c fairnessCase) float64 { return c.mean }
	for _, rc := range routers {
		t.AddRow(rc.name,
			fmt.Sprintf("%.2f", stats.Mean(perSeed(rc.name, fairMax))),
			fmt.Sprintf("%.3f", -stats.Mean(perSeed(rc.name, negJain))),
			fmt.Sprintf("%.2f", stats.Mean(perSeed(rc.name, mean))),
			fmt.Sprintf("%.2f", stats.Mean(perSeed(rc.name, func(c fairnessCase) float64 { return c.rep.MaxMeanRatio }))),
			fmt.Sprintf("%.0f", stats.Mean(perSeed(rc.name, func(c fairnessCase) float64 { return float64(c.rep.Users) }))))
	}

	var verdicts []verdict
	for _, base := range []string{"least-loaded", "binpack"} {
		verdicts = append(verdicts,
			judge("fair beats "+base+" on per-seed FairMax bsld", perSeed("fair", fairMax), perSeed(base, fairMax)),
			judge("fair beats "+base+" on per-seed Jain", perSeed("fair", negJain), perSeed(base, negJain)))
	}
	bound := func(c fairnessCase) float64 { return fairnessMeanBound * c.mean }
	verdicts = append(verdicts, judge(fmt.Sprintf("fair beats %g× least-loaded on per-seed mean bsld", fairnessMeanBound),
		perSeed("fair", mean), perSeed("least-loaded", bound)))
	return selfCheck(o, verdicts, deterministic,
		"placement determinism: assignments and fairness reports reproduced exactly across rebuilt routers", nil, t)
}
