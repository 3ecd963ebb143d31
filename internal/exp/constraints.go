package exp

import (
	"fmt"
	"math/rand"

	"rlsched/internal/fleet"
	"rlsched/internal/job"
	"rlsched/internal/metrics"
	"rlsched/internal/obs"
	"rlsched/internal/sched"
	"rlsched/internal/sim"
)

func init() {
	registry["fleet-constraints"] = FleetConstraints
}

// Campaign geometry for fleet-constraints: seeds × streams × jobs. The
// zero-violation claim is absolute, so the campaign stays small; -scale
// controls only the trace length sampled from.
const (
	constraintSeeds     = 3
	constraintStreamsN  = 4
	constraintStreamLen = 160
)

// gpuProcLimit bounds which jobs the experiment tags as GPU work: the gpu
// members have 128 processors, so only jobs at most this wide are eligible
// (wider GPU jobs would be infeasible fleet-wide and abort the run).
const gpuProcLimit = 64

// constraintMembers is the attributed fleet: two tainted gpu members in
// different failure domains, three cpu members across three domains. The
// scenario pins the attributes its checks replay, so -clusters synthesis
// does not apply.
func constraintMembers(o Options) []fleet.MemberConfig {
	gpuTaints := []fleet.Taint{{Key: "dedicated", Value: "gpu"}}
	mk := func(name, class, domain string, procs int, s sim.Scheduler, taints []fleet.Taint) fleet.MemberConfig {
		return fleet.MemberConfig{
			Name:      name,
			Sim:       sim.Config{Processors: procs, Backfill: true, MaxObserve: o.MaxObserve},
			Scheduler: s,
			Attrs:     fleet.MemberAttrs{Class: class, FailureDomain: domain, Taints: taints},
		}
	}
	return []fleet.MemberConfig{
		mk("gpu-a-128", "gpu", "dc-a", 128, sched.SJF(), gpuTaints),
		mk("gpu-b-128", "gpu", "dc-b", 128, sched.SJF(), gpuTaints),
		mk("cpu-a-256", "cpu", "dc-a", 256, sched.SJF(), nil),
		mk("cpu-b-256", "cpu", "dc-b", 256, sched.SJF(), nil),
		mk("cpu-c-128", "cpu", "dc-c", 128, sched.F1(), nil),
	}
}

// constraintSource derives a job's constraints from its QueueID: queue 1 is
// the GPU queue (class affinity to gpu members plus the toleration that
// unlocks them), everything else is untagged CPU work that no tainted
// member may take.
func constraintSource(j *job.Job) fleet.JobConstraints {
	if j.QueueID == 1 {
		return fleet.JobConstraints{
			Tolerations:   []fleet.Toleration{{Key: "dedicated", Value: "gpu"}},
			RequiredClass: "gpu",
		}
	}
	return fleet.JobConstraints{}
}

// constraintStreams samples the seed's streams and tags the GPU queue:
// every third narrow-enough job is re-queued as GPU work. The tagging is a
// pure function of the sampled jobs, so streams are identical across
// routers for a fixed seed.
func constraintStreams(o Options, seed int64) [][]*job.Job {
	tr := fairnessTrace(o.TraceJobs, seed)
	rng := rand.New(rand.NewSource(seed + 13000))
	out := make([][]*job.Job, constraintStreamsN)
	for s := range out {
		jobs := tr.SampleWindow(rng, constraintStreamLen)
		for _, j := range jobs {
			if j.RequestedProcs <= gpuProcLimit && j.ID%3 == 0 {
				j.QueueID = 1
			} else {
				j.QueueID = 0
			}
		}
		out[s] = jobs
	}
	return out
}

// constraintRouterFor builds the constrained router for the scenario
// (Options.Constraints / -constraints): "" or "full" is the standard
// ConstraintPipeline; "taints" and "affinity" apply each hard gate alone
// over the least-loaded ordering.
func constraintRouterFor(scenario string) (*fleet.Pipeline, error) {
	switch scenario {
	case "", "full":
		return fleet.ConstraintPipeline(constraintSource), nil
	case "taints":
		return fleet.NewPipeline("taints-only",
			[]fleet.Filter{fleet.CapacityFilter{}, fleet.TaintFilter{Source: constraintSource}},
			[]fleet.WeightedScorer{{Scorer: fleet.LeastLoaded{}, Weight: 1}}), nil
	case "affinity":
		return fleet.NewPipeline("affinity-only",
			[]fleet.Filter{fleet.CapacityFilter{}, fleet.AffinityFilter{Source: constraintSource}},
			[]fleet.WeightedScorer{{Scorer: fleet.LeastLoaded{}, Weight: 1}}), nil
	}
	return nil, fmt.Errorf("exp: unknown constraints scenario %q (full|taints|affinity)", scenario)
}

// countViolations replays a run's decision trace against the declared
// member attributes and the jobs' constraints: a violation is a decision
// whose winning member carries an untolerated taint (when taints are
// enforced) or misses the job's required class (when affinity is
// enforced). This is the experiment's ground truth — asserted from the
// obs records the run actually emitted, not from the router's own claims.
func countViolations(col *obs.Collector, members []fleet.MemberConfig,
	byID map[int]fleet.JobConstraints, taints, affinity bool) int {
	violations := 0
	for _, d := range col.Placements() {
		if d.Winner < 0 || d.Winner >= len(members) {
			continue
		}
		attrs := members[d.Winner].Attrs
		cons := byID[d.Job.ID]
		if taints {
			for _, taint := range attrs.Taints {
				covered := false
				for _, tol := range cons.Tolerations {
					if tol.Tolerates(taint) {
						covered = true
						break
					}
				}
				if !covered {
					violations++
					break
				}
			}
		}
		if affinity && cons.RequiredClass != "" && cons.RequiredClass != attrs.Class {
			violations++
		}
	}
	return violations
}

// constraintCase aggregates one router's campaign over a seed.
type constraintCase struct {
	bsld, util float64
	violations int
	decisions  int
	domains    map[string]int
}

// runConstraintCampaign runs the router over every stream of the seed with
// a decision collector attached, replaying each trace for violations.
func runConstraintCampaign(o Options, seed int64, rc routerCase,
	taints, affinity bool) (constraintCase, []int, error) {
	c := constraintCase{domains: map[string]int{}}
	var firstAssign []int
	members := constraintMembers(o)
	for _, stream := range constraintStreams(o, seed) {
		router, err := rc.build()
		if err != nil {
			return c, nil, err
		}
		f, err := fleet.New(members, router)
		if err != nil {
			return c, nil, err
		}
		col := obs.NewCollector()
		f.SetRecorder(col)
		res, err := f.Run(stream)
		if err != nil {
			return c, nil, fmt.Errorf("fleet-constraints: %s: %w", router.Name(), err)
		}
		if len(res.Fleet.Jobs) != len(stream) {
			return c, nil, fmt.Errorf("fleet-constraints: %s: %d jobs in, %d completed",
				router.Name(), len(stream), len(res.Fleet.Jobs))
		}
		byID := make(map[int]fleet.JobConstraints, len(stream))
		for _, j := range stream {
			byID[j.ID] = constraintSource(j)
		}
		c.violations += countViolations(col, members, byID, taints, affinity)
		c.decisions += len(col.Placements())
		c.bsld += metrics.Value(metrics.BoundedSlowdown, res.Fleet)
		c.util += res.Fleet.Utilization
		for i, cr := range res.Clusters {
			d := members[i].Attrs.FailureDomain
			c.domains[d] += cr.Placements
		}
		if firstAssign == nil {
			firstAssign = res.Assignments
		}
	}
	n := float64(constraintStreamsN)
	c.bsld /= n
	c.util /= n
	return c, firstAssign, nil
}

// FleetConstraints runs constrained placement over an attributed fleet —
// tainted gpu members, class-labelled members, three failure domains — and
// verifies the hard guarantees from the recorded decision traces: the
// constrained router must produce ZERO violations (no untolerated taint, no
// class miss), while the unconstrained least-loaded baseline, which sees
// the same streams, must violate at least once (proving the workload
// actually exercises the constraints). Spread is reported as the placement
// share per failure domain. Determinism is pinned by a full re-run.
func FleetConstraints(o Options) ([]Artifact, error) {
	scenario := o.Constraints
	if _, err := constraintRouterFor(scenario); err != nil {
		return nil, err
	}
	scenarioName := scenario
	if scenarioName == "" {
		scenarioName = "full"
	}
	// The replay checks only the gates the scenario enforces.
	taints := scenarioName == "full" || scenarioName == "taints"
	affinity := scenarioName == "full" || scenarioName == "affinity"

	routers := []routerCase{
		{"unconstrained", false, func() (fleet.Router, error) { return fleet.LeastLoadedPipeline(), nil }},
		{"constrained", false, func() (fleet.Router, error) { return constraintRouterFor(scenario) }},
	}

	t := &Table{
		Title: fmt.Sprintf("Fleet constraints (%s): %d seeds × %d × %d-job streams over [2 tainted gpu + 3 cpu members, 3 domains]",
			scenarioName, constraintSeeds, constraintStreamsN, constraintStreamLen),
		Header: []string{"Router", "fleet bsld", "fleet util", "violations", "decisions", "dc-a/dc-b/dc-c"},
	}
	run := func(o Options, seed int64, rc routerCase) (constraintCase, []int, error) {
		return runConstraintCampaign(o, seed, rc, taints, affinity)
	}
	cases, deterministic, err := campaign(o, constraintSeeds, routers, run, func(a, b constraintCase) bool {
		return a.violations == b.violations && a.bsld == b.bsld
	})
	if err != nil {
		return nil, err
	}

	agg := func(name string) (bsld, util float64, viol, dec int, dom map[string]int) {
		dom = map[string]int{}
		for _, c := range cases[name] {
			bsld += c.bsld
			util += c.util
			viol += c.violations
			dec += c.decisions
			for d, n := range c.domains {
				dom[d] += n
			}
		}
		n := float64(len(cases[name]))
		return bsld / n, util / n, viol, dec, dom
	}
	for _, rc := range routers {
		bsld, util, viol, dec, dom := agg(rc.name)
		t.AddRow(rc.name,
			fmt.Sprintf("%.2f", bsld),
			fmt.Sprintf("%.3f", util),
			fmt.Sprintf("%d", viol),
			fmt.Sprintf("%d", dec),
			fmt.Sprintf("%d/%d/%d", dom["dc-a"], dom["dc-b"], dom["dc-c"]))
	}

	var violations []string
	_, _, consViol, consDec, _ := agg("constrained")
	_, _, baseViol, _, _ := agg("unconstrained")
	if consViol != 0 {
		violations = append(violations, fmt.Sprintf(
			"constrained router violated a hard constraint %d times (must be 0)", consViol))
	}
	if consDec == 0 {
		violations = append(violations, "constrained router emitted no decision traces to verify")
	}
	if baseViol == 0 {
		violations = append(violations,
			"unconstrained baseline violated nothing — the workload does not exercise the constraints")
	}
	if len(violations) == 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"hard-constraint guarantee verified from decision traces: 0 violations in %d constrained decisions; unconstrained baseline violated %d times on the same streams",
			consDec, baseViol))
	}
	return selfCheck(t, "fleet-constraints", "constraint", deterministic,
		"determinism: assignments and violation counts reproduced exactly across rebuilt fleets",
		violations)
}
