package exp

import (
	"fmt"
	"math/rand"

	"rlsched/internal/fleet"
	"rlsched/internal/job"
	"rlsched/internal/sched"
	"rlsched/internal/sim"
	"rlsched/internal/trace"
)

func init() {
	registry["fleet-churn"] = FleetChurn
}

// churnSeeds is how many seeds the fleet-churn campaign spans: under the
// full lifecycle scenario, churn-aware must beat churn-blind on the
// per-stream fleet bounded slowdown of all churnSeeds × churnStreamsN
// paired streams.
const churnSeeds = 100

// churnStreamsN, churnStreamLen and churnTraceJobs fix the campaign
// geometry per seed. The load regime — a busy fleet losing members
// mid-stream — is what the self-check is calibrated against, so the
// campaign does not stretch with -scale (which still controls the
// observation window).
const (
	churnStreamsN  = 4
	churnStreamLen = 160
	churnTraceJobs = 800
)

// Churn plan geometry, as fractions of the stream's arrival span: a fresh
// member joins early, a big member's failure is announced across a wide
// window (a reclamation warning — work started on it inside the window is
// lost at eviction), and the small member's graceful drain is announced
// late and lands near the end.
const (
	churnJoinFrac         = 0.10
	churnFailAnnounceFrac = 0.30
	churnFailFrac         = 0.70
	churnAnnounceFrac     = 0.75
	churnDrainFrac        = 0.90
)

// churnTrace synthesizes the evaluation workload: steady pressure sized so
// the [256, 256, 128, 64] fleet runs busy but not saturated — evicting the
// failed 256-proc member's running work is what the blind router pays for.
func churnTrace(jobs int, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	return trace.GenerateSynth(trace.SynthConfig{
		Name:             "fleet-churn",
		Processors:       256,
		Jobs:             jobs,
		MeanInterarrival: 180,
		Burstiness:       2,
		BurstLen:         10,
		MeanRuntime:      5000,
		RuntimeSigma:     1.5,
		MeanProcs:        16,
		SerialProb:       0.3,
		EstimateFactor:   2,
		Users:            16,
		UserSkew:         0.5,
	}, rng)
}

// churnMembers is the fleet the churn experiment starts with: EASY
// backfilling FCFS on the sized members, so queue position is what a late
// forced re-placement loses (under SJF a re-placed short job jumps the
// destination queue anyway, hiding the churn-blind penalty). The scenario
// pins the member names its churn plan targets, so -clusters synthesis
// does not apply here.
func churnMembers(o Options) []fleet.MemberConfig {
	return []fleet.MemberConfig{
		{Name: "large-a-256", Sim: sim.Config{Processors: 256, Backfill: true, MaxObserve: o.MaxObserve}, Scheduler: sched.FCFS()},
		{Name: "large-b-256", Sim: sim.Config{Processors: 256, Backfill: true, MaxObserve: o.MaxObserve}, Scheduler: sched.FCFS()},
		{Name: "mid-128", Sim: sim.Config{Processors: 128, Backfill: true, MaxObserve: o.MaxObserve}, Scheduler: sched.FCFS()},
		{Name: "small-64", Sim: sim.Config{Processors: 64, Backfill: true, MaxObserve: o.MaxObserve}, Scheduler: sched.F1()},
	}
}

// churnJoinMember is the mid-run replacement capacity of the full and join
// scenarios.
func churnJoinMember(o Options) fleet.MemberConfig {
	return fleet.MemberConfig{
		Name:      "late-128",
		Sim:       sim.Config{Processors: 128, Backfill: true, MaxObserve: o.MaxObserve},
		Scheduler: sched.FCFS(),
	}
}

// churnPlanFor builds the scenario's churn plan against one stream's
// arrival span. Scenario names (Options.Churn / -churn): "" or "full" runs
// join, announced fail, and announced drain together; "drain", "join" and
// "fail" run each membership change in isolation.
func churnPlanFor(o Options, stream []*job.Job, scenario string) (fleet.ChurnPlan, error) {
	span := stream[len(stream)-1].SubmitTime - stream[0].SubmitTime
	start := stream[0].SubmitTime
	at := func(frac float64) float64 { return start + frac*span }
	drain := fleet.ChurnEvent{
		Kind: fleet.ChurnDrain, Name: "small-64",
		Time: at(churnDrainFrac), Notice: (churnDrainFrac - churnAnnounceFrac) * span,
	}
	join := fleet.ChurnEvent{Kind: fleet.ChurnJoin, Member: churnJoinMember(o), Time: at(churnJoinFrac)}
	fail := fleet.ChurnEvent{
		Kind: fleet.ChurnFail, Name: "large-b-256",
		Time: at(churnFailFrac), Notice: (churnFailFrac - churnFailAnnounceFrac) * span,
	}
	switch scenario {
	case "", "full":
		return fleet.ChurnPlan{drain, join, fail}, nil
	case "drain":
		return fleet.ChurnPlan{drain}, nil
	case "join":
		return fleet.ChurnPlan{join}, nil
	case "fail":
		return fleet.ChurnPlan{fail}, nil
	}
	return nil, fmt.Errorf("exp: unknown churn scenario %q (full|drain|join|fail)", scenario)
}

// churnStreams samples the seed's evaluation streams (identical across
// routers for a fixed seed).
func churnStreams(o Options, seed int64) [][]*job.Job {
	tr := churnTrace(churnTraceJobs, seed)
	rng := rand.New(rand.NewSource(seed + 11000))
	out := make([][]*job.Job, churnStreamsN)
	for s := range out {
		out[s] = tr.SampleWindow(rng, churnStreamLen)
	}
	return out
}

// checkConservation asserts the churn invariant that makes the rest of the
// table trustworthy: every stream job completes exactly once — nothing is
// lost in a withdraw, nothing duplicated by a re-place.
func checkConservation(stream []*job.Job, res *fleet.Result) error {
	if len(res.Fleet.Jobs) != len(stream) {
		return fmt.Errorf("job conservation violated: %d in, %d completed",
			len(stream), len(res.Fleet.Jobs))
	}
	want := make(map[int]int, len(stream))
	for _, j := range stream {
		want[j.ID]++
	}
	for _, j := range res.Fleet.Jobs {
		want[j.ID]--
		if want[j.ID] < 0 {
			return fmt.Errorf("job conservation violated: job %d completed more than once", j.ID)
		}
	}
	for id, n := range want {
		if n != 0 {
			return fmt.Errorf("job conservation violated: job %d never completed", id)
		}
	}
	return nil
}

// runChurnCampaign runs the router over every stream of the seed under the
// o.Churn scenario's plan, enforcing on every run that the whole plan
// executed and that every job completed exactly once.
func runChurnCampaign(o Options, seed int64, rc routerCase) ([]outcome, []int, error) {
	var plan fleet.ChurnPlan
	return runStreams(churnStreams(o, seed), rc, churnMembers(o), func(_ int, f *fleet.Fleet, stream []*job.Job) error {
		var err error
		if plan, err = churnPlanFor(o, stream, o.Churn); err != nil {
			return err
		}
		return f.EnableChurn(plan)
	}, func(_ int, stream []*job.Job, res *fleet.Result) error {
		if c := res.Churn; c.Joins+c.Drains+c.Fails != len(plan) {
			return fmt.Errorf("churn plan executed %d/%d/%d joins/drains/fails of %d events", c.Joins, c.Drains, c.Fails, len(plan))
		}
		return checkConservation(stream, res)
	})
}

// FleetChurn measures placement under cluster churn: mid-stream the fleet
// gains a 128-proc member, loses a 256-proc member to an announced
// failure (running work evicted), and loses the 64-proc member to an
// announced graceful drain (running work finishes, pending moves). The
// churn-aware router (least-loaded + AvoidDraining) is compared against the
// churn-blind least-loaded baseline under the identical plan and streams.
//
// Self-checks:
//
//  1. Job conservation on every run: each stream job completes exactly
//     once across the fleet, through withdraws, evictions and re-places.
//  2. The plan executed: every run executes each planned join, drain and
//     fail, and drains/fails actually forced re-placements.
//  3. Over the full lifecycle scenario, churn-aware beats churn-blind on
//     per-stream fleet bounded slowdown across churnSeeds seeds (one
//     verdict, see selfCheck). The win rides the failure's warning window
//     — work the blind router starts on the doomed member is lost at
//     eviction, while the aware router steers unsafe work around it — and
//     needs the join's replacement capacity to make steering cheap. The
//     isolated scenarios are report-only: fail alone trades steering cost
//     against eviction savings near evenly, and drain/join carry no
//     eviction warning at all, so there churn-aware coincides with
//     churn-blind by construction.
//  4. Determinism: campaign's re-run on a freshly built fleet reproduces
//     every seed.
func FleetChurn(o Options) ([]Artifact, error) {
	scenario := o.Churn
	if _, err := churnPlanFor(o, []*job.Job{{SubmitTime: 0}, {SubmitTime: 1}}, scenario); err != nil {
		return nil, err
	}
	routers := []routerCase{
		{"churn-blind", "", func() (fleet.Router, error) { return fleet.LeastLoadedPipeline(), nil }},
		{"churn-aware", "", func() (fleet.Router, error) { return fleet.ChurnAwarePipeline(), nil }},
	}

	scenarioName := scenario
	if scenarioName == "" {
		scenarioName = "full"
	}
	t := &Table{
		Title: fmt.Sprintf("Fleet churn (%s): %d seeds × %d × %d-job streams over [256+256+128+64], join@%.0f%%, fail@%.0f%%+notice, drain@%.0f%%+notice",
			scenarioName, churnSeeds, churnStreamsN, churnStreamLen,
			churnJoinFrac*100, churnFailFrac*100, churnDrainFrac*100),
		Header: []string{"Router", "fleet bsld", "fleet util", "forced moves", "joins/drains/fails"},
	}
	cases, deterministic, err := campaign(o, churnSeeds, routers, runChurnCampaign)
	if err != nil {
		return nil, err
	}
	var violations []string
	for _, rc := range routers {
		sum, bsld := total(cases[rc.name])
		n := float64(len(bsld))
		st := sum.churn
		t.AddRow(rc.name, fmt.Sprintf("%.2f", sum.bsld/n), fmt.Sprintf("%.3f", sum.util/n),
			fmt.Sprintf("%d", st.Forced), fmt.Sprintf("%d/%d/%d", st.Joins, st.Drains, st.Fails))
		if st.Drains+st.Fails > 0 && st.Forced == 0 {
			violations = append(violations, rc.name+": drains/fails forced no re-placements — the scenario exercised nothing")
		}
	}
	// 3. The churn-aware win, asserted for the full lifecycle only. Fleet
	// bounded slowdown is heavy-tailed — a single unlucky short job can
	// dominate one stream's mean — so the verdict counts paired streams
	// rather than comparing campaign means.
	var verdicts []verdict
	switch scenarioName {
	case "full":
		_, aware := total(cases["churn-aware"])
		_, blind := total(cases["churn-blind"])
		verdicts = append(verdicts, judge("churn-aware beats churn-blind on per-stream fleet bsld", aware, blind))
	case "fail":
		t.Notes = append(t.Notes,
			"scenario \"fail\" lacks the join's replacement capacity: steering costs offset eviction savings, so routers are reported, not ranked (the win is asserted for the full lifecycle)")
	default:
		t.Notes = append(t.Notes, fmt.Sprintf(
			"scenario %q carries no eviction warning: churn-aware coincides with churn-blind by construction", scenarioName))
	}
	// churnMembers pins the fleet, so -clusters synthesizes nothing here
	// and relaxes no verdict.
	o.Clusters = 0
	return selfCheck(o, verdicts, deterministic,
		"determinism + conservation: assignments reproduced exactly across rebuilt fleets; every job completed exactly once",
		violations, t)
}
