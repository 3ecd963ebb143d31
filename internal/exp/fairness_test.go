package exp

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"rlsched/internal/fleet"
	"rlsched/internal/job"
	"rlsched/internal/metrics"
)

// TestFleetFairness runs the full experiment at quick scale — the
// acceptance gate of the fairness subsystem. The experiment errors out
// unless, across its fairnessSeeds seeds, the fair router beats
// least-loaded and binpack on per-seed fleet-wide FairMax bounded slowdown
// and Jain's index, beats 1.5× least-loaded's mean bsld, and reproduces
// assignments deterministically.
func TestFleetFairness(t *testing.T) {
	arts, err := Run("fleet-fairness", Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 1 {
		t.Fatalf("fleet-fairness artifacts = %d, want 1 table", len(arts))
	}
	tab := arts[0].(*Table)
	verdictsHeld(t, tab,
		"fair beats least-loaded on per-seed FairMax bsld", "fair beats least-loaded on per-seed Jain",
		"fair beats binpack on per-seed FairMax bsld", "fair beats binpack on per-seed Jain",
		"fair beats 1.5× least-loaded on per-seed mean bsld")
	var buf bytes.Buffer
	tab.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "determinism: assignments and fairness reports reproduced") {
		t.Errorf("missing determinism note:\n%s", out)
	}
	for _, router := range []string{"least-loaded", "binpack", "least-loaded+mig", "fair"} {
		if !strings.Contains(out, router) {
			t.Errorf("router %q missing from table:\n%s", router, out)
		}
	}
}

// TestFleetFairnessGolden pins the fleet-wide fairness numbers of the
// quick scenario's least-loaded baseline campaign (seed 42) to golden
// values. Placement, simulation and metric aggregation are all
// deterministic, so any drift here means the scenario, the stepping
// surface, or the fairness aggregation changed semantics — bump the
// goldens only on a deliberate change.
func TestFleetFairnessGolden(t *testing.T) {
	c, assign, err := runFairnessCampaign(Quick(), 42, routerCase{"least-loaded", "",
		func() (fleet.Router, error) { return fleet.LeastLoadedPipeline(), nil }})
	if err != nil {
		t.Fatal(err)
	}
	const (
		goldenFairMax = 4.81728898797068
		goldenJain    = 0.682108859729213
		goldenMean    = 1.41511753373768
	)
	if math.Abs(c.rep.Max-goldenFairMax) > 1e-9 {
		t.Errorf("fleet-wide FairMax = %.15g, golden %.15g", c.rep.Max, goldenFairMax)
	}
	if math.Abs(c.rep.Jain-goldenJain) > 1e-9 {
		t.Errorf("Jain = %.15g, golden %.15g", c.rep.Jain, goldenJain)
	}
	if math.Abs(c.mean-goldenMean) > 1e-9 {
		t.Errorf("mean bsld = %.15g, golden %.15g", c.mean, goldenMean)
	}
	if len(assign) != fairnessStreamLen {
		t.Errorf("first-stream assignments = %d, want %d", len(assign), fairnessStreamLen)
	}
}

// TestFairnessStreamsShape pins the scenario construction: streams stay
// submit-ordered after the burst compression, the middle third belongs to
// the dominant user, and identical seeds resample identical streams.
func TestFairnessStreamsShape(t *testing.T) {
	o := Quick()
	streams := fairnessStreams(o, 42)
	if len(streams) != fairnessStreamsN {
		t.Fatalf("streams = %d, want %d", len(streams), fairnessStreamsN)
	}
	for si, stream := range streams {
		if len(stream) != fairnessStreamLen {
			t.Fatalf("stream %d has %d jobs, want %d", si, len(stream), fairnessStreamLen)
		}
		prev := stream[0].SubmitTime
		for i, j := range stream {
			if j.SubmitTime < prev {
				t.Fatalf("stream %d job %d out of submit order", si, i)
			}
			prev = j.SubmitTime
		}
		n := len(stream)
		for i := n / 3; i < 2*n/3; i++ {
			if stream[i].UserID != 0 {
				t.Fatalf("stream %d burst job %d has user %d, want dominant user 0",
					si, i, stream[i].UserID)
			}
		}
	}
	again := fairnessStreams(o, 42)
	for si := range streams {
		for i := range streams[si] {
			a, b := streams[si][i], again[si][i]
			if a.SubmitTime != b.SubmitTime || a.UserID != b.UserID || a.RunTime != b.RunTime {
				t.Fatalf("stream resample diverged at stream %d job %d", si, i)
			}
		}
	}
}

// TestMergedFairnessComposes pins the tentpole property: the fleet-wide
// fairness view over a Merge'd result equals the view over the member
// results' concatenated jobs — per-user aggregation is first-class over
// merged fleets, not an accident of slice order.
func TestMergedFairnessComposes(t *testing.T) {
	o := Quick()
	router := fleet.LeastLoadedPipeline()
	f, err := fleet.New(fairnessMembers(o), router)
	if err != nil {
		t.Fatal(err)
	}
	stream := fairnessStreams(o, 43)[0]
	res, err := f.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	var concat []*job.Job
	for _, c := range res.Clusters {
		concat = append(concat, c.Result.Jobs...)
	}
	merged := metrics.Fairness(res.Fleet.Jobs, metrics.BoundedSlowdown)
	direct := metrics.Fairness(concat, metrics.BoundedSlowdown)
	if merged != direct {
		t.Fatalf("fairness over Merge'd jobs %+v != over concatenated member jobs %+v", merged, direct)
	}
	if merged.Max != metrics.FairMax(res.Fleet.Jobs, metrics.BoundedSlowdown) {
		t.Fatal("FairnessReport.Max disagrees with metrics.FairMax")
	}
}
