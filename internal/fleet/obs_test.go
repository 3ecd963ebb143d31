package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"rlsched/internal/job"
	"rlsched/internal/obs"
)

// marshalResult renders a fleet result (including every per-job field) to
// canonical JSON — the byte-level parity probe for traced vs untraced runs.
func marshalResult(t *testing.T, res *Result) []byte {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// ringCollector records placement decisions in a Ring, which deep-copies
// them, and every other event kind in a Collector.
type ringCollector struct {
	*obs.Collector
	ring *obs.Ring
}

func (r ringCollector) Placement(d *obs.PlacementDecision) { r.ring.Placement(d) }

// TestRecorderParityNoMigration pins the determinism guarantee: a run with
// a Collector attached must produce byte-identical results to the untraced
// run, and the recorded events must agree with the results.
func TestRecorderParityNoMigration(t *testing.T) {
	stream := lublinStream(t, 250, 17)
	build := func() *Fleet {
		f, err := New(heteroMembers(), FairnessPipeline(FairnessConfig{}))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	base := build()
	baseRes, err := base.Run(cloneStream(stream))
	if err != nil {
		t.Fatal(err)
	}

	rec := ringCollector{obs.NewCollector(), obs.NewRing(len(stream))}
	traced := build()
	traced.SetRecorder(rec)
	tracedRes, err := traced.Run(cloneStream(stream))
	if err != nil {
		t.Fatal(err)
	}

	if a, b := marshalResult(t, baseRes), marshalResult(t, tracedRes); !bytes.Equal(a, b) {
		t.Fatal("results differ with a recorder attached")
	}

	places := rec.ring.Last(-1)
	slices.Reverse(places) // Last is most recent first
	if len(places) != len(stream) {
		t.Fatalf("recorded %d placements for %d jobs", len(places), len(stream))
	}
	for i, d := range places {
		if d.Winner != tracedRes.Assignments[i] {
			t.Fatalf("placement %d: recorded winner %d, assignment %d",
				i, d.Winner, tracedRes.Assignments[i])
		}
		if d.Router != "fair" {
			t.Fatalf("placement %d: router %q", i, d.Router)
		}
		if len(d.Candidates) != 3 {
			t.Fatalf("placement %d: %d candidate traces, want 3", i, len(d.Candidates))
		}
		win := d.Candidates[d.Winner]
		if !win.Feasible {
			t.Fatalf("placement %d: winner marked infeasible", i)
		}
		for _, c := range d.Candidates {
			if c.Feasible && c.FilteredBy != "" {
				t.Fatalf("placement %d: feasible candidate %s has FilteredBy=%q", i, c.Name, c.FilteredBy)
			}
			if !c.Feasible && c.FilteredBy == "" {
				t.Fatalf("placement %d: infeasible candidate %s without a filter name", i, c.Name)
			}
			for _, p := range c.Plugins {
				if math.IsNaN(p.Norm) || p.Norm < 0 || p.Norm > 1+1e-12 {
					t.Fatalf("placement %d: plugin %s norm %g out of [0,1]", i, p.Plugin, p.Norm)
				}
			}
		}
	}

	// The fairness pipeline is stateful, so every placement snapshots it.
	if snaps := rec.FairnessSnapshots(); len(snaps) != len(stream) {
		t.Fatalf("recorded %d fairness snapshots for %d placements", len(snaps), len(stream))
	}

	// Lifecycle accounting: every job submits, starts and finishes exactly
	// once, on a named cluster.
	counts := map[obs.JobEventKind]int{}
	for _, e := range rec.Jobs() {
		counts[e.Kind]++
		if e.Cluster == "" {
			t.Fatalf("job event without cluster tag: %+v", e)
		}
	}
	n := len(stream)
	if counts[obs.JobSubmit] != n || counts[obs.JobStart] != n || counts[obs.JobFinish] != n {
		t.Fatalf("lifecycle counts = %v for %d jobs", counts, n)
	}
	if counts[obs.JobWithdraw] != 0 || len(rec.Migrations()) != 0 {
		t.Fatal("migration events recorded in a migration-free run")
	}
}

// TestRecorderParityWithMigration repeats the byte-parity check on a run
// where migration genuinely moves jobs, and cross-checks the recorded
// probes against the result's move accounting.
func TestRecorderParityWithMigration(t *testing.T) {
	run := func(rec obs.Recorder) *Result {
		f, err := New(strandedMembers(), LeastLoadedPipeline())
		if err != nil {
			t.Fatal(err)
		}
		if err := f.EnableMigration(MigrationConfig{
			Interval:       200,
			Hysteresis:     0.25,
			Cooldown:       400,
			MaxMovesPerJob: 1,
		}); err != nil {
			t.Fatal(err)
		}
		if rec != nil {
			f.SetRecorder(rec)
		}
		res, err := f.Run(strandedScenario())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	baseRes := run(nil)
	rec := obs.NewCollector()
	tracedRes := run(rec)

	if a, b := marshalResult(t, baseRes), marshalResult(t, tracedRes); !bytes.Equal(a, b) {
		t.Fatal("migration results differ with a recorder attached")
	}
	if tracedRes.Fleet.Moves == 0 {
		t.Fatal("scenario no longer migrates anything")
	}

	probes := rec.Migrations()
	if len(probes) == 0 {
		t.Fatal("no migration probes recorded")
	}
	moved := 0
	for _, p := range probes {
		if p.Moved {
			moved++
			if p.Reason != obs.ReasonMoved || p.To == p.From || p.ToName == "" {
				t.Fatalf("inconsistent moved probe: %+v", p)
			}
		} else if p.Reason == obs.ReasonMoved {
			t.Fatalf("unmoved probe with moved reason: %+v", p)
		}
		if math.IsNaN(p.Margin) {
			t.Fatalf("probe margin is NaN: %+v", p)
		}
	}
	if moved != tracedRes.Fleet.Moves {
		t.Fatalf("recorded %d moved probes, result says %d moves", moved, tracedRes.Fleet.Moves)
	}

	// Each move shows up as a withdraw followed by a re-submit on the
	// destination cluster.
	withdraws := 0
	for _, e := range rec.Jobs() {
		if e.Kind == obs.JobWithdraw {
			withdraws++
		}
	}
	// Probes that stay put also withdraw-and-resubmit, so withdraws cover
	// at least every move.
	if withdraws < moved {
		t.Fatalf("%d withdraw events for %d moves", withdraws, moved)
	}
}

// TestPlaceExplainedMatchesPlaceScored pins that the explain pass is a pure
// observer: same pick, same scores, and a trace that agrees with both.
func TestPlaceExplainedMatchesPlaceScored(t *testing.T) {
	mk := func(idx, total, free, pending int, pendingWork float64) *Candidate {
		c := &Candidate{Index: idx, Name: string(rune('a' + idx)), Pending: pending, PendingWork: pendingWork}
		c.View.TotalProcs = total
		c.View.FreeProcs = free
		return c
	}
	p := NewPipeline("test",
		[]Filter{CapacityFilter{}, BacklogFilter{Max: 4}},
		[]WeightedScorer{{LeastLoaded{}, 2}, {Binpack{}, 1}})

	cands := []*Candidate{
		mk(0, 256, 200, 0, 1000),
		mk(1, 128, 10, 2, 50),
		mk(2, 64, 64, 9, 0),   // backlog-filtered
		mk(3, 16, 16, 0, 500), // capacity-filtered for wide jobs
	}
	j := &job.Job{ID: 1, RequestedProcs: 32, RequestedTime: 100, RunTime: 100}

	scoresA := make([]float64, len(cands))
	pickA := p.PlaceScored(j, cands, scoresA)

	var ex obs.Explain
	scoresB := make([]float64, len(cands))
	pickB := p.PlaceExplained(j, cands, scoresB, &ex)

	if pickA != pickB {
		t.Fatalf("PlaceScored picks %d, PlaceExplained picks %d", pickA, pickB)
	}
	for i := range scoresA {
		same := scoresA[i] == scoresB[i] || (math.IsNaN(scoresA[i]) && math.IsNaN(scoresB[i]))
		if !same {
			t.Fatalf("score %d: %g vs %g", i, scoresA[i], scoresB[i])
		}
	}
	if len(ex.Candidates) != len(cands) {
		t.Fatalf("explain has %d candidates", len(ex.Candidates))
	}
	for i, c := range ex.Candidates {
		if c.Index != i || c.Name != cands[i].Name {
			t.Fatalf("candidate %d mislabeled: %+v", i, c)
		}
		if c.Feasible {
			if c.Total != scoresA[i] {
				t.Fatalf("candidate %d total %g, score %g", i, c.Total, scoresA[i])
			}
			if len(c.Plugins) != 2 {
				t.Fatalf("candidate %d has %d plugin rows", i, len(c.Plugins))
			}
			sum := 0.0
			for _, ps := range c.Plugins {
				sum += ps.Weight * ps.Norm
			}
			if math.Abs(sum-c.Total) > 1e-12 {
				t.Fatalf("candidate %d: Σ weight·norm = %g, total %g", i, sum, c.Total)
			}
		} else if !math.IsNaN(scoresA[i]) {
			t.Fatalf("candidate %d infeasible in trace but scored %g", i, scoresA[i])
		}
	}
	if ex.Candidates[2].FilteredBy != (BacklogFilter{Max: 4}).Name() {
		t.Fatalf("candidate 2 filtered by %q", ex.Candidates[2].FilteredBy)
	}
	if ex.Candidates[3].FilteredBy != (CapacityFilter{}).Name() {
		t.Fatalf("candidate 3 filtered by %q", ex.Candidates[3].FilteredBy)
	}

	// Single-feasible shortcut: total 1, no plugin rows.
	narrow := []*Candidate{mk(0, 256, 0, 0, 0), mk(1, 16, 16, 0, 0)}
	wide := &job.Job{ID: 2, RequestedProcs: 200, RequestedTime: 10, RunTime: 10}
	if k := p.PlaceExplained(wide, narrow, nil, &ex); k != 0 {
		t.Fatalf("single-feasible pick = %d", k)
	}
	if ex.Candidates[0].Total != 1 || len(ex.Candidates[0].Plugins) != 0 {
		t.Fatalf("single-feasible trace: %+v", ex.Candidates[0])
	}

	// A genuine tie must set TieBreak (two identical clusters).
	tie := []*Candidate{mk(0, 128, 128, 0, 0), mk(1, 128, 128, 0, 0)}
	if k := p.PlaceExplained(j, tie, nil, &ex); k != 0 {
		t.Fatalf("tie pick = %d, want lowest index", k)
	}
	if !ex.TieBreak {
		t.Fatal("tie not flagged")
	}
}
