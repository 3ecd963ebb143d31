package exp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// ultraQuick shrinks Quick further so the full registry can run in tests.
func ultraQuick() Options {
	o := Quick()
	o.TraceJobs = 400
	o.Epochs = 2
	o.TrajPerEpoch = 2
	o.SeqLen = 16
	o.MaxObserve = 12
	o.EvalNSeq = 2
	o.EvalSeqLen = 48
	o.PiIters = 2
	o.VIters = 2
	o.FilterProbeN = 10
	return o
}

// migrationOptions is ultraQuick at Quick's evaluation dimensions: the
// shift stream must be long enough to strand and move jobs, or
// fleet-migration's own win check fails. Training is not involved, so it
// stays cheap.
func migrationOptions() Options {
	o := ultraQuick()
	o.TraceJobs = 800
	o.EvalSeqLen = 128
	o.EvalNSeq = 3
	o.MaxObserve = 16
	return o
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig3", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"table2", "table5", "table6", "table7", "table8", "table9", "table10", "table11",
		"ablation-backfill", "ablation-kernel", "ablation-obswindow", "ablation-dqn",
		"fleet-placement", "fleet-migration", "fleet-fairness",
		"fleet-churn",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("experiment %q missing from registry", w)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("registry has %d experiments, want %d (%v)", len(ids), len(want), ids)
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nope", Quick()); err == nil {
		t.Error("unknown experiment must error")
	}
}

func TestFig3SpikesExist(t *testing.T) {
	o := ultraQuick()
	o.TraceJobs = 4000
	arts, err := Run("fig3", o)
	if err != nil {
		t.Fatal(err)
	}
	series := arts[0].(*Series)
	if len(series.X) < 5 {
		t.Fatalf("fig3 produced only %d windows", len(series.X))
	}
	vals := series.Y[0]
	min, max := vals[0], vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max < 3*min {
		t.Errorf("fig3 variance too low: min=%.2f max=%.2f (paper shows spikes)", min, max)
	}
}

func TestFig7SkewAndRange(t *testing.T) {
	o := ultraQuick()
	o.TraceJobs = 1200
	arts, err := Run("fig7", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 2 {
		t.Fatalf("fig7 artifacts = %d, want series+table", len(arts))
	}
	tab := arts[1].(*Table)
	var buf bytes.Buffer
	tab.Print(&buf)
	if !strings.Contains(buf.String(), "filter range R") {
		t.Error("fig7 must report the filter range")
	}
}

// TestFleetPlacement: the placement experiment must produce both scenario
// tables (steady + workload shift), compare all five routers, verify its
// own determinism note, and show load-aware routing beating random on
// fleet-wide bounded slowdown.
func TestFleetPlacement(t *testing.T) {
	arts, err := Run("fleet-placement", ultraQuick())
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 2 {
		t.Fatalf("fleet-placement artifacts = %d, want steady + shift", len(arts))
	}
	routers := []string{"random", "round-robin", "least-loaded", "binpack", "rl-scored"}
	bsld := map[string]float64{}
	for ai, a := range arts {
		tab := a.(*Table)
		if len(tab.Rows) != len(routers) {
			t.Fatalf("table %d rows = %d, want %d routers", ai, len(tab.Rows), len(routers))
		}
		for i, r := range tab.Rows {
			if r[0] != routers[i] {
				t.Fatalf("table %d row %d = %q, want %q", ai, i, r[0], routers[i])
			}
			if ai == 0 {
				var v float64
				if _, err := fmt.Sscanf(r[1], "%f", &v); err != nil {
					t.Fatalf("row %q bsld cell %q: %v", r[0], r[1], err)
				}
				bsld[r[0]] = v
			}
		}
	}
	if bsld["binpack"] >= bsld["random"] && bsld["rl-scored"] >= bsld["random"] {
		t.Errorf("neither binpack (%.2f) nor rl-scored (%.2f) beat random (%.2f) on fleet bsld",
			bsld["binpack"], bsld["rl-scored"], bsld["random"])
	}
	last := arts[1].(*Table)
	found := false
	for _, n := range last.Notes {
		if strings.Contains(n, "determinism: assignments reproduced exactly") {
			found = true
		}
	}
	if !found {
		t.Errorf("determinism note missing: %v", last.Notes)
	}
}

// TestFleetMigration runs the migration comparison at migrationOptions and
// checks the experiment's own acceptance claim: hysteresis migration
// strictly improves fleet-wide bounded slowdown over one-shot placement
// under the workload-shift stream, with sane accounting in the table.
func TestFleetMigration(t *testing.T) {
	arts, err := Run("fleet-migration", migrationOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 1 {
		t.Fatalf("fleet-migration artifacts = %d, want 1 table", len(arts))
	}
	tab := arts[0].(*Table)
	policies := []string{"no-migration", "hysteresis", "always-rebalance"}
	if len(tab.Rows) != len(policies) {
		t.Fatalf("rows = %d, want %d policies", len(tab.Rows), len(policies))
	}
	bsld := map[string]float64{}
	moves := map[string]int{}
	for i, r := range tab.Rows {
		if r[0] != policies[i] {
			t.Fatalf("row %d = %q, want %q", i, r[0], policies[i])
		}
		var b float64
		var m int
		if _, err := fmt.Sscanf(r[1], "%f", &b); err != nil {
			t.Fatalf("row %q bsld cell %q: %v", r[0], r[1], err)
		}
		if _, err := fmt.Sscanf(r[3], "%d", &m); err != nil {
			t.Fatalf("row %q moves cell %q: %v", r[0], r[3], err)
		}
		bsld[r[0]], moves[r[0]] = b, m
	}
	if moves["no-migration"] != 0 {
		t.Errorf("no-migration recorded %d moves", moves["no-migration"])
	}
	if moves["hysteresis"] == 0 {
		t.Error("hysteresis migration never moved a job on the shift stream")
	}
	if bsld["hysteresis"] >= bsld["no-migration"] {
		t.Errorf("hysteresis bsld %.2f did not improve on no-migration %.2f",
			bsld["hysteresis"], bsld["no-migration"])
	}
	found := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "migration win verified") {
			found = true
		}
	}
	if !found {
		t.Errorf("self-check note missing: %v", tab.Notes)
	}
}

func TestSeriesPrint(t *testing.T) {
	s := &Series{Title: "t", XLabel: "x", Names: []string{"a", "b"},
		X: []float64{1, 2}, Y: [][]float64{{0.1, 0.2}, {0.3}}}
	var buf bytes.Buffer
	s.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "== t ==") || !strings.Contains(out, "0.3") {
		t.Errorf("series print missing content:\n%s", out)
	}
}

func TestOptionsPresets(t *testing.T) {
	q, s, p := Quick(), Standard(), Paper()
	if !(q.Epochs < s.Epochs && s.Epochs <= p.Epochs) {
		t.Error("presets must scale up: quick < standard <= paper")
	}
	if p.SeqLen != 256 || p.TrajPerEpoch != 100 || p.MaxObserve != 128 || p.PiIters != 80 {
		t.Errorf("Paper() must match §V-A: %+v", p)
	}
}
