package exp

import (
	"bytes"
	"fmt"
	"slices"
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

// verdictsHeld fails t unless every note in want names a verdict that
// held on tab.
func verdictsHeld(t *testing.T, tab *Table, want ...string) {
	t.Helper()
	for _, w := range want {
		found := false
		for _, n := range tab.Notes {
			found = found || strings.HasPrefix(n, "verdict holds: "+w+":")
		}
		if !found {
			t.Errorf("no held verdict %q in notes %q", w, tab.Notes)
		}
	}
}

// TestFleetPlacement: the placement experiment must produce both scenario
// tables (steady + workload shift) over all five routers, and its own
// verdicts — each load-aware router beats random on the steady scenario —
// and determinism check must pass.
func TestFleetPlacement(t *testing.T) {
	arts, err := Run("fleet-placement", ultraQuick())
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 2 {
		t.Fatalf("fleet-placement artifacts = %d, want steady + shift", len(arts))
	}
	routers := []string{"random", "round-robin", "least-loaded", "binpack", "rl-scored"}
	for ai, a := range arts {
		tab := a.(*Table)
		if len(tab.Rows) != len(routers) {
			t.Fatalf("table %d rows = %d, want %d routers", ai, len(tab.Rows), len(routers))
		}
		for i, r := range tab.Rows {
			if r[0] != routers[i] {
				t.Fatalf("table %d row %d = %q, want %q", ai, i, r[0], routers[i])
			}
		}
	}
	last := arts[1].(*Table)
	verdictsHeld(t, last,
		"steady: least-loaded beats random on per-stream fleet bsld",
		"steady: binpack beats random on per-stream fleet bsld",
		"steady: rl-scored beats random on per-stream fleet bsld")
	if !slices.Contains(last.Notes, "placement determinism: assignments reproduced exactly across rebuilt routers") {
		t.Errorf("determinism note missing: %v", last.Notes)
	}
}

// TestFleetMigration runs the migration comparison at ultraQuick: the
// experiment's own verdict (hysteresis beats no-migration per stream) must
// hold, with sane accounting in the table.
func TestFleetMigration(t *testing.T) {
	arts, err := Run("fleet-migration", ultraQuick())
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
	moves := map[string]int{}
	for i, r := range tab.Rows {
		if r[0] != policies[i] {
			t.Fatalf("row %d = %q, want %q", i, r[0], policies[i])
		}
		var m int
		if _, err := fmt.Sscanf(r[3], "%d", &m); err != nil {
			t.Fatalf("row %q moves cell %q: %v", r[0], r[3], err)
		}
		moves[r[0]] = m
	}
	if moves["no-migration"] != 0 {
		t.Errorf("no-migration recorded %d moves", moves["no-migration"])
	}
	if moves["hysteresis"] == 0 {
		t.Error("hysteresis migration never moved a job on the shift stream")
	}
	verdictsHeld(t, tab, "hysteresis beats no-migration on per-stream fleet bsld")
}

// TestVerdict: a claim holds only when A won more pairs than it lost at
// p < alpha, so five straight wins (p = 0.0625) or no decided pair at all
// never pass, and a failed verdict fails selfCheck except on a -clusters
// synthesized fleet, where only nondeterminism still fails.
func TestVerdict(t *testing.T) {
	lower := func(w, l int) (a, b []float64) {
		for i := 0; i < w+l; i++ {
			a, b = append(a, float64(i%2)), append(b, float64(i%2))
			if i < w {
				a[i]--
			} else {
				a[i]++
			}
		}
		return a, b
	}
	for _, tc := range []struct {
		w, l  int
		holds bool
	}{{0, 0, false}, {5, 0, false}, {6, 0, true}, {2, 6, false}, {9, 5, false}, {77, 32, true}} {
		a, b := lower(tc.w, tc.l)
		v := judge("a beats b", a, b)
		if v.wins != tc.w || v.losses != tc.l || v.holds() != tc.holds {
			t.Errorf("%d won, %d lost: judged %s, holds %v; want holds %v", tc.w, tc.l, v, v.holds(), tc.holds)
		}
	}
	failed := []verdict{judge("a beats b", []float64{1}, []float64{1})}
	if _, err := selfCheck(Options{}, failed, true, "ok", nil, &Table{}); err == nil {
		t.Error("a failed verdict passed selfCheck on the pinned fleet")
	}
	tab := &Table{}
	if _, err := selfCheck(Options{Clusters: 8}, failed, true, "ok", nil, tab); err != nil {
		t.Errorf("a failed verdict on a synthesized fleet failed selfCheck: %v", err)
	}
	if !strings.Contains(strings.Join(tab.Notes, "\n"), "won 0, lost 0, p = 1") {
		t.Errorf("relaxed verdict note lacks its evidence: %q", tab.Notes)
	}
	if _, err := selfCheck(Options{Clusters: 8}, nil, false, "ok", nil, &Table{}); err == nil {
		t.Error("nondeterminism passed selfCheck on a synthesized fleet")
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
