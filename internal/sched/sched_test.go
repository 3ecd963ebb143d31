package sched

import (
	"testing"

	"rlsched/internal/job"
	"rlsched/internal/metrics"
	"rlsched/internal/sim"
	"rlsched/internal/trace"
)

func view() sim.ClusterView { return sim.ClusterView{FreeProcs: 64, TotalProcs: 64} }

func TestFCFSPicksEarliestSubmit(t *testing.T) {
	jobs := []*job.Job{
		job.New(1, 50, 10, 1, 10),
		job.New(2, 10, 10, 1, 10),
		job.New(3, 30, 10, 1, 10),
	}
	if got := FCFS().Pick(jobs, 100, view()); got != 1 {
		t.Errorf("FCFS picked %d, want 1", got)
	}
}

func TestSJFPicksShortest(t *testing.T) {
	jobs := []*job.Job{
		job.New(1, 0, 500, 1, 500),
		job.New(2, 0, 20, 1, 20),
		job.New(3, 0, 100, 1, 100),
	}
	if got := SJF().Pick(jobs, 0, view()); got != 1 {
		t.Errorf("SJF picked %d, want 1", got)
	}
}

func TestWFP3FavorsLongWaiters(t *testing.T) {
	// Identical jobs except submit time: the longer-waiting one wins.
	a := job.New(1, 90, 100, 4, 100) // waited 10
	b := job.New(2, 0, 100, 4, 100)  // waited 100
	if got := WFP3().Pick([]*job.Job{a, b}, 100, view()); got != 1 {
		t.Errorf("WFP3 picked %d, want the long waiter 1", got)
	}
	// Among equal waiters the formula −(w/r)³·n favours the *wider* job
	// (its starvation is costlier), matching the reference implementation.
	c := job.New(3, 0, 100, 32, 100)
	d := job.New(4, 0, 100, 2, 100)
	if got := WFP3().Pick([]*job.Job{c, d}, 100, view()); got != 0 {
		t.Errorf("WFP3 picked %d, want the wide long-waiter 0", got)
	}
}

func TestUNICEPSerialJobsSafe(t *testing.T) {
	// A serial job (n=1) must not divide by log2(1)=0.
	a := job.New(1, 0, 100, 1, 100)
	b := job.New(2, 0, 100, 8, 100)
	got := UNICEP().Pick([]*job.Job{a, b}, 50, view())
	if got != 0 && got != 1 {
		t.Fatalf("UNICEP pick out of range: %d", got)
	}
	s := UNICEP().Score(a, 50, view())
	if s != s { // NaN check
		t.Error("UNICEP score must not be NaN for serial jobs")
	}
}

func TestF1PrefersShortNarrowEarly(t *testing.T) {
	short := job.New(1, 100, 10, 1, 10)
	long := job.New(2, 100, 100000, 64, 100000)
	if got := F1().Pick([]*job.Job{long, short}, 200, view()); got != 1 {
		t.Errorf("F1 picked %d, want the short narrow job", got)
	}
}

func TestTieBreakIsFirstComeStable(t *testing.T) {
	a := job.New(1, 0, 100, 1, 100)
	b := job.New(2, 0, 100, 1, 100)
	if got := SJF().Pick([]*job.Job{a, b}, 0, view()); got != 0 {
		t.Errorf("tie must go to the earlier index, got %d", got)
	}
}

func TestHeuristicsRegistry(t *testing.T) {
	hs := Heuristics()
	if len(hs) != 5 {
		t.Fatalf("Heuristics() = %d entries, want 5", len(hs))
	}
	wantOrder := []string{"FCFS", "WFP3", "UNICEP", "SJF", "F1"}
	for i, h := range hs {
		if h.Name != wantOrder[i] {
			t.Errorf("Heuristics()[%d] = %s, want %s", i, h.Name, wantOrder[i])
		}
		if ByName(h.Name) == nil {
			t.Errorf("ByName(%q) = nil", h.Name)
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName of unknown scheduler must be nil")
	}
}

func TestSAFPicksSmallestArea(t *testing.T) {
	a := job.New(1, 0, 100, 8, 100) // area 800
	b := job.New(2, 0, 300, 2, 300) // area 600
	c := job.New(3, 0, 50, 16, 50)  // area 800
	if got := SAF().Pick([]*job.Job{a, b, c}, 0, view()); got != 1 {
		t.Errorf("SAF picked %d, want 1 (smallest r·n)", got)
	}
}

func TestLJFPicksWidest(t *testing.T) {
	a := job.New(1, 0, 100, 8, 100)
	b := job.New(2, 0, 100, 32, 100)
	if got := LJF().Pick([]*job.Job{a, b}, 0, view()); got != 1 {
		t.Errorf("LJF picked %d, want 1 (widest)", got)
	}
}

// TestEndToEndRanking runs all heuristics through the simulator on a
// congested trace and checks the qualitative ranking the paper reports:
// SJF and F1 beat FCFS on average bounded slowdown.
func TestEndToEndRanking(t *testing.T) {
	tr := trace.Preset("Lublin-2", 600, 77)
	vals := map[string]float64{}
	for _, h := range Heuristics() {
		s := sim.New(sim.Config{Processors: tr.Processors, Backfill: true})
		if err := s.Load(tr.Window(0, 600)); err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(h)
		if err != nil {
			t.Fatal(err)
		}
		vals[h.Name] = metrics.Value(metrics.BoundedSlowdown, res)
	}
	if vals["SJF"] >= vals["FCFS"] {
		t.Errorf("SJF bsld %.1f must beat FCFS %.1f", vals["SJF"], vals["FCFS"])
	}
	if vals["F1"] >= vals["FCFS"] {
		t.Errorf("F1 bsld %.1f must beat FCFS %.1f", vals["F1"], vals["FCFS"])
	}
	for n, v := range vals {
		if v < 1 {
			t.Errorf("%s bsld %.2f below 1 is impossible", n, v)
		}
	}
}

func TestServeableNamesAndByName(t *testing.T) {
	names := Names()
	if len(names) != len(Serveable()) {
		t.Fatalf("Names has %d entries, Serveable %d", len(names), len(Serveable()))
	}
	for _, want := range []string{"FCFS", "WFP3", "UNICEP", "SJF", "F1", "SAF", "LJF"} {
		h := ByName(want)
		if h == nil || h.Name != want {
			t.Fatalf("ByName(%q) = %v", want, h)
		}
	}
	if ByName("nope") != nil {
		t.Fatal("ByName should return nil for unknown names")
	}
	// The Table III comparison set is unchanged by the serveable superset.
	if got := len(Heuristics()); got != 5 {
		t.Fatalf("Heuristics() has %d entries, want 5", got)
	}
}
