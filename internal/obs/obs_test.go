package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"rlsched/internal/job"
	"rlsched/internal/metrics"
	"rlsched/internal/telemetry"
)

func TestRefAndKindString(t *testing.T) {
	j := &job.Job{ID: 7, UserID: 3, RequestedProcs: 16, SubmitTime: 12.5}
	r := Ref(j)
	if r.ID != 7 || r.UserID != 3 || r.Procs != 16 || r.SubmitTime != 12.5 {
		t.Fatalf("Ref = %+v", r)
	}
	for k, want := range map[JobEventKind]string{
		JobSubmit: "submit", JobStart: "start", JobFinish: "finish",
		JobWithdraw: "withdraw", JobEventKind(99): "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("kind %d = %q, want %q", k, got, want)
		}
	}
}

func TestExplainResetReuses(t *testing.T) {
	var e Explain
	e.Reset(3)
	if len(e.Candidates) != 3 {
		t.Fatalf("len = %d", len(e.Candidates))
	}
	e.Candidates[1].Plugins = append(e.Candidates[1].Plugins, PluginScore{Plugin: "x", Norm: 1})
	e.Candidates[1].Feasible = true
	e.Candidates[1].Total = 2
	e.TieBreak = true
	kept := e.Candidates[1].Plugins[:1][0:0]

	e.Reset(2)
	if len(e.Candidates) != 2 || e.TieBreak {
		t.Fatalf("after Reset(2): len=%d tie=%v", len(e.Candidates), e.TieBreak)
	}
	for i, c := range e.Candidates {
		if c.Feasible || c.Total != 0 || len(c.Plugins) != 0 || c.FilteredBy != "" {
			t.Fatalf("candidate %d not cleared: %+v", i, c)
		}
	}
	// The plugin slice backing array must be reused, not reallocated.
	if cap(e.Candidates[1].Plugins) == 0 || cap(kept) == 0 {
		t.Fatalf("plugin slice capacity dropped")
	}

	// Growing past prior capacity works too.
	e.Reset(8)
	if len(e.Candidates) != 8 {
		t.Fatalf("after Reset(8): len=%d", len(e.Candidates))
	}
}

func TestCollectorDeepCopies(t *testing.T) {
	c := NewCollector()
	d := PlacementDecision{
		Time: 1, Router: "pipeline", Winner: 0, Cluster: "a",
		Candidates: []CandidateTrace{{
			Index: 0, Name: "a", Feasible: true,
			Plugins: []PluginScore{{Plugin: "load", Weight: 1, Norm: 0.5}},
			Total:   0.5,
		}},
	}
	c.Placement(&d)
	// Mutate the emitter-owned buffers after the fact.
	d.Candidates[0].Plugins[0].Norm = -1
	d.Candidates[0].Name = "mutated"
	d.Cluster = "mutated"

	got := c.Placements()
	if len(got) != 1 {
		t.Fatalf("placements = %d", len(got))
	}
	p := got[0]
	if p.Cluster != "a" || p.Candidates[0].Name != "a" || p.Candidates[0].Plugins[0].Norm != 0.5 {
		t.Fatalf("collector shares emitter buffers: %+v", p)
	}

	c.Migration(&MigrationProbe{Time: 2, From: 0, To: 1, Moved: true, Reason: ReasonMoved})
	c.Fairness(&FairnessSnapshot{Time: 3})
	c.Job(&JobEvent{Kind: JobStart, Time: 4, Cluster: "a"})
	if len(c.Migrations()) != 1 || len(c.FairnessSnapshots()) != 1 || len(c.Jobs()) != 1 {
		t.Fatalf("other event kinds not retained")
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	if got := r.Last(10); len(got) != 0 {
		t.Fatalf("empty ring Last = %d entries", len(got))
	}
	for i := 1; i <= 10; i++ {
		r.Placement(&PlacementDecision{Time: float64(i), Winner: i})
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d", r.Total())
	}
	got := r.Last(10)
	if len(got) != 4 {
		t.Fatalf("Last(10) kept %d, want 4", len(got))
	}
	// Most recent first: winners 10, 9, 8, 7 with seqs to match.
	for i, want := range []int{10, 9, 8, 7} {
		if got[i].Winner != want || got[i].Seq != uint64(want) {
			t.Fatalf("Last[%d] = winner %d seq %d, want %d", i, got[i].Winner, got[i].Seq, want)
		}
	}
	if got2 := r.Last(2); len(got2) != 2 || got2[0].Winner != 10 || got2[1].Winner != 9 {
		t.Fatalf("Last(2) = %+v", got2)
	}
	if gotAll := r.Last(-1); len(gotAll) != 4 {
		t.Fatalf("Last(-1) = %d entries", len(gotAll))
	}
}

func TestRingClampsCapacity(t *testing.T) {
	r := NewRing(0)
	r.Placement(&PlacementDecision{Winner: 1})
	r.Placement(&PlacementDecision{Winner: 2})
	got := r.Last(-1)
	if len(got) != 1 || got[0].Winner != 2 {
		t.Fatalf("Last = %+v", got)
	}
}

// traceFixture builds a collector with two clusters, three job spans and
// one accepted migration (submit on a, withdraw, re-submit on b).
func traceFixture() *Collector {
	c := NewCollector()
	jb := func(id, user int) JobRef { return JobRef{ID: id, UserID: user, Procs: 4, SubmitTime: 0} }
	c.Job(&JobEvent{Kind: JobSubmit, Time: 0, Cluster: "a", Job: jb(1, 0)})
	c.Job(&JobEvent{Kind: JobSubmit, Time: 0, Cluster: "a", Job: jb(2, 1)})
	c.Job(&JobEvent{Kind: JobStart, Time: 1, Cluster: "a", Job: jb(1, 0)})
	c.Job(&JobEvent{Kind: JobWithdraw, Time: 2, Cluster: "a", Job: jb(2, 1)})
	c.Migration(&MigrationProbe{
		Time: 2, Job: jb(2, 1), From: 0, FromName: "a", To: 1, ToName: "b",
		Moved: true, Reason: ReasonMoved, Margin: 0.25,
	})
	c.Job(&JobEvent{Kind: JobSubmit, Time: 2, Cluster: "b", Job: jb(2, 1)})
	c.Job(&JobEvent{Kind: JobStart, Time: 3, Cluster: "b", Job: jb(2, 1)})
	c.Job(&JobEvent{Kind: JobStart, Time: 4, Cluster: "a", Job: jb(3, 0)})
	c.Job(&JobEvent{Kind: JobFinish, Time: 5, Cluster: "a", Job: jb(1, 0)})
	c.Job(&JobEvent{Kind: JobFinish, Time: 6, Cluster: "b", Job: jb(2, 1)})
	c.Job(&JobEvent{Kind: JobFinish, Time: 7, Cluster: "a", Job: jb(3, 0)})
	c.Fairness(&FairnessSnapshot{Time: 4, Report: metrics.FairnessReport{Users: 2, Jain: 0.9}})
	return c
}

func TestWriteChromeTraceSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := traceFixture().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if tr.Unit != "ms" {
		t.Fatalf("displayTimeUnit = %q", tr.Unit)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	flowStarts, flowEnds, spans, procs := 0, 0, 0, map[float64]bool{}
	for i, ev := range tr.TraceEvents {
		name, _ := ev["name"].(string)
		ph, _ := ev["ph"].(string)
		if name == "" || ph == "" {
			t.Fatalf("event %d missing name/ph: %v", i, ev)
		}
		pid, ok := ev["pid"].(float64)
		if !ok {
			t.Fatalf("event %d missing pid: %v", i, ev)
		}
		switch ph {
		case "s":
			flowStarts++
		case "f":
			flowEnds++
		case "X":
			spans++
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("X event %d missing dur: %v", i, ev)
			}
		case "M":
			if name == "process_name" {
				procs[pid] = true
			}
		}
	}
	// One migration arrow: an s/f pair.
	if flowStarts != 1 || flowEnds != 1 {
		t.Fatalf("flow events = %d starts, %d ends; want 1/1", flowStarts, flowEnds)
	}
	// 3 job spans + 2 migration instant slices.
	if spans != 5 {
		t.Fatalf("X spans = %d, want 5", spans)
	}
	// Clusters a, b plus the pid-0 fleet counter process.
	if !procs[1] || !procs[2] || !procs[0] {
		t.Fatalf("process metadata missing: %v", procs)
	}
	// NaN must never leak into the JSON.
	if bytes.Contains(buf.Bytes(), []byte("NaN")) {
		t.Fatal("trace contains NaN")
	}
}

// TestWriteChromeTraceSeries pins the counter-track export: every sampled
// telemetry series becomes a pid-0 "C" event per point, alongside the
// fairness counters, and the plain export stays series-free.
func TestWriteChromeTraceSeries(t *testing.T) {
	set := telemetry.NewSet()
	set.Series("fleet.queue_depth").Add(1, 3)
	set.Series("fleet.queue_depth").Add(2, 5)
	set.Series("cluster.a.util").Add(2, 0.5)

	var buf bytes.Buffer
	if err := traceFixture().WriteChromeTraceSeries(&buf, set); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	counters := map[string]int{}
	for _, ev := range tr.TraceEvents {
		if ph, _ := ev["ph"].(string); ph != "C" {
			continue
		}
		name, _ := ev["name"].(string)
		counters[name]++
		if pid, _ := ev["pid"].(float64); pid != 0 {
			t.Fatalf("counter %s on pid %g, want fleet lane 0", name, pid)
		}
	}
	if counters["fleet.queue_depth"] != 2 || counters["cluster.a.util"] != 1 {
		t.Fatalf("series counter events = %v", counters)
	}
	if counters["fairness"] != 1 {
		t.Fatalf("fairness counters = %d, want 1", counters["fairness"])
	}
	// Points scale like every other timestamp (simulated seconds × 1e6).
	found := false
	for _, ev := range tr.TraceEvents {
		if n, _ := ev["name"].(string); n == "cluster.a.util" {
			if ts, _ := ev["ts"].(float64); ts != 2e6 {
				t.Fatalf("counter ts = %g, want 2e6", ts)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("cluster.a.util counter missing")
	}

	// The series-free writer must not grow counter tracks.
	var plain bytes.Buffer
	if err := traceFixture().WriteChromeTrace(&plain); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plain.Bytes(), []byte("queue_depth")) {
		t.Fatal("plain trace leaked series counters")
	}
}

func TestWriteChromeTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := traceFixture().WriteChromeTraceFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatal("trace file is not valid JSON")
	}
}

func TestRunReport(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, UserID: 0, RequestedProcs: 4, SubmitTime: 0, RunTime: 10},
		{ID: 2, UserID: 1, RequestedProcs: 4, SubmitTime: 0, RunTime: 10},
	}
	jobs[0].StartTime, jobs[0].EndTime = 0, 10
	jobs[1].StartTime, jobs[1].EndTime = 5, 15
	res := metrics.Result{Jobs: jobs, Utilization: 0.5, Moves: 2,
		MigratedJobs: jobs[:1], MigrationDelaySum: 6}

	r := NewRunReport("fleet-migration", 42)
	r.AddPhase("evaluate", 1.5)
	r.AddResult("hysteresis", res)
	r.WallSeconds = 2.0

	if len(r.Results) != 1 {
		t.Fatalf("results = %d", len(r.Results))
	}
	e := r.Results[0]
	if e.Jobs != 2 || e.Metrics["moves"] != 2 || e.Metrics["migrated_jobs"] != 1 {
		t.Fatalf("entry = %+v", e)
	}
	if e.Metrics["mean_migration_delay_s"] != 6 {
		t.Fatalf("delay = %v", e.Metrics["mean_migration_delay_s"])
	}
	if e.Fairness == nil || e.Fairness.Users != 2 {
		t.Fatalf("fairness = %+v", e.Fairness)
	}
	for _, k := range metrics.Kinds {
		v, ok := e.Metrics[k.String()]
		if !ok || math.IsNaN(v) {
			t.Fatalf("metric %s missing or NaN", k)
		}
	}

	path := filepath.Join(t.TempDir(), "report.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Experiment != "fleet-migration" || back.Seed != 42 || len(back.Phases) != 1 {
		t.Fatalf("round-trip = %+v", back)
	}
}

func TestNopImplementsRecorder(t *testing.T) {
	var r Recorder = Nop{}
	r.Placement(&PlacementDecision{})
	r.Migration(&MigrationProbe{})
	r.Fairness(&FairnessSnapshot{})
	r.Job(&JobEvent{})
	var _ Recorder = NewCollector()
	var _ Recorder = NewRing(1)
}
