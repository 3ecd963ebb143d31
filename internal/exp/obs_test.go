package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rlsched/internal/obs"
)

// renderArts renders artifacts exactly as cmd/experiments prints them.
func renderArts(arts []Artifact) []byte {
	var buf bytes.Buffer
	for _, a := range arts {
		a.Print(&buf)
	}
	return buf.Bytes()
}

// TestFleetMigrationTraceAndReport is the end-to-end acceptance check of
// the observability layer: a fleet-migration run with tracing
// and reporting enabled must (a) print byte-identical artifacts to the
// untraced run, (b) write valid Chrome trace-event JSON containing at
// least one migration arrow, and (c) write a run report with phases and
// per-policy results.
func TestFleetMigrationTraceAndReport(t *testing.T) {
	o := ultraQuick()
	baseArts, err := Run("fleet-migration", o)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	o.TracePath = filepath.Join(dir, "trace.json")
	o.ReportPath = filepath.Join(dir, "report.json")
	tracedArts, err := Run("fleet-migration", o)
	if err != nil {
		t.Fatal(err)
	}

	if a, b := renderArts(baseArts), renderArts(tracedArts); !bytes.Equal(a, b) {
		t.Fatalf("artifacts differ with tracing enabled:\n--- untraced ---\n%s\n--- traced ---\n%s", a, b)
	}

	// Trace: valid Chrome trace-event JSON, every event named and phased,
	// at least one migration flow arrow (an "s"/"f" pair).
	data, err := os.ReadFile(o.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	arrows, spans := 0, 0
	for i, ev := range tr.TraceEvents {
		name, _ := ev["name"].(string)
		ph, _ := ev["ph"].(string)
		if name == "" || ph == "" {
			t.Fatalf("trace event %d missing name/ph: %v", i, ev)
		}
		switch ph {
		case "s":
			arrows++
		case "X":
			spans++
		}
	}
	if arrows < 1 {
		t.Fatal("trace contains no migration arrow")
	}
	if spans < 1 {
		t.Fatal("trace contains no job spans")
	}

	// Report: round-trips, carries the run identity, one phase per seed ×
	// policy and one row per seed × policy × stream.
	rep := readReport(t, o.ReportPath)
	if rep.Experiment != "fleet-migration" || rep.Seed != o.Seed {
		t.Fatalf("report identity = %s/%d", rep.Experiment, rep.Seed)
	}
	if len(rep.Phases) != 3*migrationSeeds {
		t.Fatalf("report has %d phases, want %d (seeds × policies)", len(rep.Phases), 3*migrationSeeds)
	}
	wantRows := 3 * migrationSeeds * o.EvalNSeq
	if len(rep.Results) != wantRows {
		t.Fatalf("report has %d result rows, want %d", len(rep.Results), wantRows)
	}
	for _, r := range rep.Results {
		if r.Jobs == 0 || len(r.Metrics) == 0 {
			t.Fatalf("empty report row: %+v", r)
		}
	}
	if rep.WallSeconds <= 0 {
		t.Fatalf("wall seconds = %g", rep.WallSeconds)
	}
}

// TestFleetFairnessReportPhases: like churn and constraints, fleet-fairness
// records one evaluate/seed<s>/<router> phase per seed and router, in run
// order.
func TestFleetFairnessReportPhases(t *testing.T) {
	o := ultraQuick()
	o.ReportPath = filepath.Join(t.TempDir(), "report.json")
	if _, err := Run("fleet-fairness", o); err != nil {
		t.Fatal(err)
	}
	rep := readReport(t, o.ReportPath)
	var want []string
	for s := 0; s < fairnessSeeds; s++ {
		for _, r := range []string{"least-loaded", "binpack", "least-loaded+mig", "fair"} {
			want = append(want, fmt.Sprintf("evaluate/seed%d/%s", s, r))
		}
	}
	if len(rep.Phases) != len(want) {
		t.Fatalf("report has %d phases, want %d (seeds × routers)", len(rep.Phases), len(want))
	}
	for i, p := range rep.Phases {
		if p.Name != want[i] {
			t.Errorf("phase %d = %q, want %q", i, p.Name, want[i])
		}
	}
}

// readReport loads a run report written by Run.
func readReport(t *testing.T, path string) obs.RunReport {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	return rep
}
