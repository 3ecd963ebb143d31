// Package exp regenerates every table and figure of the paper's evaluation
// (§V and the Appendix). Each experiment has an ID (table5, fig8, ...), a
// runner returning printable artifacts, and an entry in DESIGN.md's
// per-experiment index. Options scale the runs: Quick() keeps everything
// test-sized, Paper() approaches the paper's settings (100 epochs × 100
// trajectories × 256 jobs — hours of CPU).
package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"rlsched/internal/metrics"
	"rlsched/internal/obs"
	"rlsched/internal/rl"
	"rlsched/internal/trace"
)

// Options scales every experiment.
type Options struct {
	// Seed drives trace synthesis, training and evaluation sampling.
	Seed int64
	// TraceJobs is the trace length to synthesize (paper: first 10K).
	TraceJobs int
	// Epochs / TrajPerEpoch / SeqLen configure training runs.
	Epochs       int
	TrajPerEpoch int
	SeqLen       int
	// MaxObserve is MAX_OBSV_SIZE for both training and evaluation.
	MaxObserve int
	// EvalNSeq / EvalSeqLen configure evaluation campaigns (paper: 10
	// random sequences of 1024 jobs).
	EvalNSeq   int
	EvalSeqLen int
	// PPO iteration counts (paper: 80/80).
	PiIters, VIters int
	// FilterProbeN is the SJF probe size for trajectory filtering.
	FilterProbeN int
	// Workers is the rollout-collection parallelism of every training
	// run (0 = GOMAXPROCS). Any value yields bit-identical results;
	// only wall-clock changes.
	Workers int
	// Clusters, when > 0, scales every fleet scenario to that many member
	// clusters by cycling the scenario's size/scheduler template (the
	// event-heap placement path keeps per-arrival cost sublinear in this
	// number). 0 keeps each scenario's pinned default fleet.
	Clusters int
	// Migrate selects the cross-cluster migration policy fleet
	// experiments apply to score-capable routers: "" or "off" (one-shot
	// placement), "hysteresis", or "always" (see internal/fleet and the
	// fleet-migration experiment, which always compares all three).
	Migrate string
	// Churn selects the fleet-churn experiment's churn scenario: "" or
	// "full" (announced drain + mid-run join + unannounced failure),
	// "drain", "join", or "fail" for each membership change in isolation.
	Churn string
	// TracePath, when set, makes trace-capable experiments (the fleet
	// experiments) record one representative run through an obs.Collector
	// and write it as a Chrome trace-event / Perfetto timeline. Recording
	// is passive: artifacts are byte-identical with and without it.
	TracePath string
	// TimeseriesPath, when set, makes the fleet experiments attach health
	// sampling (internal/fleet.EnableSampling) to the same representative
	// run TracePath records and write the sampled series as a telemetry
	// JSON artifact. Like tracing, sampling is passive: results are
	// byte-identical with and without it. When TracePath is also set, the
	// exported timeline gains counter tracks for the sampled series.
	TimeseriesPath string
	// ReportPath, when set, makes Run write an obs.RunReport (scenario,
	// seed, per-policy metrics, fairness, wall-clock phase timings) as
	// indented JSON after a successful run.
	ReportPath string

	// report is the active run-report sink Run installs when ReportPath
	// is set; runners feed it through phase and addResult.
	report *obs.RunReport
}

// phase starts a wall-clock timing of one labelled run stage; call the
// returned func when the stage completes. A no-op without a report sink,
// and never observable in artifacts — timings go only to the report.
func (o Options) phase(name string) func() {
	if o.report == nil {
		return func() {}
	}
	start := time.Now()
	return func() { o.report.AddPhase(name, time.Since(start).Seconds()) }
}

// addResult appends one result summary row to the run report, if any.
func (o Options) addResult(name string, res metrics.Result) {
	if o.report != nil {
		o.report.AddResult(name, res)
	}
}

// Quick returns CI-scale options: minutes, not hours.
func Quick() Options {
	return Options{
		Seed:         42,
		TraceJobs:    800,
		Epochs:       3,
		TrajPerEpoch: 3,
		SeqLen:       32,
		MaxObserve:   16,
		EvalNSeq:     3,
		EvalSeqLen:   128,
		PiIters:      5,
		VIters:       5,
		FilterProbeN: 25,
	}
}

// Standard returns a mid-scale preset: meaningful learning curves in tens
// of minutes on a laptop CPU.
func Standard() Options {
	return Options{
		Seed:         42,
		TraceJobs:    4000,
		Epochs:       30,
		TrajPerEpoch: 20,
		SeqLen:       128,
		MaxObserve:   64,
		EvalNSeq:     10,
		EvalSeqLen:   512,
		PiIters:      40,
		VIters:       40,
		FilterProbeN: 100,
	}
}

// Paper returns the paper-scale settings of §V-A.
func Paper() Options {
	return Options{
		Seed:         42,
		TraceJobs:    10000,
		Epochs:       100,
		TrajPerEpoch: 100,
		SeqLen:       256,
		MaxObserve:   128,
		EvalNSeq:     10,
		EvalSeqLen:   1024,
		PiIters:      80,
		VIters:       80,
		FilterProbeN: 200,
	}
}

func (o Options) ppo() rl.PPOConfig {
	return rl.PPOConfig{TrainPiIters: o.PiIters, TrainVIters: o.VIters}
}

// traceCache avoids regenerating the same synthetic trace per experiment.
type traceCache struct {
	jobs int
	seed int64
	m    map[string]*trace.Trace
}

func newTraceCache(o Options) *traceCache {
	return &traceCache{jobs: o.TraceJobs, seed: o.Seed, m: map[string]*trace.Trace{}}
}

func (c *traceCache) get(name string) *trace.Trace {
	if t, ok := c.m[name]; ok {
		return t
	}
	t := trace.Preset(name, c.jobs, c.seed)
	if t == nil {
		panic(fmt.Sprintf("exp: unknown trace %q", name))
	}
	c.m[name] = t
	return t
}

// evalTraces are the four workloads of Tables V/VI/X/XI.
var evalTraces = []string{"Lublin-1", "SDSC-SP2", "HPC2N", "Lublin-2"}

// Table is a printable result grid.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Print renders the table as aligned text.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Series is a printable training curve or timeline (the figures).
type Series struct {
	Title  string
	XLabel string
	YLabel string
	Names  []string
	X      []float64
	Y      [][]float64 // Y[line][point]
}

// Print renders the series as columns (x, then one column per line).
func (s *Series) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", s.Title)
	fmt.Fprintf(w, "%s\t%s\n", s.XLabel, strings.Join(s.Names, "\t"))
	for i, x := range s.X {
		cells := []string{fmt.Sprintf("%g", x)}
		for l := range s.Y {
			if i < len(s.Y[l]) {
				cells = append(cells, fmt.Sprintf("%.4g", s.Y[l][i]))
			} else {
				cells = append(cells, "")
			}
		}
		fmt.Fprintln(w, strings.Join(cells, "\t"))
	}
	fmt.Fprintln(w)
}

// Artifact is anything an experiment can print.
type Artifact interface{ Print(io.Writer) }

// Print implements Artifact for Table.
var _ Artifact = (*Table)(nil)
var _ Artifact = (*Series)(nil)

// Runner executes one experiment.
type Runner func(Options) ([]Artifact, error)

// registry maps experiment IDs to runners, populated in init functions of
// the sibling files.
var registry = map[string]Runner{}

// IDs lists the registered experiment IDs, sorted.
func IDs() []string {
	var ids []string
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment by ID. With Options.ReportPath set, a
// successful run additionally writes an obs.RunReport capturing the
// configuration, per-policy result summaries and wall-clock phase timings.
func Run(id string, o Options) ([]Artifact, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (have %v)", id, IDs())
	}
	if o.ReportPath == "" {
		return r(o)
	}
	o.report = obs.NewRunReport(id, o.Seed)
	start := time.Now()
	arts, err := r(o)
	if err != nil {
		return arts, err
	}
	o.report.WallSeconds = time.Since(start).Seconds()
	o.report.Options = o
	if err := o.report.WriteFile(o.ReportPath); err != nil {
		return arts, fmt.Errorf("exp: write report: %w", err)
	}
	return arts, nil
}

func fmtVal(goal metrics.Kind, v float64) string {
	if goal == metrics.Utilization {
		return fmt.Sprintf("%.3f", v)
	}
	if v >= 1000 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}
