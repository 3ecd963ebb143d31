package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"text/tabwriter"

	"rlsched/internal/core"
	"rlsched/internal/fleet"
	"rlsched/internal/job"
	"rlsched/internal/metrics"
	"rlsched/internal/obs"
	"rlsched/internal/sched"
	"rlsched/internal/sim"
	"rlsched/internal/telemetry"
)

// eval scores every heuristic, and with -model a saved RL model, on every
// goal over the same sampled sequences, and prints one table row each.
// -trace-out and -timeseries replay one sampled sequence under the first
// row's scheduler and write its job timeline (Chrome trace-event JSON, open
// at https://ui.perfetto.dev) or its sampled health series.
func eval(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	src := addTraceFlags(fs, 2000)
	nseq := fs.Int("nseq", 10, "number of evaluation sequences")
	seqlen := fs.Int("seqlen", 1024, "jobs per evaluation sequence")
	backfill := fs.Bool("backfill", false, "enable EASY backfilling")
	maxObs := fs.Int("maxobs", sim.DefaultMaxObserve, "scheduler-visible queue size")
	model := fs.String("model", "", "saved RL model (rlsched train output) to add as a row")
	traceOut := fs.String("trace-out", "",
		"write a Chrome trace-event / Perfetto timeline of one replayed sequence here")
	timeseries := fs.String("timeseries", "",
		"write sampled health series (utilization, queue depth, pending/running work, bsld) of one replayed sequence as JSON here")
	return func(stdout, stderr io.Writer) error {
		tr, err := src.load()
		if err != nil {
			return err
		}
		type row struct {
			name string
			s    sim.Scheduler
		}
		var rows []row
		for _, h := range sched.Heuristics() {
			rows = append(rows, row{h.Name, h})
		}
		if *model != "" {
			f, err := os.Open(*model)
			if err != nil {
				return err
			}
			s, err := core.LoadScheduler(f)
			f.Close()
			if err != nil {
				return err
			}
			rows = append(rows, row{"RL(" + *model + ")", s})
		}

		w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintf(w, "scheduler")
		for _, g := range metrics.Kinds {
			fmt.Fprintf(w, "\t%s", g)
		}
		fmt.Fprintln(w)
		for _, r := range rows {
			fmt.Fprintf(w, "%s", r.name)
			for _, g := range metrics.Kinds {
				mean, _, err := core.Evaluate(tr, r.s, core.EvalConfig{
					Goal: g, NSeq: *nseq, SeqLen: *seqlen,
					Backfill: *backfill, MaxObserve: *maxObs, Seed: src.seed,
				})
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "\t%.3f", mean)
			}
			fmt.Fprintln(w)
		}
		if err := w.Flush(); err != nil {
			return err
		}

		// Each replay samples the first evaluation sequence afresh.
		window := func() []*job.Job { return tr.SampleWindow(rand.New(rand.NewSource(src.seed)), *seqlen) }
		simCfg := sim.Config{Processors: tr.Processors, Backfill: *backfill, MaxObserve: *maxObs}
		if *traceOut != "" {
			if err := writeTimeline(window(), simCfg, tr.Name+"/"+rows[0].name, rows[0].s, *traceOut); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "rlsched eval: wrote %s timeline of %q to %s (open at https://ui.perfetto.dev)\n",
				rows[0].name, tr.Name, *traceOut)
		}
		if *timeseries != "" {
			if err := writeTimeseries(window(), simCfg, tr.Name, rows[0].s, *timeseries); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "rlsched eval: wrote %s health series of %q to %s\n", rows[0].name, tr.Name, *timeseries)
		}
		return nil
	}
}

// writeTimeline replays window under s with a collector attached and
// exports the job spans as a Chrome trace-event timeline.
func writeTimeline(window []*job.Job, cfg sim.Config, label string, s sim.Scheduler, path string) error {
	sm := sim.New(cfg)
	col := obs.NewCollector()
	sm.SetRecorder(col, label)
	if err := sm.Load(window); err != nil {
		return err
	}
	if _, err := sm.Run(s); err != nil {
		return err
	}
	return col.WriteChromeTraceFile(path)
}

// writeTimeseries replays window through a single-member fleet with health
// sampling on (sampling is passive, so the replay schedules exactly like
// the plain simulator) and writes the sampled series as a telemetry JSON
// artifact, ~200 samples over the window's arrival span.
func writeTimeseries(window []*job.Job, cfg sim.Config, name string, s sim.Scheduler, path string) error {
	f, err := fleet.New([]fleet.MemberConfig{{Name: name, Sim: cfg, Scheduler: s}}, fleet.NewRoundRobin())
	if err != nil {
		return err
	}
	interval := max((window[len(window)-1].SubmitTime-window[0].SubmitTime)/200, 1)
	set := telemetry.NewSet()
	if err := f.EnableSampling(fleet.SamplingConfig{Interval: interval, Set: set}); err != nil {
		return err
	}
	if _, err := f.Run(window); err != nil {
		return err
	}
	return set.WriteFile(path)
}
