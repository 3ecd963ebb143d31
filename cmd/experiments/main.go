// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run table5            # one experiment
//	experiments -run all -scale quick  # everything, CI-sized
//	experiments -list
//
// Scales: quick (seconds–minutes), standard (tens of minutes), paper
// (the §V-A settings; hours of CPU).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rlsched/internal/exp"
	"rlsched/internal/trace"
)

// zooStatsJobs sizes the per-workload sample the -zoo summary is computed
// from — large enough for stable Table II-style statistics, small enough
// to stay instant.
const zooStatsJobs = 2000

// printZoo summarizes every trace-zoo workload (archive presets and chaos
// generators) at the given seed.
func printZoo(w io.Writer, seed int64) {
	trace.WriteZooSummary(w, zooStatsJobs, seed)
}

// perIDPath dedicates a per-experiment output file when several experiments
// run in one invocation: "out.json" → "out.table5.json".
func perIDPath(path, id string, many bool) string {
	if path == "" || !many {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + id + ext
}

func main() {
	run := flag.String("run", "", "experiment id (e.g. table5, fig8) or 'all'")
	scale := flag.String("scale", "quick", "quick | standard | paper")
	seed := flag.Int64("seed", 42, "global seed")
	list := flag.Bool("list", false, "list experiment ids and exit")
	epochs := flag.Int("epochs", 0, "override training epochs")
	traj := flag.Int("traj", 0, "override trajectories per epoch")
	seqlen := flag.Int("seqlen", 0, "override jobs per trajectory")
	maxObs := flag.Int("maxobs", 0, "override MAX_OBSV_SIZE")
	evalN := flag.Int("eval-nseq", 0, "override evaluation sequences")
	evalLen := flag.Int("eval-seqlen", 0, "override evaluation sequence length")
	traceJobs := flag.Int("trace-jobs", 0, "override synthesized trace length")
	iters := flag.Int("iters", 0, "override PPO policy/value iterations")
	workers := flag.Int("workers", 0, "parallel rollout workers for training runs (0 = GOMAXPROCS)")
	clusters := flag.Int("clusters", 0,
		"scale fleet experiments to N member clusters by cycling each scenario's size template (0 = pinned default fleet)")
	migrate := flag.String("migrate", "",
		"cross-cluster migration policy for fleet experiments: off|hysteresis|always")
	churn := flag.String("churn", "",
		"churn scenario for the fleet-churn experiment: full|drain|join|fail (default full)")
	zoo := flag.Bool("zoo", false, "print the trace-zoo summary (archive presets + chaos generators) and exit")
	tracePath := flag.String("trace", "",
		"write a Chrome trace-event / Perfetto timeline of a representative fleet run here (fleet experiments; open at ui.perfetto.dev)")
	timeseriesPath := flag.String("timeseries", "",
		"write sampled fleet health series (utilization, queue depth, bsld, fairness, migrations) of a representative fleet run as JSON here (fleet experiments)")
	reportPath := flag.String("report", "",
		"write a machine-readable run report (scenario, seeds, metrics, phase timings) as JSON here")
	flag.Parse()

	if *list {
		for _, id := range exp.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *zoo {
		printZoo(os.Stdout, *seed)
		return
	}
	if *run == "" {
		fmt.Fprintln(os.Stderr, "experiments: -run <id>|all required (see -list)")
		os.Exit(2)
	}

	var o exp.Options
	switch *scale {
	case "quick":
		o = exp.Quick()
	case "standard":
		o = exp.Standard()
	case "paper":
		o = exp.Paper()
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	o.Seed = *seed
	if *epochs > 0 {
		o.Epochs = *epochs
	}
	if *traj > 0 {
		o.TrajPerEpoch = *traj
	}
	if *seqlen > 0 {
		o.SeqLen = *seqlen
	}
	if *maxObs > 0 {
		o.MaxObserve = *maxObs
	}
	if *evalN > 0 {
		o.EvalNSeq = *evalN
	}
	if *evalLen > 0 {
		o.EvalSeqLen = *evalLen
	}
	if *traceJobs > 0 {
		o.TraceJobs = *traceJobs
	}
	if *iters > 0 {
		o.PiIters, o.VIters = *iters, *iters
	}
	if *workers > 0 {
		o.Workers = *workers
	}
	if *clusters > 0 {
		o.Clusters = *clusters
	}
	o.Migrate = *migrate
	o.Churn = *churn

	ids := []string{*run}
	if *run == "all" {
		ids = exp.IDs()
	}
	for _, id := range ids {
		o.TracePath = perIDPath(*tracePath, id, len(ids) > 1)
		o.TimeseriesPath = perIDPath(*timeseriesPath, id, len(ids) > 1)
		o.ReportPath = perIDPath(*reportPath, id, len(ids) > 1)
		start := time.Now()
		arts, err := exp.Run(id, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("### %s (scale=%s, %.1fs)\n\n", id, *scale, time.Since(start).Seconds())
		for _, a := range arts {
			a.Print(os.Stdout)
		}
	}
}
