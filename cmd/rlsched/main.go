// Command rlsched is the command-line front door of the repository: it
// trains RLScheduler agents, scores them against the heuristics,
// generates and summarizes traces, and regenerates the paper's tables and
// figures.
//
//	rlsched train -preset Lublin-1 -goal bsld -epochs 50 -o model.json
//	rlsched eval -preset SDSC-SP2 -model model.json -backfill   # Table VII setting
//	rlsched trace -preset PIK-IPLEX -jobs 10000 -o pik.swf
//	rlsched trace -zoo
//	rlsched exp -run table5 -scale standard
//
// Every subcommand that reads a trace takes -trace FILE (an SWF file) or
// else -preset NAME: any trace-zoo workload, synthesized at -jobs jobs
// from -seed. `rlsched <subcommand> -h` lists a subcommand's flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rlsched/internal/core"
	"rlsched/internal/exp"
	"rlsched/internal/metrics"
	"rlsched/internal/rl"
	"rlsched/internal/sim"
	"rlsched/internal/trace"
)

// A command registers its flags on fs and returns the function that runs
// once they are parsed.
type command func(fs *flag.FlagSet) func(stdout, stderr io.Writer) error

var commands = map[string]command{
	"train": train,
	"eval":  eval,
	"trace": traceCmd,
	"exp":   expCmd,
}

// usageError is a mistake in the command line itself; run exits 2 on it.
type usageError string

func (e usageError) Error() string { return string(e) }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one rlsched command line and returns its exit status: 0 on
// success, 1 when the work fails, 2 when the command line is wrong.
func run(args []string, stdout, stderr io.Writer) int {
	var cmd command
	if len(args) > 0 {
		cmd = commands[args[0]]
	}
	if cmd == nil {
		fmt.Fprintln(stderr, "usage: rlsched train|eval|trace|exp [flags] (see -h per subcommand)")
		return 2
	}
	fs := flag.NewFlagSet("rlsched "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	exec := cmd(fs)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	err := exec(stdout, stderr)
	if err == nil {
		return 0
	}
	fmt.Fprintf(stderr, "%s: %v\n", fs.Name(), err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// traceSource is the one trace loader every subcommand that reads a trace
// shares.
type traceSource struct {
	preset, file string
	jobs         int
	seed         int64
}

// addTraceFlags registers -preset, -trace, -jobs (defaulting to jobs) and
// -seed on fs.
func addTraceFlags(fs *flag.FlagSet, jobs int) *traceSource {
	s := &traceSource{}
	fs.StringVar(&s.preset, "preset", "Lublin-1", "trace-zoo workload: "+strings.Join(trace.ZooNames(), ", "))
	fs.StringVar(&s.file, "trace", "", "SWF trace file (overrides -preset)")
	fs.IntVar(&s.jobs, "jobs", jobs, "trace length for -preset")
	fs.Int64Var(&s.seed, "seed", 42, "seed for trace synthesis, training and sequence sampling")
	return s
}

// load reads -trace when it is given and synthesizes -preset otherwise.
func (s *traceSource) load() (*trace.Trace, error) {
	if s.file != "" {
		return trace.LoadSWFFile(s.file)
	}
	if tr := trace.ZooTrace(s.preset, s.jobs, s.seed); tr != nil {
		return tr, nil
	}
	return nil, usageError(fmt.Sprintf("unknown preset %q (have %v)", s.preset, trace.ZooNames()))
}

func train(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	src := addTraceFlags(fs, 10000)
	goalName := fs.String("goal", "bsld", "optimization goal: bsld|slowdown|wait|resp|util|fair-bsld")
	policyKind := fs.String("policy", "kernel", "policy network: kernel|mlp-v1|mlp-v2|mlp-v3|lenet")
	epochs := fs.Int("epochs", 100, "training epochs")
	traj := fs.Int("traj", 100, "trajectories per epoch")
	seqlen := fs.Int("seqlen", 256, "jobs per trajectory")
	maxObs := fs.Int("maxobs", sim.DefaultMaxObserve, "MAX_OBSV_SIZE")
	backfill := fs.Bool("backfill", false, "train with EASY backfilling")
	filter := fs.Bool("filter", false, "enable trajectory filtering (recommended for PIK-IPLEX)")
	piIters := fs.Int("pi-iters", 80, "PPO policy iterations per epoch")
	vIters := fs.Int("v-iters", 80, "PPO value iterations per epoch")
	workers := fs.Int("workers", 0, "parallel rollout workers (0 = GOMAXPROCS; any value is bit-identical)")
	out := fs.String("o", "model.json", "model output path")
	return func(stdout, _ io.Writer) error {
		goal, err := metrics.ParseKind(*goalName)
		if err != nil {
			return usageError(err.Error())
		}
		tr, err := src.load()
		if err != nil {
			return err
		}
		agent, err := core.New(core.Config{
			Trace:        tr,
			Goal:         goal,
			PolicyKind:   *policyKind,
			MaxObserve:   *maxObs,
			Backfill:     *backfill,
			SeqLen:       *seqlen,
			TrajPerEpoch: *traj,
			Filter:       *filter,
			Seed:         src.seed,
			PPO:          rl.PPOConfig{TrainPiIters: *piIters, TrainVIters: *vIters},
			Workers:      *workers,
		})
		if err != nil {
			return err
		}
		for e := 1; e <= *epochs; e++ {
			s, err := agent.TrainEpoch()
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "epoch %3d  %s=%.3f  reward=%.3f  kl=%.4f  pi-iters=%d  rejected=%d\n",
				s.Epoch, goal, s.MeanMetric, s.MeanReward, s.Update.KL, s.Update.PiIters, s.Rejected)
		}
		if err := writeFile(*out, agent.Save); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "model saved to %s\n", *out)
		return nil
	}
}

// writeFile creates path, lets write fill it, and reports the first error
// of the two, or of closing the file.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceCmd generates a trace (a zoo workload, or a custom Lublin–Feitelson
// instance) and writes it as SWF, or prints its Table II statistics, or
// summarizes the whole trace zoo.
func traceCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	src := addTraceFlags(fs, 10000)
	lublin := fs.Bool("lublin", false, "generate from the Lublin-Feitelson model instead of -preset")
	procs := fs.Int("procs", 256, "cluster size (-lublin)")
	it := fs.Float64("it", 771, "target mean inter-arrival seconds (-lublin)")
	rt := fs.Float64("rt", 4862, "target mean runtime seconds (-lublin)")
	out := fs.String("o", "", "output SWF path (default stdout)")
	stats := fs.Bool("stats", false, "print Table II statistics instead of the trace")
	zoo := fs.Bool("zoo", false, "print every trace-zoo workload's statistics at -jobs and -seed")
	return func(stdout, _ io.Writer) error {
		if *zoo {
			trace.WriteZooSummary(stdout, src.jobs, src.seed)
			return nil
		}
		var tr *trace.Trace
		if *lublin {
			cfg := trace.DefaultLublin(*procs, src.jobs)
			cfg.TargetMeanInterarrival = *it
			cfg.TargetMeanRuntime = *rt
			tr = trace.GenerateLublin(cfg, rand.New(rand.NewSource(src.seed)))
		} else {
			var err error
			if tr, err = src.load(); err != nil {
				return err
			}
		}
		if *stats {
			s := tr.ComputeStats()
			fmt.Fprintf(stdout, "name=%s procs=%d jobs=%d it=%.0fs rt=%.0fs (requested %.0fs) nt=%.1f users=%d\n",
				s.Name, s.Processors, s.Jobs, s.MeanInterarrival, s.MeanRunTime, s.MeanRequestedTime, s.MeanProcs, s.Users)
			return nil
		}
		if *out == "" {
			return tr.WriteSWF(stdout)
		}
		return writeFile(*out, tr.WriteSWF)
	}
}

// expCmd runs registered experiments (internal/exp) and prints their
// artifacts.
func expCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	id := fs.String("run", "", "experiment id (e.g. table5, fig8) or 'all'")
	scale := fs.String("scale", "quick", "quick | standard | paper")
	list := fs.Bool("list", false, "list experiment ids and exit")
	var ov exp.Options // overrides of the scale preset; 0 keeps the preset
	fs.Int64Var(&ov.Seed, "seed", 42, "global seed")
	fs.IntVar(&ov.Epochs, "epochs", 0, "override training epochs")
	fs.IntVar(&ov.TrajPerEpoch, "traj", 0, "override trajectories per epoch")
	fs.IntVar(&ov.SeqLen, "seqlen", 0, "override jobs per trajectory")
	fs.IntVar(&ov.MaxObserve, "maxobs", 0, "override MAX_OBSV_SIZE")
	fs.IntVar(&ov.EvalNSeq, "eval-nseq", 0, "override evaluation sequences")
	fs.IntVar(&ov.EvalSeqLen, "eval-seqlen", 0, "override evaluation sequence length")
	fs.IntVar(&ov.TraceJobs, "trace-jobs", 0, "override synthesized trace length")
	fs.IntVar(&ov.PiIters, "iters", 0, "override PPO policy/value iterations")
	fs.IntVar(&ov.Workers, "workers", 0, "parallel rollout workers for training runs (0 = GOMAXPROCS)")
	fs.IntVar(&ov.Clusters, "clusters", 0,
		"scale fleet experiments to N member clusters by cycling each scenario's size template (0 = pinned default fleet)")
	fs.StringVar(&ov.Migrate, "migrate", "",
		"cross-cluster migration policy for fleet experiments: off|hysteresis|always")
	fs.StringVar(&ov.Churn, "churn", "",
		"churn scenario for the fleet-churn experiment: full|drain|join|fail (default full)")
	fs.StringVar(&ov.TracePath, "trace-out", "",
		"write a Chrome trace-event / Perfetto timeline of a representative fleet run here (fleet experiments; open at ui.perfetto.dev)")
	fs.StringVar(&ov.TimeseriesPath, "timeseries", "",
		"write sampled fleet health series (utilization, queue depth, bsld, fairness, migrations) of a representative fleet run as JSON here (fleet experiments)")
	fs.StringVar(&ov.ReportPath, "report", "",
		"write a machine-readable run report (scenario, seeds, metrics, phase timings) as JSON here")
	return func(stdout, _ io.Writer) error {
		if *list {
			for _, id := range exp.IDs() {
				fmt.Fprintln(stdout, id)
			}
			return nil
		}
		if *id == "" {
			return usageError("-run <id>|all required (see -list)")
		}
		preset, ok := map[string]func() exp.Options{
			"quick": exp.Quick, "standard": exp.Standard, "paper": exp.Paper,
		}[*scale]
		if !ok {
			return usageError(fmt.Sprintf("unknown scale %q", *scale))
		}
		o := preset()
		o.Seed, o.Migrate, o.Churn = ov.Seed, ov.Migrate, ov.Churn
		for _, f := range []struct {
			dst *int
			v   int
		}{
			{&o.Epochs, ov.Epochs}, {&o.TrajPerEpoch, ov.TrajPerEpoch}, {&o.SeqLen, ov.SeqLen},
			{&o.MaxObserve, ov.MaxObserve}, {&o.EvalNSeq, ov.EvalNSeq}, {&o.EvalSeqLen, ov.EvalSeqLen},
			{&o.TraceJobs, ov.TraceJobs}, {&o.PiIters, ov.PiIters}, {&o.VIters, ov.PiIters},
			{&o.Workers, ov.Workers}, {&o.Clusters, ov.Clusters},
		} {
			if f.v > 0 {
				*f.dst = f.v
			}
		}
		ids := []string{*id}
		if *id == "all" {
			ids = exp.IDs()
		}
		for _, id := range ids {
			o.TracePath = perIDPath(ov.TracePath, id, len(ids) > 1)
			o.TimeseriesPath = perIDPath(ov.TimeseriesPath, id, len(ids) > 1)
			o.ReportPath = perIDPath(ov.ReportPath, id, len(ids) > 1)
			start := time.Now()
			arts, err := exp.Run(id, o) // a failed self-check's tables print too
			fmt.Fprintf(stdout, "### %s (scale=%s, %.1fs)\n\n", id, *scale, time.Since(start).Seconds())
			for _, a := range arts {
				a.Print(stdout)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
		}
		return nil
	}
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
