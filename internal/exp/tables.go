package exp

import (
	"fmt"
	"time"

	"rlsched/internal/core"
	"rlsched/internal/metrics"
	"rlsched/internal/sched"
	"rlsched/internal/sim"
	"rlsched/internal/trace"
)

func init() {
	scheduling := func(goal metrics.Kind, traces []string, title string) Runner {
		return func(o Options) ([]Artifact, error) { return schedulingTable(o, goal, traces, title) }
	}
	registry["table2"] = Table2
	registry["table5"] = scheduling(metrics.BoundedSlowdown, evalTraces, "Table V (%s): scheduling toward bsld")
	registry["table6"] = scheduling(metrics.Utilization, evalTraces, "Table VI (%s): scheduling toward util")
	registry["table7"] = Table7
	registry["table8"] = scheduling(metrics.FairMaxBoundedSlowdown, []string{"SDSC-SP2", "HPC2N"},
		"Table VIII (%s): bounded slowdown with Maximal fairness")
	registry["table9"] = Table9
	registry["table10"] = scheduling(metrics.Slowdown, evalTraces, "Table X (%s): scheduling toward slowdown")
	registry["table11"] = scheduling(metrics.WaitTime, evalTraces, "Table XI (%s): scheduling toward wait")
}

// Table2 reproduces the trace-characteristics table.
func Table2(o Options) ([]Artifact, error) {
	cache := newTraceCache(o)
	t := &Table{
		Title:  "Table II: job traces (synthetic stand-ins, first " + fmt.Sprint(o.TraceJobs) + " jobs)",
		Header: []string{"Name", "size", "it(sec)", "rt(sec)", "nt", "users"},
	}
	for _, name := range trace.PresetNames {
		s := cache.get(name).ComputeStats()
		t.AddRow(name,
			fmt.Sprint(s.Processors),
			fmt.Sprintf("%.0f", s.MeanInterarrival),
			fmt.Sprintf("%.0f", s.MeanRequestedTime),
			fmt.Sprintf("%.1f", s.MeanProcs),
			fmt.Sprint(s.Users))
	}
	t.Notes = append(t.Notes,
		"paper targets: SDSC-SP2 128/1055/6687/11, HPC2N 240/538/17024/6, PIK-IPLEX 2560/140/30889/12, ANL 163840/301/5176/5063, Lublin-1 256/771/4862/22, Lublin-2 256/460/1695/39",
		"rt here is mean *requested* runtime (estimates inflate actual runtime), as in SWF")
	return []Artifact{t}, nil
}

// agentConfig is the training configuration every experiment's agent
// starts from; callers set the fields their experiment varies.
func agentConfig(o Options, tr *trace.Trace, goal metrics.Kind) core.Config {
	return core.Config{
		Trace:        tr,
		Goal:         goal,
		MaxObserve:   o.MaxObserve,
		SeqLen:       o.SeqLen,
		TrajPerEpoch: o.TrajPerEpoch,
		Seed:         o.Seed,
		Workers:      o.Workers,
		PPO:          o.ppo(),
	}
}

// train builds an agent from cfg and trains it for o.Epochs.
func train(o Options, cfg core.Config) (*core.Agent, []core.EpochStats, error) {
	a, err := core.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	curve, err := a.Train(o.Epochs)
	return a, curve, err
}

// trainRL trains one agent for (traceName, goal) under the options.
func trainRL(cache *traceCache, o Options, traceName string, goal metrics.Kind, backfill, filter bool) (*core.Agent, []core.EpochStats, error) {
	cfg := agentConfig(o, cache.get(traceName), goal)
	cfg.Backfill, cfg.Filter = backfill, filter
	cfg.FilterProbeN, cfg.FilterPhase1 = o.FilterProbeN, o.Epochs/2
	return train(o, cfg)
}

func evalCfg(o Options, goal metrics.Kind, backfill bool) core.EvalConfig {
	return core.EvalConfig{
		Goal:       goal,
		NSeq:       o.EvalNSeq,
		SeqLen:     o.EvalSeqLen,
		Backfill:   backfill,
		MaxObserve: o.MaxObserve,
		Seed:       o.Seed + 1000,
	}
}

// backfillModes names the two halves of every ±backfilling table.
var backfillModes = []string{"without backfilling", "with backfilling"}

// schedulingTable reproduces the Tables V/VI/VIII/X/XI grid: every
// heuristic plus a freshly trained RL agent per trace toward goal, with and
// without backfilling. title is a format whose one %s is the mode.
func schedulingTable(o Options, goal metrics.Kind, traces []string, title string) ([]Artifact, error) {
	cache := newTraceCache(o)
	var arts []Artifact
	for i, mode := range backfillModes {
		backfill := i == 1
		t := &Table{
			Title:  fmt.Sprintf(title, mode),
			Header: []string{"Trace", "FCFS", "WFP3", "UNICEP", "SJF", "F1", "RL"},
		}
		for _, name := range traces {
			tr := cache.get(name)
			row := []string{name}
			ec := evalCfg(o, goal, backfill)
			for _, h := range sched.Heuristics() {
				v, _, err := core.Evaluate(tr, h, ec)
				if err != nil {
					return nil, err
				}
				row = append(row, fmtVal(goal, v))
			}
			agent, _, err := trainRL(cache, o, name, goal, backfill, false)
			if err != nil {
				return nil, err
			}
			v, _, err := core.Evaluate(tr, agent.Scheduler(), ec)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtVal(goal, v))
			t.AddRow(row...)
		}
		arts = append(arts, t)
	}
	return arts, nil
}

// Table7 reproduces the generalization grid: RL models trained on each of
// the four traces, applied to all five (including the never-trained-on ANL
// Intrepid), against the best and worst heuristics.
func Table7(o Options) ([]Artifact, error) {
	cache := newTraceCache(o)
	goal := metrics.BoundedSlowdown

	models := map[string]sim.Scheduler{}
	for _, name := range evalTraces {
		agent, _, err := trainRL(cache, o, name, goal, false, false)
		if err != nil {
			return nil, err
		}
		models["RL-"+name] = agent.Scheduler()
	}
	targets := append(append([]string{}, evalTraces...), "ANL-Intrepid")

	var arts []Artifact
	for i, mode := range backfillModes {
		backfill := i == 1
		t := &Table{
			Title: fmt.Sprintf("Table VII (%s): RL-X applied to trace Y, avg bounded slowdown", mode),
			Header: []string{"Trace", "BestHeur", "WorstHeur",
				"RL-Lublin-1", "RL-SDSC-SP2", "RL-HPC2N", "RL-Lublin-2"},
		}
		for _, target := range targets {
			tr := cache.get(target)
			ec := evalCfg(o, goal, backfill)
			bestName, worstName := "", ""
			best, worst := 0.0, 0.0
			for i, h := range sched.Heuristics() {
				v, _, err := core.Evaluate(tr, h, ec)
				if err != nil {
					return nil, err
				}
				if i == 0 || v < best {
					best, bestName = v, h.Name
				}
				if i == 0 || v > worst {
					worst, worstName = v, h.Name
				}
			}
			row := []string{target,
				fmt.Sprintf("%s (%s)", fmtVal(goal, best), bestName),
				fmt.Sprintf("%s (%s)", fmtVal(goal, worst), worstName)}
			for _, src := range evalTraces {
				v, _, err := core.Evaluate(tr, models["RL-"+src], ec)
				if err != nil {
					return nil, err
				}
				row = append(row, fmtVal(goal, v))
			}
			t.AddRow(row...)
		}
		t.Notes = append(t.Notes,
			"stability claim: every RL-X on Y should stay within the [best, worst] heuristic band")
		arts = append(arts, t)
	}
	return arts, nil
}

// Table9 measures computational cost: one scheduling decision for a
// 128-job queue by SJF and by the RL policy network, and one training
// epoch.
func Table9(o Options) ([]Artifact, error) {
	cache := newTraceCache(o)
	tr := cache.get("Lublin-1")
	queue := o.MaxObserve
	win := tr.Window(0, minInt(queue, tr.Len()))
	view := sim.ClusterView{FreeProcs: tr.Processors / 2, TotalProcs: tr.Processors}

	// SJF sorting/picking over the queue.
	sjf := sched.SJF()
	const reps = 2000
	start := time.Now()
	for i := 0; i < reps; i++ {
		sjf.Pick(win, 0, view)
	}
	sjfPer := time.Since(start) / reps

	// RL decision via an (untrained) kernel network of the same shape.
	agent, err := core.New(agentConfig(o, tr, metrics.BoundedSlowdown))
	if err != nil {
		return nil, err
	}
	rlSched := agent.Scheduler()
	start = time.Now()
	for i := 0; i < reps; i++ {
		rlSched.Pick(win, 0, view)
	}
	rlPer := time.Since(start) / reps

	// One training epoch.
	start = time.Now()
	if _, err := agent.TrainEpoch(); err != nil {
		return nil, err
	}
	epochTime := time.Since(start)

	t := &Table{
		Title:  "Table IX: computational cost (this machine)",
		Header: []string{"Operation", "Time"},
	}
	t.AddRow(fmt.Sprintf("SJF sorts %d jobs and picks one", len(win)), sjfPer.String())
	t.AddRow(fmt.Sprintf("RLScheduler DNN decision (%d jobs)", len(win)), rlPer.String())
	t.AddRow(fmt.Sprintf("RLScheduler training epoch (%d traj × %d jobs, %d+%d iters)",
		o.TrajPerEpoch, o.SeqLen, o.PiIters, o.VIters), epochTime.String())
	t.Notes = append(t.Notes,
		"paper (Xeon 4109T, TF/Python): SJF 0.71ms, RL decision 0.30ms, epoch 123s at 100×256 jobs",
		"shape to check: the RL decision is the same order as (or faster than) the SJF sort")
	return []Artifact{t}, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
