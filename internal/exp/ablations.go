package exp

import (
	"fmt"
	"math/rand"

	"rlsched/internal/core"
	"rlsched/internal/metrics"
	"rlsched/internal/nn"
	"rlsched/internal/rl"
	"rlsched/internal/sched"
	"rlsched/internal/sim"
)

func init() {
	registry["ablation-backfill"] = AblationBackfill
	registry["ablation-kernel"] = AblationKernel
	registry["ablation-obswindow"] = AblationObsWindow
	registry["ablation-dqn"] = AblationDQN
}

// AblationBackfill compares no backfilling, EASY, and conservative
// backfilling under every heuristic — an ablation of the scheduling
// substrate the paper's ±backfilling tables build on.
func AblationBackfill(o Options) ([]Artifact, error) {
	cache := newTraceCache(o)
	t := &Table{
		Title:  "Ablation: backfilling discipline (avg bounded slowdown)",
		Header: []string{"Trace", "Scheduler", "none", "EASY", "conservative"},
	}
	for _, name := range []string{"Lublin-1", "SDSC-SP2"} {
		tr := cache.get(name)
		for _, h := range sched.Heuristics() {
			row := []string{name, h.Name}
			for _, mode := range []struct{ bf, cons bool }{{false, false}, {true, false}, {true, true}} {
				ec := evalCfg(o, metrics.BoundedSlowdown, mode.bf)
				v, _, err := evaluateWithMode(tr.Name, cache, h, ec, mode.cons)
				if err != nil {
					return nil, err
				}
				row = append(row, fmtVal(metrics.BoundedSlowdown, v))
			}
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: EASY <= none on bsld almost everywhere; conservative close to EASY, sometimes slightly worse (reservations block aggressive fills)")
	return []Artifact{t}, nil
}

// evaluateWithMode mirrors core.Evaluate with the Conservative toggle.
func evaluateWithMode(traceName string, cache *traceCache, s sim.Scheduler, ec core.EvalConfig, conservative bool) (float64, []float64, error) {
	tr := cache.get(traceName)
	if !conservative {
		return core.Evaluate(tr, s, ec)
	}
	return core.EvaluateSim(tr, s, ec, sim.Config{
		Processors:   tr.Processors,
		Backfill:     true,
		Conservative: true,
		MaxObserve:   ec.MaxObserve,
	})
}

// AblationKernel sweeps the kernel network's hidden sizes around the
// paper's 32/16/8 choice, reporting parameter count and post-training
// performance — the "parameter size < 1000" trade-off of §IV-B1.
func AblationKernel(o Options) ([]Artifact, error) {
	cache := newTraceCache(o)
	tr := cache.get("Lublin-1")
	variants := []struct {
		name   string
		hidden []int
	}{
		{"8/4", []int{8, 4}},
		{"16/8", []int{16, 8}},
		{"32/16/8 (paper)", []int{32, 16, 8}},
		{"64/32/16", []int{64, 32, 16}},
	}
	t := &Table{
		Title:  "Ablation: kernel-network width on Lublin-1 (bsld after training)",
		Header: []string{"Hidden sizes", "Params", "Final train bsld", "Eval bsld"},
	}
	for _, v := range variants {
		cfg := agentConfig(o, tr, metrics.BoundedSlowdown)
		cfg.KernelHidden = v.hidden
		agent, curve, err := train(o, cfg)
		if err != nil {
			return nil, err
		}
		ev, _, err := core.Evaluate(tr, agent.Scheduler(), evalCfg(o, metrics.BoundedSlowdown, false))
		if err != nil {
			return nil, err
		}
		params := nn.ParamCount(agent.PPO().Policy)
		t.AddRow(v.name, fmt.Sprint(params),
			fmtVal(metrics.BoundedSlowdown, curve[len(curve)-1].MeanMetric),
			fmtVal(metrics.BoundedSlowdown, ev))
	}
	return []Artifact{t}, nil
}

// AblationDQN compares PPO (the paper's choice) with Q-learning (the
// value-based method §II-B2 rejects for this domain due to the high
// reward variance) on the same environment, trace and epoch budget. The
// claim to check: PPO's per-epoch metric is more stable and at least as
// good by the end of the budget.
func AblationDQN(o Options) ([]Artifact, error) {
	cache := newTraceCache(o)
	tr := cache.get("Lublin-1")
	goal := metrics.BoundedSlowdown
	series := &Series{
		Title:  "Ablation: PPO vs DQN on Lublin-1 (avg bounded slowdown per epoch)",
		XLabel: "epoch",
		YLabel: goal.String(),
		Names:  []string{"ppo", "dqn"},
	}

	// --- PPO (the paper's learner) ---
	_, curve, err := trainRL(cache, o, "Lublin-1", goal, false, false)
	if err != nil {
		return nil, err
	}
	ppoY := meanMetrics(curve)

	// --- DQN on the identical environment and trajectory budget ---
	rng := rand.New(rand.NewSource(o.Seed))
	q := nn.NewKernelNet(rng, o.MaxObserve, sim.JobFeatures, nil)
	tgt := nn.NewKernelNet(rng, o.MaxObserve, sim.JobFeatures, nil)
	dqn, err := rl.NewDQN(q, tgt, rl.DQNConfig{WarmupBuffer: o.SeqLen})
	if err != nil {
		return nil, err
	}
	env := sim.NewEnv(sim.Config{Processors: tr.Processors, MaxObserve: o.MaxObserve}, goal)
	var dqnY []float64
	for epoch := 0; epoch < o.Epochs; epoch++ {
		metricSum := 0.0
		for traj := 0; traj < o.TrajPerEpoch; traj++ {
			if _, err := dqn.Episode(rng, env, tr.SampleWindow(rng, o.SeqLen)); err != nil {
				return nil, err
			}
			metricSum += metrics.Value(goal, env.Result())
		}
		dqnY = append(dqnY, metricSum/float64(o.TrajPerEpoch))
	}

	series.Y = [][]float64{ppoY, dqnY}
	series.X = epochs(len(ppoY))
	t := &Table{Title: "Ablation PPO vs DQN summary", Header: []string{"learner", "final-epoch bsld"}}
	t.AddRow("ppo", fmtVal(goal, ppoY[len(ppoY)-1]))
	t.AddRow("dqn", fmtVal(goal, dqnY[len(dqnY)-1]))
	t.Notes = append(t.Notes, "§II-B2: the paper picks policy gradient over Q-learning because the domain's reward variance destabilizes value learning")
	return []Artifact{series, t}, nil
}

// AblationObsWindow sweeps MAX_OBSV_SIZE (§IV-B3's cut-off) to show the
// cost/benefit of a wider scheduler view.
func AblationObsWindow(o Options) ([]Artifact, error) {
	cache := newTraceCache(o)
	tr := cache.get("Lublin-2")
	t := &Table{
		Title:  "Ablation: MAX_OBSV_SIZE on Lublin-2 (bsld)",
		Header: []string{"MaxObserve", "Final train bsld", "Eval bsld"},
	}
	for _, mo := range []int{8, 16, 32, 64} {
		if mo > o.MaxObserve*4 {
			break
		}
		cfg := agentConfig(o, tr, metrics.BoundedSlowdown)
		cfg.MaxObserve = mo
		agent, curve, err := train(o, cfg)
		if err != nil {
			return nil, err
		}
		ec := evalCfg(o, metrics.BoundedSlowdown, false)
		ec.MaxObserve = mo
		ev, _, err := core.Evaluate(tr, agent.Scheduler(), ec)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(mo),
			fmtVal(metrics.BoundedSlowdown, curve[len(curve)-1].MeanMetric),
			fmtVal(metrics.BoundedSlowdown, ev))
	}
	return []Artifact{t}, nil
}
