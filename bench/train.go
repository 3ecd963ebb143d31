package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	ag "rlsched/internal/autograd"
	"rlsched/internal/core"
	"rlsched/internal/job"
	"rlsched/internal/metrics"
	"rlsched/internal/nn"
	"rlsched/internal/optim"
	"rlsched/internal/rl"
	"rlsched/internal/sim"
	"rlsched/internal/trace"
)

// train_epoch: the paper's training cost in the paper's shape (Table IX).

// lublinSeed fixes the training trace. Lublin-1 is a dataset, as in the
// paper: the run's seed draws the windows, the initial weights and the
// actions, not the 4000 jobs themselves. An epoch's cost follows the queue
// lengths of its windows, and how congested 4000 generated jobs are varies
// with the generator's seed by far more than any bound on this workload.
const lublinSeed = 42

func trainConfig(r *run) core.Config {
	sc := r.sc
	return core.Config{
		Trace:        trace.Preset("Lublin-1", sc.traceJobs, lublinSeed),
		Goal:         metrics.BoundedSlowdown,
		PolicyKind:   "kernel",
		MaxObserve:   sc.maxObserve,
		SeqLen:       sc.seqLen,
		TrajPerEpoch: sc.trajPerEpoch,
		Seed:         r.seed,
		PPO:          rl.PPOConfig{TrainPiIters: sc.ppoIters, TrainVIters: sc.ppoIters},
		Workers:      runtime.GOMAXPROCS(0),
	}
}

// checkEpoch counts one epoch and fails it unless every loss and the KL
// divergence are finite.
func (r *run) checkEpoch(st rl.UpdateStats) {
	r.attempted++
	for _, v := range []float64{st.PolicyLoss, st.ValueLoss, st.KL, st.Entropy} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.failed++
			r.problem("epoch produced a non-finite loss or KL: %+v", st)
			return
		}
	}
}

func runTrainEpoch(r *run) error {
	if r.trace {
		return traceTrainEpoch(r)
	}
	agent, setup, err := timeSetup(r.sc.setupReps, 1,
		func() (*core.Agent, error) { return core.New(trainConfig(r)) }, func(*core.Agent) {})
	if err != nil {
		return err
	}
	// The first epoch grows the heap, creates the rollout environments and
	// faults in every buffer; users pay it once per training run, so it is
	// set-up, not steady state.
	t0 := time.Now()
	st, err := agent.TrainEpoch()
	if err != nil {
		return err
	}
	warm := time.Since(t0)
	r.checkEpoch(st.Update)
	r.set("setup_s", setup+warm.Seconds(),
		fmt.Sprintf("median of %d agent builds (%.4f s) + the first epoch (%.3f s)", r.sc.setupReps, setup, warm.Seconds()))

	steps := r.sc.trajPerEpoch * r.sc.seqLen
	var epochs []time.Duration
	var total time.Duration
	budget := seconds(r.sc.seconds)
	// Whole epochs only: start another while it is more likely than not to
	// end inside the budget.
	for len(epochs) == 0 || total+epochs[len(epochs)-1]/2 < budget {
		t0 := time.Now()
		st, err := agent.TrainEpoch()
		if err != nil {
			return err
		}
		d := time.Since(t0)
		r.checkEpoch(st.Update)
		epochs = append(epochs, d)
		total += d
		r.printf("  epoch %d: %.3f s, pi iters %d, kl %.3g, policy loss %.4g, value loss %.4g\n",
			len(epochs), d.Seconds(), st.Update.PiIters, st.Update.KL, st.Update.PolicyLoss, st.Update.ValueLoss)
	}
	slices.Sort(epochs)
	note := fmt.Sprintf("one epoch of %d steps, n=%d epochs", steps, len(epochs))
	r.set("ops_per_s", float64(steps)/quantile(epochs, 0.50).Seconds(), "environment steps/s at the median epoch, "+note)
	r.set("latency_p50_ms", ms(quantile(epochs, 0.50)), note)
	r.set("latency_tail_ms", ms(quantile(epochs, trainTail)), "the third quartile, "+note)
	return nil
}

// traceTrainEpoch rebuilds the epoch from the public calls underneath
// Agent.TrainEpoch — the same constructors in the same order on the same
// seed, so both stacks draw the same windows and start from the same
// weights — and times each call. The two stacks alternate epochs; the first
// of each warms up, a later one is measured, and being the same computation
// they must agree on the losses to the last bit.
func traceTrainEpoch(r *run) error {
	sc := r.sc
	log := newSpanLog()
	log.on.Store(true)
	cfg := trainConfig(r)
	agent, err := core.New(cfg)
	if err != nil {
		return err
	}

	// core.New, spelled out.
	rng := rand.New(rand.NewSource(cfg.Seed))
	pol, err := nn.NewPolicy(rng, cfg.PolicyKind, cfg.MaxObserve, sim.JobFeatures)
	if err != nil {
		return err
	}
	val := nn.NewValueNet(rng, cfg.MaxObserve, sim.JobFeatures, nil)
	ppoCfg := cfg.PPO.Defaults()
	simCfg := sim.Config{Processors: cfg.Trace.Processors, MaxObserve: cfg.MaxObserve}
	ppo := rl.NewPPO(pol, val, ppoCfg)
	buf := rl.NewBuffer(ppoCfg.Gamma, ppoCfg.Lambda)
	collector := rl.NewCollector(rl.CollectorConfig{
		Policy: ppo.Inferer(), Value: val, MaxObs: cfg.MaxObserve, Feat: sim.JobFeatures,
		Sim: simCfg, Goal: cfg.Goal, Workers: cfg.Workers,
	})

	type split struct {
		collect, buffer, update time.Duration
		stats                   rl.UpdateStats
		nodes                   int64
	}
	// Agent.TrainEpoch, spelled out.
	rebuilt := func(epoch int) (split, error) {
		var s split
		t0 := time.Now()
		buf.Reset()
		wins := make([][]*job.Job, cfg.TrajPerEpoch)
		seeds := make([]int64, len(wins))
		for i := range wins {
			wins[i] = cfg.Trace.SampleWindow(rng, cfg.SeqLen)
			seeds[i] = cfg.Seed + int64(epoch)*1_000_003 + int64(i)*7919
		}
		rollouts := collector.Collect(wins, seeds)
		t1 := time.Now()
		for _, ro := range rollouts {
			if err := buf.StoreRollout(ro); err != nil {
				return s, err
			}
		}
		batch, err := buf.Get()
		if err != nil {
			return s, err
		}
		t2 := time.Now()
		nodes := ag.GraphNodeCount()
		s.stats = ppo.Update(batch)
		t3 := time.Now()
		s.nodes = ag.GraphNodeCount() - nodes
		s.collect, s.buffer, s.update = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
		log.add("core.epoch", t0, t3, int64(epoch), 0)
		log.add("rl.collect", t0, t1, 0, len(wins))
		log.add("rl.buffer", t1, t2, 0, 0)
		log.add("rl.update", t2, t3, 0, s.stats.PiIters)
		return s, nil
	}

	// pair runs the next epoch of both stacks, which must agree to the bit.
	var parts split
	epoch := 0
	pair := func() (whole time.Duration, err error) {
		epoch++
		t0 := time.Now()
		st, err := agent.TrainEpoch()
		if err != nil {
			return 0, err
		}
		whole = time.Since(t0)
		r.checkEpoch(st.Update)
		if parts, err = rebuilt(epoch); err != nil {
			return 0, err
		}
		r.checkEpoch(parts.stats)
		if parts.stats != st.Update {
			r.problem("rebuilt epoch %d diverged from Agent.TrainEpoch: %+v vs %+v", epoch, parts.stats, st.Update)
		}
		return whole, nil
	}
	mem := startMem()
	if _, err := pair(); err != nil { // the first epoch of each is the warm-up
		return err
	}
	steps := float64(sc.trajPerEpoch * sc.seqLen)
	if err := r.ladder("s", func() (layers, all float64, err error) {
		whole, err := pair()
		if err != nil {
			return 0, 0, err
		}
		sum := parts.collect + parts.buffer + parts.update
		r.set("core.epoch_s", whole.Seconds(), fmt.Sprintf("Agent.TrainEpoch, epoch %d", epoch))
		r.set("rl.collect_s", parts.collect.Seconds(), "window sampling + Collector.Collect")
		r.set("rl.collect_steps_per_s", steps/parts.collect.Seconds())
		r.set("rl.buffer_s", parts.buffer.Seconds(), "Buffer.StoreRollout + Get")
		r.set("rl.update_s", parts.update.Seconds(), "PPO.Update")
		r.set("rl.update_pi_iters", float64(parts.stats.PiIters), fmt.Sprintf("of %d; fewer means the KL early stop fired", sc.ppoIters))
		r.set("autograd.graph_nodes_per_update", float64(parts.nodes), "exact count")
		r.set("trace_overhead_share", (sum.Seconds()-whole.Seconds())/whole.Seconds(), "(traced - untraced epoch time) / untraced")
		return sum.Seconds(), whole.Seconds(), nil
	}); err != nil {
		return err
	}
	mem.report(r, float64(2*epoch))
	r.set("core.epoch_unattributed_share", r.values["ladder_residual_share"], "|epoch - (collect + buffer + update)| / epoch")

	// The kernels underneath, at the kernel net's first-layer training
	// shape: every job row of every step through 7 inputs -> 32 hidden.
	micro := seconds(sc.microSeconds)
	rows, in, hidden := sc.denseRows, sim.JobFeatures, nn.DefaultKernelSizes[0]
	drng := rand.New(rand.NewSource(r.seed))
	x := ag.New(rows, in)
	for i := range x.Data {
		x.Data[i] = drng.Float64()
	}
	w, b := ag.RandParam(drng, 0.5, in, hidden), ag.RandParam(drng, 0.5, 1, hidden)
	fwd := timeOp(micro, func() { ag.Dense(x, w, b, ag.DenseActReLU) })
	var bwd time.Duration
	passes := 0
	for start := time.Now(); time.Since(start) < micro || passes == 0; passes++ {
		loss := ag.Sum(ag.Dense(x, w, b, ag.DenseActReLU))
		t0 := time.Now()
		loss.Backward()
		bwd += time.Since(t0)
	}
	r.set("autograd.dense_fwd_us", us(fwd), fmt.Sprintf("ag.Dense %dx%d -> %d, ReLU", rows, in, hidden))
	r.set("autograd.dense_bwd_us", us(bwd)/float64(passes), "Backward of Sum(Dense), the forward pass untimed")
	r.set("autograd.dense_flops", float64(2*rows*in*hidden), "computed from the shape, forward only")
	adam := optim.NewAdam(pol.Params(), 1e-3)
	r.set("optim.step_us", us(timeOp(micro, adam.Step)), "Adam.Step on the kernel net's parameters")

	// The collector's inner loop, one call at a time.
	env := sim.NewEnv(simCfg, cfg.Goal)
	obs := make(sim.Obs, cfg.MaxObserve*sim.JobFeatures)
	mask := make([]bool, cfg.MaxObserve)
	mid := make(sim.Obs, len(obs)) // what the networks see half way through an episode
	envSteps := 0
	start := time.Now()
	for time.Since(start) < micro || envSteps == 0 {
		if err := env.ResetOnly(cfg.Trace.Window(0, cfg.SeqLen)); err != nil {
			return err
		}
		for done := false; !done; envSteps++ {
			env.ObserveInto(obs)
			env.MaskInto(mask)
			if envSteps == cfg.SeqLen/2 {
				copy(mid, obs)
			}
			_, done = env.StepOnly(0)
		}
	}
	r.set("sim.env_step_us", us(time.Since(start))/float64(envSteps), "ObserveInto + MaskInto + StepOnly")
	inferLadder(r, ppo.Inferer(), val, mid)

	// Where training left the policy: not gated, near-random this early.
	bsld, _, err := core.Evaluate(cfg.Trace, agent.Scheduler(), core.EvalConfig{
		Goal: cfg.Goal, NSeq: sc.evalSeqs, SeqLen: sc.seqLen, MaxObserve: cfg.MaxObserve, Seed: 1,
	})
	if err != nil {
		return err
	}
	r.set("core.eval_bsld", bsld, fmt.Sprintf("greedy policy on %d fixed windows", sc.evalSeqs))
	return r.writeTrace(log, map[string]string{"rl.collect": "core.epoch", "rl.buffer": "core.epoch", "rl.update": "core.epoch"})
}

// inferLadder times one forward pass of the actor and of the critic on obs.
func inferLadder(r *run, policy nn.Inferer, value nn.ValueInferer, obs []float64) {
	micro := seconds(r.sc.microSeconds)
	logits := make([]float64, r.sc.maxObserve)
	r.set("nn.infer_kernel_us", us(timeOp(micro, func() { policy.InferLogits(obs, 1, logits) })), "InferLogits, batch 1")
	var v [1]float64
	r.set("nn.infer_value_us", us(timeOp(micro, func() { value.InferValues(obs, 1, v[:]) })), "InferValues, batch 1")
}

// writeTrace links the recorded spans and writes them as the workload's
// Chrome trace.
func (r *run) writeTrace(log *spanLog, parents map[string]string) error {
	spans := log.take()
	link(spans, parents)
	path := filepath.Join(r.outDir, "trace_"+r.workload+".json")
	if err := writeChromeTrace(path, spans); err != nil {
		return err
	}
	r.printf("  wrote %s (%d spans)\n", path, min(len(spans), maxTraceSpans))
	return nil
}
