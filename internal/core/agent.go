// Package core is RLScheduler itself (§IV): the automated batch-job
// scheduling agent that couples the SchedGym environment, the kernel-based
// policy network, the value network and PPO, with trajectory filtering for
// high-variance traces. The only inputs are a job trace and an
// optimization goal — the agent learns the scheduling policy on its own.
package core

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"

	"rlsched/internal/job"
	"rlsched/internal/metrics"
	"rlsched/internal/nn"
	"rlsched/internal/policy"
	"rlsched/internal/rl"
	"rlsched/internal/sim"
	"rlsched/internal/trace"
)

// Config configures an RLScheduler agent. Zero fields take the paper's
// defaults (§V-A): 128 observable jobs, 256-job training trajectories, 100
// trajectories per epoch, kernel policy network, PPO lr 1e-3 with 80
// update iterations.
type Config struct {
	// Trace is the training workload.
	Trace *trace.Trace
	// Goal is the optimization target (reward per §IV-A).
	Goal metrics.Kind
	// PolicyKind selects the architecture: "kernel" (default), "mlp-v1",
	// "mlp-v2", "mlp-v3", or "lenet" (Table IV).
	PolicyKind string
	// KernelHidden overrides the kernel network's hidden sizes (paper
	// default 32/16/8); only meaningful with PolicyKind "kernel".
	KernelHidden []int
	// MaxObserve is MAX_OBSV_SIZE (default 128).
	MaxObserve int
	// Backfill enables EASY backfilling in the environment.
	Backfill bool
	// SeqLen is the trajectory length in jobs (default 256).
	SeqLen int
	// TrajPerEpoch is the number of trajectories per epoch (default 100).
	TrajPerEpoch int
	// Filter enables trajectory filtering (§IV-C); FilterPhase1 is the
	// number of epochs trained inside the restricted range R before the
	// filter opens up (default 30).
	Filter       bool
	FilterProbeN int // probe sample count for deriving R (default 100)
	FilterPhase1 int
	// Seed drives every stochastic component.
	Seed int64
	// PPO overrides PPO hyper-parameters.
	PPO rl.PPOConfig
	// Workers sets the number of goroutines collecting trajectories per
	// epoch (default GOMAXPROCS). Results are bit-identical for any
	// worker count: every trajectory owns a deterministic RNG and a
	// private environment, so only wall-clock changes.
	Workers int
}

func (c Config) withDefaults() (Config, error) {
	if c.Trace == nil {
		return c, fmt.Errorf("core: config needs a trace")
	}
	if c.PolicyKind == "" {
		c.PolicyKind = "kernel"
	}
	if c.MaxObserve == 0 {
		c.MaxObserve = sim.DefaultMaxObserve
	}
	if c.SeqLen == 0 {
		c.SeqLen = 256
	}
	if c.TrajPerEpoch == 0 {
		c.TrajPerEpoch = 100
	}
	if c.FilterProbeN == 0 {
		c.FilterProbeN = 100
	}
	if c.FilterPhase1 == 0 {
		c.FilterPhase1 = 30
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.SeqLen > c.Trace.Len() {
		return c, fmt.Errorf("core: SeqLen %d exceeds trace length %d", c.SeqLen, c.Trace.Len())
	}
	return c, nil
}

// EpochStats summarizes one training epoch.
type EpochStats struct {
	Epoch int
	// MeanMetric is the average goal metric over the epoch's
	// trajectories (the training-curve value of Figs 8–13).
	MeanMetric float64
	// MeanReward is the corresponding reward (sign-adjusted metric).
	MeanReward float64
	// Rejected counts sequences the trajectory filter discarded.
	Rejected int
	// Update carries the PPO losses/KL for the epoch.
	Update rl.UpdateStats
}

// Agent is a configured RLScheduler instance.
type Agent struct {
	cfg       Config
	simCfg    sim.Config
	collector *rl.Collector
	ppo       *rl.PPO
	buf       *rl.Buffer
	filter    *rl.Filter
	rng       *rand.Rand
	epoch     int
}

// New builds the agent: networks, PPO, environment, and (if enabled) the
// trajectory filter derived from an SJF probe of the trace (§IV-C).
func New(cfg Config) (*Agent, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var pol nn.PolicyNet
	if cfg.PolicyKind == "kernel" && cfg.KernelHidden != nil {
		pol = nn.NewKernelNet(rng, cfg.MaxObserve, sim.JobFeatures, cfg.KernelHidden)
	} else {
		pol, err = nn.NewPolicy(rng, cfg.PolicyKind, cfg.MaxObserve, sim.JobFeatures)
		if err != nil {
			return nil, err
		}
	}
	val := nn.NewValueNet(rng, cfg.MaxObserve, sim.JobFeatures, nil)
	ppoCfg := cfg.PPO.Defaults()
	simCfg := sim.Config{
		Processors: cfg.Trace.Processors,
		Backfill:   cfg.Backfill,
		MaxObserve: cfg.MaxObserve,
	}
	a := &Agent{
		cfg:    cfg,
		simCfg: simCfg,
		ppo:    rl.NewPPO(pol, val, ppoCfg),
		buf:    rl.NewBuffer(ppoCfg.Gamma, ppoCfg.Lambda),
		rng:    rng,
	}
	a.collector = rl.NewCollector(rl.CollectorConfig{
		Policy:  a.ppo.Policy,
		Value:   val,
		MaxObs:  cfg.MaxObserve,
		Feat:    sim.JobFeatures,
		Sim:     simCfg,
		Goal:    cfg.Goal,
		Workers: cfg.Workers,
	})
	if cfg.Filter {
		ps, err := rl.Probe(cfg.Trace, simCfg, cfg.Goal, cfg.FilterProbeN, cfg.SeqLen, rng)
		if err != nil {
			return nil, fmt.Errorf("core: filter probe: %w", err)
		}
		a.filter = rl.NewFilter(simCfg, cfg.Goal, ps)
	}
	return a, nil
}

// PPO exposes the underlying learner (read-mostly: stats, inference).
func (a *Agent) PPO() *rl.PPO { return a.ppo }

// sampleWindow draws a training sequence, honouring the trajectory filter
// during phase 1. A bounded number of rejections guards against a filter
// that matches nothing.
func (a *Agent) sampleWindow() ([]*job.Job, int) {
	rejected := 0
	for {
		win := a.cfg.Trace.SampleWindow(a.rng, a.cfg.SeqLen)
		if a.filter == nil || !a.filter.Enabled || a.filter.Accept(win) || rejected >= 50 {
			return win, rejected
		}
		rejected++
	}
}

// trajSeed derives a deterministic per-trajectory RNG seed so the training
// trajectory stream is identical regardless of worker count.
func (a *Agent) trajSeed(idx int) int64 {
	return a.cfg.Seed + int64(a.epoch)*1_000_003 + int64(idx)*7919
}

// TrainEpoch samples TrajPerEpoch trajectories with the current policy —
// collected in parallel through the graph-free inference fast path — then
// runs the PPO update (80 policy + 80 value iterations by default).
func (a *Agent) TrainEpoch() (EpochStats, error) {
	a.epoch++
	if a.filter != nil && a.filter.Enabled && a.epoch > a.cfg.FilterPhase1 {
		// Phase 2 (§IV-C): the converged agent now trains on all
		// sequences.
		a.filter.Disable()
	}
	a.buf.Reset()
	stats := EpochStats{Epoch: a.epoch}

	// Window sampling (and filtering) stays serial on the agent RNG so
	// the sampled workload stream is worker-count independent.
	wins := make([][]*job.Job, a.cfg.TrajPerEpoch)
	seeds := make([]int64, len(wins))
	for i := range wins {
		var rejected int
		wins[i], rejected = a.sampleWindow()
		stats.Rejected += rejected
		seeds[i] = a.trajSeed(i)
	}

	var metricSum, rewardSum float64
	for _, r := range a.collector.Collect(wins, seeds) {
		if err := a.buf.StoreRollout(r); err != nil {
			return stats, err
		}
		rewardSum += r.FinalReward
		metricSum += r.Metric
	}
	batch, err := a.buf.Get()
	if err != nil {
		return stats, err
	}
	stats.Update = a.ppo.Update(batch)
	stats.MeanMetric = metricSum / float64(a.cfg.TrajPerEpoch)
	stats.MeanReward = rewardSum / float64(a.cfg.TrajPerEpoch)
	return stats, nil
}

// Train runs epochs and returns the per-epoch training curve.
func (a *Agent) Train(epochs int) ([]EpochStats, error) {
	var curve []EpochStats
	for i := 0; i < epochs; i++ {
		s, err := a.TrainEpoch()
		if err != nil {
			return curve, err
		}
		curve = append(curve, s)
	}
	return curve, nil
}

// Scheduler returns the trained policy as a deterministic sim.Scheduler
// (argmax inference).
func (a *Agent) Scheduler() sim.Scheduler {
	ns, err := policy.NewNetScheduler(a.ppo.Policy)
	if err != nil {
		panic("core: agent policy is built for sim.JobFeatures: " + err.Error())
	}
	return ns
}

// Save writes the trained networks as a JSON snapshot.
func (a *Agent) Save(w io.Writer) error {
	return nn.Snap(a.ppo.Policy, a.ppo.Value, nil).Write(w)
}

// LoadScheduler reads a snapshot and returns the policy as a
// sim.Scheduler, for applying a trained model RL-X to another trace Y
// (Table VII).
func LoadScheduler(r io.Reader) (sim.Scheduler, error) {
	snap, err := nn.ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	pol, _, err := snap.Materialize(rand.New(rand.NewSource(0)))
	if err != nil {
		return nil, err
	}
	ns, err := policy.NewNetScheduler(pol)
	if err != nil {
		return nil, err // not ns: a nil *NetScheduler is a non-nil sim.Scheduler
	}
	return ns, nil
}
