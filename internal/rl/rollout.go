package rl

import (
	"math"
	"math/rand"
	"sync"

	"rlsched/internal/job"
	"rlsched/internal/metrics"
	"rlsched/internal/nn"
	"rlsched/internal/sim"
)

// This file is the parallel rollout engine: trajectory collection for
// training runs on the same graph-free nn.Inferer fast path the serving
// daemon uses, so PPO/DQN stop paying autograd tax on action selection.
// A Collector owns a pool of private sim.Env workers; each trajectory is
// driven by its own deterministic RNG, so the collected stream is
// bit-identical for any worker count — parallelism changes wall-clock only.

// CollectorConfig wires a Collector.
type CollectorConfig struct {
	// Policy is the graph-free actor fast path (the policy network itself).
	Policy nn.Inferer
	// Value is the graph-free critic. Nil is allowed (e.g. value-free
	// learners); collected Vals are then zero.
	Value nn.ValueInferer
	// MaxObs and Feat are the observation dimensions the networks expect.
	MaxObs, Feat int
	// Sim configures the private environment of every worker.
	Sim sim.Config
	// Goal is the metric the environments reward and report.
	Goal metrics.Kind
	// Workers is the number of collection goroutines (<= 1 means serial).
	Workers int
}

// Rollout is one collected trajectory in training layout: observations and
// masks are stored flat (row i at [i·dim, (i+1)·dim)) so the PPO update
// wraps them in a batch tensor without copying.
type Rollout struct {
	// Obs is Steps×(MaxObs·Feat) flattened observations.
	Obs []float64
	// Masks is Steps×MaxObs flattened action-validity flags.
	Masks []bool
	Acts  []int
	Rews  []float64
	Vals  []float64
	Logps []float64
	// FinalReward is the terminal reward of the trajectory.
	FinalReward float64
	// Metric is the goal metric of the finished sequence.
	Metric float64
	// Err reports a failed rollout (the rest of the fields are partial).
	Err error
}

// Steps returns the trajectory length.
func (r *Rollout) Steps() int { return len(r.Acts) }

// Collector collects training trajectories through the shared inference
// fast path. It is not safe for concurrent Collect calls, and no training
// update may run while a Collect is in flight (workers read the network
// weights without locks, exactly like the serving daemon).
type Collector struct {
	cfg    CollectorConfig
	obsDim int
	envs   []*sim.Env
	logits [][]float64 // per-worker scratch
}

// NewCollector builds a collector. Environments are created lazily, one
// per worker.
func NewCollector(cfg CollectorConfig) *Collector {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	return &Collector{cfg: cfg, obsDim: cfg.MaxObs * cfg.Feat}
}

// env returns the i-th worker's private environment (lazily grown).
func (c *Collector) env(i int) *sim.Env {
	for len(c.envs) <= i {
		c.envs = append(c.envs, sim.NewEnv(c.cfg.Sim, c.cfg.Goal))
		c.logits = append(c.logits, make([]float64, c.cfg.MaxObs))
	}
	return c.envs[i]
}

// Collect rolls one trajectory per window, trajectory i seeded by seeds[i],
// and returns them in input order. Rollout buffers are freshly allocated
// per call — callers retain them (the PPO update consumes the epoch's
// batch long after collection).
func (c *Collector) Collect(wins [][]*job.Job, seeds []int64) []Rollout {
	if len(seeds) != len(wins) {
		panic("rl: Collect needs one seed per window")
	}
	out := make([]Rollout, len(wins))
	workers := c.cfg.Workers
	if workers > len(wins) {
		workers = len(wins)
	}
	if workers <= 1 {
		env := c.env(0)
		for i, win := range wins {
			c.collectOne(env, c.logits[0], rand.New(rand.NewSource(seeds[i])), win, &out[i])
		}
		return out
	}
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		env, logits := c.env(w), c.logits[w]
		wg.Add(1)
		go func(env *sim.Env, logits []float64) {
			defer wg.Done()
			for i := range idxCh {
				c.collectOne(env, logits, rand.New(rand.NewSource(seeds[i])), wins[i], &out[i])
			}
		}(env, logits)
	}
	for i := range wins {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	return out
}

// collectOne drives a single trajectory. Observations and masks are built
// directly into the rollout's flat backing arrays (sim.BuildObsInto under
// Env.ObserveInto), so the loop allocates only when those arrays grow.
func (c *Collector) collectOne(env *sim.Env, logits []float64, rng *rand.Rand, win []*job.Job, r *Rollout) {
	if err := env.ResetOnly(win); err != nil {
		r.Err = err
		return
	}
	var val [1]float64
	for {
		oOff, mOff := len(r.Obs), len(r.Masks)
		r.Obs = append(r.Obs, make([]float64, c.obsDim)...)
		r.Masks = append(r.Masks, make([]bool, c.cfg.MaxObs)...)
		obs := r.Obs[oOff : oOff+c.obsDim]
		mask := r.Masks[mOff : mOff+c.cfg.MaxObs]
		env.ObserveInto(obs)
		env.MaskInto(mask)

		c.cfg.Policy.InferLogits(obs, 1, logits)
		act, logp := sampleMasked(rng, logits, mask)
		if c.cfg.Value != nil {
			c.cfg.Value.InferValues(obs, 1, val[:])
		}

		rew, done := env.StepOnly(act)
		r.Acts = append(r.Acts, act)
		r.Rews = append(r.Rews, rew)
		r.Vals = append(r.Vals, val[0])
		r.Logps = append(r.Logps, logp)
		if done {
			r.FinalReward = rew
			break
		}
	}
	r.Metric = metrics.Value(c.cfg.Goal, env.Result())
}

// maskAndLogSoftmax pushes invalid slots toward -inf and converts the
// logits to log-probabilities in place — the raw-slice twin of
// LogSoftmax(maskedLogits(...)) used by the graph-based update.
func maskAndLogSoftmax(logits []float64, mask []bool) {
	max := math.Inf(-1)
	for j := range logits {
		if j < len(mask) && !mask[j] {
			logits[j] += maskPenalty
		}
		if logits[j] > max {
			max = logits[j]
		}
	}
	var lse float64
	for _, v := range logits {
		lse += math.Exp(v - max)
	}
	lse = math.Log(lse) + max
	for j := range logits {
		logits[j] -= lse
	}
}

// sampleMasked draws an action from the masked categorical distribution
// defined by logits, mutating logits into log-probabilities, and returns
// the action with its log-probability: accumulate probabilities in slot
// order, with an argmax-over-valid fallback for the numeric tail.
func sampleMasked(rng *rand.Rand, logits []float64, mask []bool) (act int, logp float64) {
	maskAndLogSoftmax(logits, mask)
	u := rng.Float64()
	acc := 0.0
	act = -1
	for j := range logits {
		acc += math.Exp(logits[j])
		if u <= acc {
			act = j
			break
		}
	}
	if act < 0 { // numeric tail: fall back to the best valid slot
		act = argmaxValid(logits, mask)
	}
	return act, logits[act]
}
