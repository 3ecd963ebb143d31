package rl

import (
	"math/rand"

	ag "rlsched/internal/autograd"
	"rlsched/internal/job"
	"rlsched/internal/nn"
	"rlsched/internal/optim"
	"rlsched/internal/sim"
)

// DQN is the value-based baseline the paper considers and rejects
// (§II-B2: "policy gradient is proven to have strong convergence
// guarantees ... mostly due to the high variance of batch job scheduling,
// which may lead to oscillations in Q-learning"). It is implemented here
// so that claim is testable: the ablation-dqn experiment trains both
// learners on the same environment. The Q-network reuses the policy
// architectures — one output per queue slot, read as Q(s, a) instead of a
// logit.
type DQN struct {
	Q      nn.PolicyNet
	Target nn.PolicyNet
	cfg    DQNConfig
	opt    *optim.Adam
	replay *Replay
	obsDim int
	maxObs int
	steps  int
	eps    float64
}

// DQNConfig holds Q-learning hyper-parameters; zero fields take defaults.
type DQNConfig struct {
	LR           float64 // Adam learning rate, default 1e-3
	Gamma        float64 // discount, default 1 (terminal reward)
	EpsStart     float64 // initial exploration, default 1
	EpsMin       float64 // floor, default 0.05
	EpsDecay     float64 // multiplicative decay per training step, default 0.995
	BatchSize    int     // replay batch, default 64
	ReplayCap    int     // replay capacity, default 20000
	TargetEvery  int     // steps between target syncs, default 200
	TrainEvery   int     // environment steps per gradient step, default 4
	WarmupBuffer int     // transitions before learning starts, default 256
}

func (c DQNConfig) defaults() DQNConfig {
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.Gamma == 0 {
		c.Gamma = 1
	}
	if c.EpsStart == 0 {
		c.EpsStart = 1
	}
	if c.EpsMin == 0 {
		c.EpsMin = 0.05
	}
	if c.EpsDecay == 0 {
		c.EpsDecay = 0.995
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.ReplayCap == 0 {
		c.ReplayCap = 20000
	}
	if c.TargetEvery == 0 {
		c.TargetEvery = 200
	}
	if c.TrainEvery == 0 {
		c.TrainEvery = 4
	}
	if c.WarmupBuffer == 0 {
		c.WarmupBuffer = 256
	}
	return c
}

// Transition is one replayed experience.
type Transition struct {
	Obs      []float64
	Mask     []bool
	Act      int
	Rew      float64
	NextObs  []float64
	NextMask []bool
	Done     bool
}

// Replay is a fixed-capacity ring buffer of transitions.
type Replay struct {
	buf  []Transition
	next int
	full bool
}

// NewReplay returns a replay buffer with the given capacity.
func NewReplay(capacity int) *Replay {
	if capacity <= 0 {
		capacity = 1
	}
	return &Replay{buf: make([]Transition, 0, capacity)}
}

// Add stores a transition, evicting the oldest when full.
func (r *Replay) Add(t Transition) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, t)
		return
	}
	r.full = true
	r.buf[r.next] = t
	r.next = (r.next + 1) % cap(r.buf)
}

// Len returns the number of stored transitions.
func (r *Replay) Len() int { return len(r.buf) }

// Sample draws n transitions uniformly with replacement.
func (r *Replay) Sample(rng *rand.Rand, n int) []Transition {
	out := make([]Transition, n)
	for i := range out {
		out[i] = r.buf[rng.Intn(len(r.buf))]
	}
	return out
}

// NewDQN builds the learner; target starts as a copy of Q.
func NewDQN(q, target nn.PolicyNet, cfg DQNConfig) (*DQN, error) {
	cfg = cfg.defaults()
	if err := nn.SyncParams(target, q); err != nil {
		return nil, err
	}
	maxObs, feat := q.Dims()
	return &DQN{
		Q:      q,
		Target: target,
		cfg:    cfg,
		opt:    optim.NewAdam(q.Params(), cfg.LR),
		replay: NewReplay(cfg.ReplayCap),
		obsDim: maxObs * feat,
		maxObs: maxObs,
		eps:    cfg.EpsStart,
	}, nil
}

// Act selects an action epsilon-greedily over the masked Q-values.
func (d *DQN) Act(rng *rand.Rand, obs []float64, mask []bool) int {
	valid := validSlots(mask)
	if len(valid) == 0 {
		return 0
	}
	if rng.Float64() < d.eps {
		return valid[rng.Intn(len(valid))]
	}
	return d.Best(obs, mask)
}

// Best returns the greedy action (inference mode, graph-free).
func (d *DQN) Best(obs []float64, mask []bool) int {
	q := make([]float64, d.maxObs)
	d.Q.InferLogits(obs, 1, q)
	return argmaxValid(q, mask)
}

func validSlots(mask []bool) []int {
	var out []int
	for i, ok := range mask {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// Observe records a transition and, on schedule, runs a gradient step and
// target sync. It returns the TD loss of the step (0 when no step ran).
func (d *DQN) Observe(rng *rand.Rand, t Transition) float64 {
	d.replay.Add(t)
	d.steps++
	loss := 0.0
	if d.replay.Len() >= d.cfg.WarmupBuffer && d.steps%d.cfg.TrainEvery == 0 {
		loss = d.trainStep(rng)
		d.eps *= d.cfg.EpsDecay
		if d.eps < d.cfg.EpsMin {
			d.eps = d.cfg.EpsMin
		}
	}
	if d.steps%d.cfg.TargetEvery == 0 {
		if err := nn.SyncParams(d.Target, d.Q); err != nil {
			panic("rl: target sync: " + err.Error())
		}
	}
	return loss
}

// Episode runs env on seq under the learner, observing each transition as
// it happens, and returns the summed TD loss. Observations and masks go
// into fresh slices at every decision, the terminal one too: the replay
// buffer keeps them.
func (d *DQN) Episode(rng *rand.Rand, env *sim.Env, seq []*job.Job) (float64, error) {
	if err := env.ResetOnly(seq); err != nil {
		return 0, err
	}
	state := func() (sim.Obs, []bool) {
		obs, mask := make(sim.Obs, env.MaxObserve()*sim.JobFeatures), make([]bool, env.MaxObserve())
		env.ObserveInto(obs)
		env.MaskInto(mask)
		return obs, mask
	}
	obs, mask := state()
	loss := 0.0
	for {
		act := d.Act(rng, obs, mask)
		rew, done := env.StepOnly(act)
		nextObs, nextMask := state()
		loss += d.Observe(rng, Transition{
			Obs: obs, Mask: mask, Act: act, Rew: rew,
			NextObs: nextObs, NextMask: nextMask, Done: done,
		})
		if done {
			return loss, nil
		}
		obs, mask = nextObs, nextMask
	}
}

// trainStep samples a batch and minimizes the TD error
// (Q(s,a) − [r + γ·max_a' Q_target(s',a')·(1−done)])².
func (d *DQN) trainStep(rng *rand.Rand) float64 {
	batch := d.replay.Sample(rng, d.cfg.BatchSize)
	n := len(batch)
	flat := make([]float64, n*d.obsDim)
	nextFlat := make([]float64, n*d.obsDim)
	acts := make([]int, n)
	for i, t := range batch {
		copy(flat[i*d.obsDim:], t.Obs)
		copy(nextFlat[i*d.obsDim:], t.NextObs)
		acts[i] = t.Act
	}
	// Bootstrapped targets from the frozen network: one batched graph-free
	// forward pass (no gradient flows through targets by construction).
	nextQ := make([]float64, n*d.maxObs)
	d.Target.InferLogits(nextFlat, n, nextQ)
	targets := make([]float64, n)
	for i, t := range batch {
		y := t.Rew
		if !t.Done {
			best := argmaxValid(nextQ[i*d.maxObs:(i+1)*d.maxObs], t.NextMask)
			y += d.cfg.Gamma * nextQ[i*d.maxObs+best]
		}
		targets[i] = y
	}
	q := ag.GatherRows(d.Q.Logits(ag.FromSlice(flat, n, d.obsDim)), acts)
	loss := ag.Mean(ag.Square(ag.Sub(q, ag.FromSlice(targets, n, 1))))
	d.opt.ZeroGrad()
	loss.Backward()
	optim.ClipGradNorm(d.Q.Params(), 10)
	d.opt.Step()
	return loss.Item()
}
