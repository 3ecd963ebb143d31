package rl

import (
	ag "rlsched/internal/autograd"
	"rlsched/internal/nn"
	"rlsched/internal/optim"
)

// maskPenalty is added to the logits of invalid (padding) action slots so
// their probability vanishes — the paper masks illegal scheduling actions
// the same way (§V-F).
const maskPenalty = -1e9

// PPOConfig holds the PPO hyper-parameters. Defaults follow the paper's
// setup (§V-A): learning rate 1e-3 and 80 policy/value update iterations
// per epoch, with SpinningUp's standard clip ratio and KL early stop.
type PPOConfig struct {
	ClipRatio    float64 // surrogate clip, default 0.2
	PiLR         float64 // policy Adam lr, default 1e-3
	VLR          float64 // value Adam lr, default 1e-3
	TrainPiIters int     // policy updates per epoch, default 80
	TrainVIters  int     // value updates per epoch, default 80
	TargetKL     float64 // early stop when KL > 1.5×TargetKL, default 0.01
	Gamma        float64 // discount, default 1 (single terminal reward)
	Lambda       float64 // GAE lambda, default 0.97
	MaxGradNorm  float64 // global grad-norm clip, default 5
}

// Defaults fills zero fields with the paper/SpinningUp defaults.
func (c PPOConfig) Defaults() PPOConfig {
	if c.ClipRatio == 0 {
		c.ClipRatio = 0.2
	}
	if c.PiLR == 0 {
		c.PiLR = 1e-3
	}
	if c.VLR == 0 {
		c.VLR = 1e-3
	}
	if c.TrainPiIters == 0 {
		c.TrainPiIters = 80
	}
	if c.TrainVIters == 0 {
		c.TrainVIters = 80
	}
	if c.TargetKL == 0 {
		c.TargetKL = 0.01
	}
	if c.Gamma == 0 {
		c.Gamma = 1
	}
	if c.Lambda == 0 {
		c.Lambda = 0.97
	}
	if c.MaxGradNorm == 0 {
		c.MaxGradNorm = 5
	}
	return c
}

// PPO couples a policy network and a value network with their optimizers
// (the actor–critic model of §IV-B). The autograd graph is built only
// inside Update; rollouts (Collector) select actions on the policy's
// graph-free inference fast path shared with the serving daemon.
type PPO struct {
	Policy nn.PolicyNet
	Value  *nn.ValueNet
	cfg    PPOConfig
	piOpt  *optim.Adam
	vOpt   *optim.Adam
	obsDim int
}

// NewPPO wires the agent together.
func NewPPO(policy nn.PolicyNet, value *nn.ValueNet, cfg PPOConfig) *PPO {
	cfg = cfg.Defaults()
	maxObs, feat := policy.Dims()
	return &PPO{
		Policy: policy,
		Value:  value,
		cfg:    cfg,
		piOpt:  optim.NewAdam(policy.Params(), cfg.PiLR),
		vOpt:   optim.NewAdam(value.Params(), cfg.VLR),
		obsDim: maxObs * feat,
	}
}

// Inferer returns the policy's graph-free fast path (shared with rollout
// collection and serving).
func (p *PPO) Inferer() nn.Inferer { return p.Policy }

// maskedLogProbs runs the policy on a batch, pushes invalid slots to -inf
// and log-softmaxes row-wise, all through the fused masking op. obs is
// [B, obsDim]; masks is B×maxObs flat validity.
func (p *PPO) maskedLogProbs(obs *ag.Tensor, masks []bool) *ag.Tensor {
	return ag.MaskedLogSoftmax(p.Policy.Logits(obs), masks, maskPenalty)
}

// argmaxValid returns the highest-scoring valid slot (the greedy action
// of "during testing, it is directly used to select the job with the
// highest probability"), or 0 when no slot is valid.
func argmaxValid(scores []float64, mask []bool) int {
	best := -1
	for j, v := range scores {
		if j < len(mask) && !mask[j] {
			continue
		}
		if best < 0 || v > scores[best] {
			best = j
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// UpdateStats reports one PPO update.
type UpdateStats struct {
	PolicyLoss float64
	ValueLoss  float64
	KL         float64
	Entropy    float64
	PiIters    int
	EarlyStop  bool
}

// Update runs the clipped-surrogate policy updates (with KL early
// stopping) followed by the value-function regression, exactly the
// two-phase per-epoch schedule of §V-A. The batch's flat observation array
// wraps into one [N, obsDim] tensor, so every update iteration is a single
// batched forward/backward pass — one MatMul per layer, not N.
func (p *PPO) Update(batch Batch) UpdateStats {
	n := batch.N
	obs := ag.FromSlice(batch.Obs, n, p.obsDim)
	advT := ag.FromSlice(batch.Advs, n, 1)
	oldLogpT := ag.FromSlice(batch.Logps, n, 1)
	retT := ag.FromSlice(batch.Rets, n, 1)

	var stats UpdateStats
	// --- policy ---
	for it := 0; it < p.cfg.TrainPiIters; it++ {
		logProbs := p.maskedLogProbs(obs, batch.Masks)
		logp := ag.GatherRows(logProbs, batch.Acts)
		ratio := ag.Exp(ag.Sub(logp, oldLogpT))
		surr1 := ag.Mul(ratio, advT)
		surr2 := ag.Mul(ag.Clamp(ratio, 1-p.cfg.ClipRatio, 1+p.cfg.ClipRatio), advT)
		objective := ag.Mean(ag.Minimum(surr1, surr2))
		loss := ag.Scale(objective, -1)

		// Entropy of the masked distribution, averaged per row:
		// H = −Σ p·log p. The loss carries no entropy bonus, so it is pure
		// reporting, computed without touching the graph.
		var s float64
		for _, lp := range logProbs.Data {
			s += ag.ExpOrZero(lp) * lp
		}
		entropy := -s / float64(n)

		kl := mean(sub(batch.Logps, logp.Data))
		stats.KL = kl
		stats.Entropy = entropy
		stats.PolicyLoss = loss.Item()
		if it > 0 && kl > 1.5*p.cfg.TargetKL {
			stats.EarlyStop = true
			break
		}
		p.piOpt.ZeroGrad()
		loss.Backward()
		optim.ClipGradNorm(p.Policy.Params(), p.cfg.MaxGradNorm)
		p.piOpt.Step()
		stats.PiIters = it + 1
	}

	// --- value ---
	for it := 0; it < p.cfg.TrainVIters; it++ {
		v := p.Value.Value(obs)
		loss := ag.Mean(ag.Square(ag.Sub(v, retT)))
		stats.ValueLoss = loss.Item()
		p.vOpt.ZeroGrad()
		loss.Backward()
		optim.ClipGradNorm(p.Value.Params(), p.cfg.MaxGradNorm)
		p.vOpt.Step()
	}
	return stats
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sub(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}
