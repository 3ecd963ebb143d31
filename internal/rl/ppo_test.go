package rl

import (
	"math"
	"math/rand"
	"testing"

	"rlsched/internal/metrics"
	"rlsched/internal/nn"
	"rlsched/internal/sim"
	"rlsched/internal/trace"
)

const (
	tMaxObs = 8
	tFeat   = sim.JobFeatures
)

func newTestPPO(t *testing.T, cfg PPOConfig) *PPO {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	p, err := nn.NewPolicy(rng, "kernel", tMaxObs, tFeat)
	if err != nil {
		t.Fatal(err)
	}
	v := nn.NewValueNet(rng, tMaxObs, tFeat, []int{16})
	return NewPPO(p, v, cfg)
}

func randObsMask(rng *rand.Rand, valid int) ([]float64, []bool) {
	obs := make([]float64, tMaxObs*tFeat)
	mask := make([]bool, tMaxObs)
	for i := 0; i < valid; i++ {
		for f := 0; f < tFeat; f++ {
			obs[i*tFeat+f] = rng.Float64()
		}
		mask[i] = true
	}
	return obs, mask
}

func TestConfigDefaults(t *testing.T) {
	c := PPOConfig{}.Defaults()
	if c.ClipRatio != 0.2 || c.PiLR != 1e-3 || c.TrainPiIters != 80 ||
		c.TrainVIters != 80 || c.Gamma != 1 || c.Lambda != 0.97 {
		t.Errorf("defaults wrong: %+v", c)
	}
	// Explicit values survive.
	c2 := PPOConfig{TrainPiIters: 5}.Defaults()
	if c2.TrainPiIters != 5 {
		t.Error("explicit values must not be overwritten")
	}
}

// selectAction samples an action from the masked policy for a single
// observation on the graph-free fast paths, returning the action, its
// log-probability and the critic's value estimate: one rollout step as the
// Collector takes it (§IV-B1: "during training, it is sampled ... to keep
// exploring").
func selectAction(p *PPO, rng *rand.Rand, obs []float64, mask []bool) (act int, logp, val float64) {
	maxObs, _ := p.Policy.Dims()
	logits := make([]float64, maxObs)
	p.Policy.InferLogits(obs, 1, logits)
	act, logp = sampleMasked(rng, logits, mask)
	var v [1]float64
	p.Value.InferValues(obs, 1, v[:])
	return act, logp, v[0]
}

func TestSelectActionRespectsMask(t *testing.T) {
	ppo := newTestPPO(t, PPOConfig{})
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		valid := 1 + rng.Intn(tMaxObs-1)
		obs, mask := randObsMask(rng, valid)
		act, logp, _ := selectAction(ppo, rng, obs, mask)
		if act >= valid {
			t.Fatalf("sampled masked action %d (valid < %d)", act, valid)
		}
		if logp > 0 || math.IsNaN(logp) {
			t.Fatalf("logp = %g invalid", logp)
		}
	}
}

func TestSelectActionExplores(t *testing.T) {
	ppo := newTestPPO(t, PPOConfig{})
	rng := rand.New(rand.NewSource(4))
	obs, mask := randObsMask(rng, tMaxObs)
	seen := map[int]bool{}
	for i := 0; i < 400; i++ {
		a, _, _ := selectAction(ppo, rng, obs, mask)
		seen[a] = true
	}
	if len(seen) < 2 {
		t.Error("sampling must explore more than one action")
	}
}

// TestUpdateImprovesPreferredAction trains PPO on a bandit-like problem:
// action 0 always gets a positive advantage, others negative. After the
// update, action 0's probability must rise.
func TestUpdateImprovesPreferredAction(t *testing.T) {
	ppo := newTestPPO(t, PPOConfig{TrainPiIters: 30, TrainVIters: 5, TargetKL: 100})
	rng := rand.New(rand.NewSource(5))
	b := NewBuffer(1, 1)
	obs, mask := randObsMask(rng, 4)
	for i := 0; i < 64; i++ {
		act, logp, val := selectAction(ppo, rng, obs, mask)
		r := -1.0
		if act == 0 {
			r = 1.0
		}
		b.Store(obs, mask, act, r, val, logp)
		b.FinishPath(0)
	}
	batch, err := b.Get()
	if err != nil {
		t.Fatal(err)
	}
	before := prob0(ppo, obs, mask)
	stats := ppo.Update(batch)
	after := prob0(ppo, obs, mask)
	if after <= before {
		t.Errorf("P(action 0) = %g -> %g, must increase", before, after)
	}
	if stats.PiIters == 0 {
		t.Error("policy must take at least one gradient step")
	}
	if math.IsNaN(stats.PolicyLoss) || math.IsNaN(stats.ValueLoss) {
		t.Error("losses must be finite")
	}
}

func prob0(ppo *PPO, obs []float64, mask []bool) float64 {
	// Estimate P(0) empirically by sampling.
	t := make([]float64, len(obs))
	copy(t, obs)
	rng := rand.New(rand.NewSource(42))
	hits := 0
	const n = 2000
	for i := 0; i < n; i++ {
		a, _, _ := selectAction(ppo, rng, t, mask)
		if a == 0 {
			hits++
		}
	}
	return float64(hits) / n
}

func TestUpdateKLEarlyStop(t *testing.T) {
	// A microscopic TargetKL must trigger the early stop quickly.
	ppo := newTestPPO(t, PPOConfig{TrainPiIters: 80, TrainVIters: 1, TargetKL: 1e-9, PiLR: 0.05})
	rng := rand.New(rand.NewSource(6))
	b := NewBuffer(1, 1)
	for i := 0; i < 32; i++ {
		obs, mask := randObsMask(rng, 4)
		act, logp, val := selectAction(ppo, rng, obs, mask)
		b.Store(obs, mask, act, rng.NormFloat64(), val, logp)
		b.FinishPath(0)
	}
	batch, _ := b.Get()
	stats := ppo.Update(batch)
	if !stats.EarlyStop {
		t.Error("KL early stop must fire with TargetKL=1e-9 and a hot lr")
	}
	if stats.PiIters >= 80 {
		t.Error("early stop must cut the iteration count")
	}
}

func TestValueLossDecreases(t *testing.T) {
	ppo := newTestPPO(t, PPOConfig{TrainPiIters: 1, TrainVIters: 40, VLR: 5e-3})
	rng := rand.New(rand.NewSource(7))
	b := NewBuffer(1, 1)
	for i := 0; i < 32; i++ {
		obs, mask := randObsMask(rng, 4)
		act, logp, val := selectAction(ppo, rng, obs, mask)
		b.Store(obs, mask, act, -3, val, logp) // constant return -3
		b.FinishPath(0)
	}
	batch, _ := b.Get()
	first := ppo.Update(batch)
	second := ppo.Update(batch)
	if second.ValueLoss >= first.ValueLoss {
		t.Errorf("value loss %g -> %g, must decrease on a constant target",
			first.ValueLoss, second.ValueLoss)
	}
}

func TestProbeAndFilter(t *testing.T) {
	tr := trace.Preset("PIK-IPLEX", 1500, 9)
	cfg := sim.Config{Processors: tr.Processors, MaxObserve: 32}
	rng := rand.New(rand.NewSource(8))
	ps, err := Probe(tr, cfg, metrics.BoundedSlowdown, 40, 64, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Values) != 40 {
		t.Fatalf("probe values = %d, want 40", len(ps.Values))
	}
	lo, hi := ps.Range()
	if lo != ps.Median || hi != 2*ps.Mean {
		t.Errorf("Range = (%g,%g), want (median=%g, 2·mean=%g)", lo, hi, ps.Median, 2*ps.Mean)
	}
	// The PIK-like trace is right-skewed: mean well above median (Fig 7).
	if ps.Mean <= ps.Median {
		t.Errorf("mean %g <= median %g: trace not skewed as Fig 7 requires", ps.Mean, ps.Median)
	}

	f := NewFilter(cfg, metrics.BoundedSlowdown, ps)
	accepted, rejected := 0, 0
	for i := 0; i < 60; i++ {
		win := tr.SampleWindow(rng, 64)
		if f.Accept(win) {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted == 0 {
		t.Error("filter must accept some sequences")
	}
	if rejected == 0 {
		t.Error("filter must reject the easy majority on a skewed trace")
	}
	f.Disable()
	if !f.Accept(tr.SampleWindow(rng, 64)) {
		t.Error("disabled filter must accept everything")
	}
}

func TestFilterRejectsBrokenWindows(t *testing.T) {
	cfg := sim.Config{Processors: 4, MaxObserve: 8}
	f := NewFilter(cfg, metrics.BoundedSlowdown, ProbeStats{Median: 0, Mean: 10})
	if f.Accept(nil) {
		t.Error("empty window must be rejected")
	}
}

// BenchmarkTrajectoryFilterProbe times the §IV-C filter's probe: 10
// 128-job SJF rollouts on the skewed PIK-IPLEX trace.
func BenchmarkTrajectoryFilterProbe(b *testing.B) {
	tr := trace.Preset("PIK-IPLEX", 2000, 42)
	cfg := sim.Config{Processors: tr.Processors, MaxObserve: 32}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Probe(tr, cfg, metrics.BoundedSlowdown, 10, 128, rng); err != nil {
			b.Fatal(err)
		}
	}
}
