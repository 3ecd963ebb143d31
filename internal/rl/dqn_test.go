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

func newTestDQN(t *testing.T, cfg DQNConfig) *DQN {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	q := nn.NewKernelNet(rng, tMaxObs, tFeat, []int{16, 8})
	target := nn.NewKernelNet(rng, tMaxObs, tFeat, []int{16, 8})
	d, err := NewDQN(q, target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestReplayRingBuffer(t *testing.T) {
	r := NewReplay(3)
	for i := 0; i < 5; i++ {
		r.Add(Transition{Act: i})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want capacity 3", r.Len())
	}
	// Oldest entries evicted: remaining acts are {2,3,4} in some slots.
	seen := map[int]bool{}
	for _, tr := range r.buf {
		seen[tr.Act] = true
	}
	for _, want := range []int{2, 3, 4} {
		if !seen[want] {
			t.Errorf("act %d evicted too early, have %v", want, seen)
		}
	}
	rng := rand.New(rand.NewSource(2))
	s := r.Sample(rng, 10)
	if len(s) != 10 {
		t.Fatalf("Sample returned %d, want 10 (with replacement)", len(s))
	}
}

func TestReplayZeroCapacity(t *testing.T) {
	r := NewReplay(0)
	r.Add(Transition{Act: 9})
	if r.Len() != 1 {
		t.Error("degenerate capacity must clamp to 1")
	}
}

func TestDQNTargetStartsAsCopy(t *testing.T) {
	d := newTestDQN(t, DQNConfig{})
	rng := rand.New(rand.NewSource(3))
	obs, mask := randObsMask(rng, 4)
	if d.Best(obs, mask) != argmaxOfTarget(d, obs, mask) {
		t.Error("target must start identical to Q")
	}
}

func argmaxOfTarget(d *DQN, obs []float64, mask []bool) int {
	// Swap networks temporarily via a second DQN view.
	tmp := &DQN{Q: d.Target, obsDim: d.obsDim, maxObs: d.maxObs}
	return tmp.Best(obs, mask)
}

func TestDQNActRespectsMask(t *testing.T) {
	d := newTestDQN(t, DQNConfig{})
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		valid := 1 + rng.Intn(tMaxObs-1)
		obs, mask := randObsMask(rng, valid)
		if a := d.Act(rng, obs, mask); a >= valid {
			t.Fatalf("epsilon-greedy chose masked slot %d (valid < %d)", a, valid)
		}
	}
}

func TestDQNEpsilonDecays(t *testing.T) {
	d := newTestDQN(t, DQNConfig{WarmupBuffer: 4, TrainEvery: 1, BatchSize: 4, EpsDecay: 0.5, EpsMin: 0.1})
	rng := rand.New(rand.NewSource(5))
	obs, mask := randObsMask(rng, 4)
	for i := 0; i < 20; i++ {
		d.Observe(rng, Transition{Obs: obs, Mask: mask, Act: 0, Rew: 0, NextObs: obs, NextMask: mask, Done: true})
	}
	if d.eps != 0.1 {
		t.Errorf("epsilon = %g, want decayed to floor 0.1", d.eps)
	}
}

// TestDQNLearnsBandit: a one-step task where action 0 pays +1 and every
// other action pays -1. After training, the greedy policy must prefer 0.
func TestDQNLearnsBandit(t *testing.T) {
	d := newTestDQN(t, DQNConfig{
		LR: 5e-3, WarmupBuffer: 32, TrainEvery: 1, BatchSize: 32,
		EpsDecay: 0.99, TargetEvery: 50,
	})
	rng := rand.New(rand.NewSource(6))
	obs, mask := randObsMask(rng, 4)
	for i := 0; i < 600; i++ {
		act := d.Act(rng, obs, mask)
		r := -1.0
		if act == 0 {
			r = 1.0
		}
		d.Observe(rng, Transition{Obs: obs, Mask: mask, Act: act, Rew: r, NextObs: obs, NextMask: mask, Done: true})
	}
	if got := d.Best(obs, mask); got != 0 {
		t.Errorf("greedy action = %d, want 0 after bandit training", got)
	}
}

func TestDQNTDLossFinite(t *testing.T) {
	d := newTestDQN(t, DQNConfig{WarmupBuffer: 8, TrainEvery: 1, BatchSize: 8})
	rng := rand.New(rand.NewSource(7))
	var lastLoss float64
	for i := 0; i < 50; i++ {
		obs, mask := randObsMask(rng, 6)
		next, nextMask := randObsMask(rng, 6)
		l := d.Observe(rng, Transition{
			Obs: obs, Mask: mask, Act: rng.Intn(6), Rew: rng.NormFloat64(),
			NextObs: next, NextMask: nextMask, Done: i%4 == 0,
		})
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatal("TD loss must stay finite")
		}
		lastLoss = l
	}
	if lastLoss == 0 {
		t.Error("training steps should have run after warmup")
	}
}

// TestDQNOnSchedulingEnv runs the Q-learner end-to-end on SchedGym — the
// ablation-dqn path — checking every job gets scheduled and learning
// stays finite on the real sparse-terminal-reward signal.
func TestDQNOnSchedulingEnv(t *testing.T) {
	tr := trace.Preset("Lublin-1", 200, 11)
	env := sim.NewEnv(sim.Config{Processors: tr.Processors, MaxObserve: tMaxObs}, metrics.BoundedSlowdown)
	d := newTestDQN(t, DQNConfig{WarmupBuffer: 16, TrainEvery: 2, BatchSize: 16})
	rng := rand.New(rand.NewSource(12))
	for ep := 0; ep < 3; ep++ {
		loss, err := d.Episode(rng, env, tr.SampleWindow(rng, 32))
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(loss) {
			t.Fatal("NaN TD loss on the scheduling env")
		}
		for _, j := range env.Result().Jobs {
			if !j.Started() {
				t.Fatal("DQN-driven episode left a job unscheduled")
			}
		}
	}
}

func TestDQNConfigDefaults(t *testing.T) {
	c := DQNConfig{}.defaults()
	if c.LR != 1e-3 || c.Gamma != 1 || c.BatchSize != 64 || c.TargetEvery != 200 {
		t.Errorf("defaults wrong: %+v", c)
	}
	if c2 := (DQNConfig{BatchSize: 8}).defaults(); c2.BatchSize != 8 {
		t.Error("explicit values must survive")
	}
}
