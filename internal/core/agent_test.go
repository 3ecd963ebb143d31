package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"rlsched/internal/metrics"
	"rlsched/internal/nn"
	"rlsched/internal/rl"
	"rlsched/internal/sched"
	"rlsched/internal/sim"
	"rlsched/internal/trace"
)

// tinyConfig returns a config small enough for unit tests: short
// trajectories, few PPO iterations, small observation window.
func tinyConfig(tr *trace.Trace, goal metrics.Kind) Config {
	return Config{
		Trace:        tr,
		Goal:         goal,
		MaxObserve:   16,
		SeqLen:       24,
		TrajPerEpoch: 3,
		Seed:         7,
		PPO:          rl.PPOConfig{TrainPiIters: 4, TrainVIters: 4},
	}
}

func TestNewDefaultsAndValidation(t *testing.T) {
	tr := trace.Preset("Lublin-1", 400, 1)
	a, err := New(Config{Trace: tr, Goal: metrics.BoundedSlowdown, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := a.cfg
	if cfg.PolicyKind != "kernel" || cfg.MaxObserve != 128 ||
		cfg.SeqLen != 256 || cfg.TrajPerEpoch != 100 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	if _, err := New(Config{Goal: metrics.BoundedSlowdown}); err == nil {
		t.Error("nil trace must be rejected")
	}
	small := trace.Preset("Lublin-1", 50, 1)
	if _, err := New(Config{Trace: small, SeqLen: 100}); err == nil {
		t.Error("SeqLen > trace length must be rejected")
	}
	if _, err := New(Config{Trace: tr, PolicyKind: "bogus"}); err == nil {
		t.Error("unknown policy kind must be rejected")
	}
}

func TestKernelHiddenOverride(t *testing.T) {
	tr := trace.Preset("Lublin-1", 300, 9)
	cfg := tinyConfig(tr, metrics.BoundedSlowdown)
	cfg.KernelHidden = []int{8, 4}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	small := countParams(a)
	cfg2 := tinyConfig(tr, metrics.BoundedSlowdown)
	b, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if small >= countParams(b) {
		t.Errorf("8/4 kernel (%d params) must be smaller than the default (%d)", small, countParams(b))
	}
	if _, err := a.TrainEpoch(); err != nil {
		t.Fatal(err)
	}
}

func countParams(a *Agent) int {
	n := 0
	for _, p := range a.PPO().Policy.Params() {
		n += p.Size()
	}
	return n
}

func TestTrainEpochProducesStats(t *testing.T) {
	tr := trace.Preset("Lublin-2", 300, 2)
	a, err := New(tinyConfig(tr, metrics.BoundedSlowdown))
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.TrainEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if s.Epoch != 1 {
		t.Errorf("epoch = %d, want 1", s.Epoch)
	}
	if s.MeanMetric < 1 {
		t.Errorf("mean bsld = %g, must be >= 1", s.MeanMetric)
	}
	if math.Abs(s.MeanReward+s.MeanMetric) > 1e-9 {
		t.Errorf("reward %g must be -metric %g for bsld", s.MeanReward, s.MeanMetric)
	}
	if s.Update.PiIters == 0 {
		t.Error("PPO must run policy iterations")
	}
	if math.IsNaN(s.Update.PolicyLoss) || math.IsNaN(s.Update.ValueLoss) {
		t.Error("losses must be finite")
	}
}

func TestTrainCurveLength(t *testing.T) {
	tr := trace.Preset("Lublin-1", 300, 3)
	a, err := New(tinyConfig(tr, metrics.Utilization))
	if err != nil {
		t.Fatal(err)
	}
	curve, err := a.Train(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 3 {
		t.Fatalf("curve length = %d, want 3", len(curve))
	}
	for i, s := range curve {
		if s.Epoch != i+1 {
			t.Errorf("curve[%d].Epoch = %d", i, s.Epoch)
		}
		if s.MeanMetric <= 0 || s.MeanMetric > 1 {
			t.Errorf("utilization %g out of (0,1]", s.MeanMetric)
		}
	}
}

// TestLearningImprovesOverRandomInit is the core end-to-end check: a few
// training epochs on a congested workload must improve the scheduling
// metric the agent is rewarded for.
func TestLearningImprovesOverRandomInit(t *testing.T) {
	tr := trace.Preset("Lublin-2", 500, 4)
	cfg := tinyConfig(tr, metrics.BoundedSlowdown)
	cfg.TrajPerEpoch = 6
	cfg.SeqLen = 32
	cfg.PPO = rl.PPOConfig{TrainPiIters: 15, TrainVIters: 10}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eval := EvalConfig{Goal: metrics.BoundedSlowdown, NSeq: 4, SeqLen: 64, Seed: 99, MaxObserve: 16}
	before, _, err := Evaluate(tr, a.Scheduler(), eval)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Train(8); err != nil {
		t.Fatal(err)
	}
	after, _, err := Evaluate(tr, a.Scheduler(), eval)
	if err != nil {
		t.Fatal(err)
	}
	if after > before*1.05 {
		t.Errorf("training made things worse: bsld %.2f -> %.2f", before, after)
	}
	t.Logf("bsld before=%.2f after=%.2f", before, after)
}

func TestFilterIntegration(t *testing.T) {
	tr := trace.Preset("PIK-IPLEX", 800, 5)
	cfg := tinyConfig(tr, metrics.BoundedSlowdown)
	cfg.Filter = true
	cfg.FilterProbeN = 30
	cfg.FilterPhase1 = 2
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.filter == nil || !a.filter.Enabled {
		t.Fatal("filter must be armed")
	}
	if _, err := a.Train(3); err != nil {
		t.Fatal(err)
	}
	// After FilterPhase1 epochs the filter must have opened up.
	if a.filter.Enabled {
		t.Error("filter must be disabled in phase 2")
	}
}

func TestSaveLoadScheduler(t *testing.T) {
	tr := trace.Preset("HPC2N", 300, 6)
	a, err := New(tinyConfig(tr, metrics.BoundedSlowdown))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.TrainEpoch(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadScheduler(&buf)
	if err != nil {
		t.Fatal(err)
	}
	eval := EvalConfig{Goal: metrics.BoundedSlowdown, NSeq: 2, SeqLen: 50, Seed: 5, MaxObserve: 16}
	orig, _, err := Evaluate(tr, a.Scheduler(), eval)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Evaluate(tr, loaded, eval)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(orig-got) > 1e-9 {
		t.Errorf("loaded model evaluates to %g, original %g", got, orig)
	}
	if _, err := LoadScheduler(bytes.NewBufferString("{")); err == nil {
		t.Error("broken snapshot must fail to load")
	}
}

// TestLoadSchedulerRejectsFeatureMismatch: a well-formed snapshot of a
// network built for another per-job width must fail to load, not panic in
// the first Pick.
func TestLoadSchedulerRejectsFeatureMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const feat = sim.JobFeatures - 2
	var buf bytes.Buffer
	snap := nn.Snap(nn.NewKernelNet(rng, 16, feat, nil), nn.NewValueNet(rng, 16, feat, nil), nil)
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := LoadScheduler(&buf)
	if err == nil {
		t.Fatalf("a %d-feature model loaded; the encoder produces %d", feat, sim.JobFeatures)
	}
	if s != nil {
		t.Errorf("LoadScheduler returned scheduler %#v with its error, want nil", s)
	}
}

func TestEvaluateDeterministicAcrossSchedulers(t *testing.T) {
	tr := trace.Preset("Lublin-1", 400, 7)
	eval := EvalConfig{Goal: metrics.BoundedSlowdown, NSeq: 3, SeqLen: 64, Seed: 42}
	m1, v1, err := Evaluate(tr, sched.SJF(), eval)
	if err != nil {
		t.Fatal(err)
	}
	m2, v2, err := Evaluate(tr, sched.SJF(), eval)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Errorf("same seed gave different means: %g vs %g", m1, m2)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("per-sequence values must be reproducible")
		}
	}
	if len(v1) != 3 {
		t.Errorf("values = %d, want 3", len(v1))
	}
}

func TestEvaluateClipsSeqLen(t *testing.T) {
	tr := trace.Preset("Lublin-1", 50, 8)
	eval := EvalConfig{Goal: metrics.WaitTime, NSeq: 2, SeqLen: 5000, Seed: 1}
	if _, _, err := Evaluate(tr, sched.FCFS(), eval); err != nil {
		t.Fatalf("oversized SeqLen must clip, got %v", err)
	}
}
