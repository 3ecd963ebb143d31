package core

import (
	"reflect"
	"testing"

	"rlsched/internal/metrics"
	"rlsched/internal/trace"
)

// TestTrainEpochReproducible: fixed seed + fixed worker count must
// reproduce the identical training trajectory across two independent runs
// — every PPO statistic bit-equal, not just the headline metric. CI runs
// this under -race, so it also proves the parallel collector clean.
func TestTrainEpochReproducible(t *testing.T) {
	tr := trace.Preset("Lublin-1", 300, 16)
	run := func() []EpochStats {
		cfg := tinyConfig(tr, metrics.BoundedSlowdown)
		cfg.Workers = 4
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		curve, err := a.Train(2)
		if err != nil {
			t.Fatal(err)
		}
		return curve
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("training diverged across identical runs:\n%+v\nvs\n%+v", a, b)
	}
}

// TestWorkersBitIdentical verifies the parallel-rollout design promise:
// the trajectory stream is derived from per-trajectory RNGs, so training
// with 1 worker and with 4 workers produces identical curves — parallelism
// changes wall-clock only.
func TestWorkersBitIdentical(t *testing.T) {
	tr := trace.Preset("Lublin-1", 300, 17)
	curveFor := func(workers int) []EpochStats {
		cfg := tinyConfig(tr, metrics.BoundedSlowdown)
		cfg.Workers = workers
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		curve, err := a.Train(3)
		if err != nil {
			t.Fatal(err)
		}
		return curve
	}
	serial := curveFor(1)
	parallel := curveFor(4)
	for i := range serial {
		if serial[i].MeanMetric != parallel[i].MeanMetric {
			t.Fatalf("epoch %d metric: serial %.10f != parallel %.10f",
				i+1, serial[i].MeanMetric, parallel[i].MeanMetric)
		}
		if serial[i].MeanReward != parallel[i].MeanReward {
			t.Fatalf("epoch %d reward differs across worker counts", i+1)
		}
		if serial[i].Update.KL != parallel[i].Update.KL {
			t.Fatalf("epoch %d PPO update diverged across worker counts", i+1)
		}
	}
}

func TestWorkersMoreThanTrajectories(t *testing.T) {
	tr := trace.Preset("Lublin-2", 300, 18)
	cfg := tinyConfig(tr, metrics.BoundedSlowdown)
	cfg.TrajPerEpoch = 2
	cfg.Workers = 16 // clamped internally
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.TrainEpoch(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelFilterStreamUnchanged: the trajectory filter consumes the
// agent RNG serially, so enabling workers must not change which windows
// are accepted.
func TestParallelFilterStreamUnchanged(t *testing.T) {
	tr := trace.Preset("PIK-IPLEX", 600, 20)
	run := func(workers int) int {
		cfg := tinyConfig(tr, metrics.BoundedSlowdown)
		cfg.Filter = true
		cfg.FilterProbeN = 10
		cfg.FilterPhase1 = 5
		cfg.Workers = workers
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := a.TrainEpoch()
		if err != nil {
			t.Fatal(err)
		}
		return s.Rejected
	}
	if r1, r4 := run(1), run(4); r1 != r4 {
		t.Errorf("filter rejections differ across worker counts: %d vs %d", r1, r4)
	}
}

// TestTrainFairBoundedSlowdown trains under the fairness goal (the worst
// user's mean bounded slowdown, §V-F) on a multi-user trace.
func TestTrainFairBoundedSlowdown(t *testing.T) {
	tr := trace.Preset("HPC2N", 300, 23)
	a, err := New(tinyConfig(tr, metrics.FairMaxBoundedSlowdown))
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.TrainEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if s.MeanMetric < 1 {
		t.Errorf("fair-bsld = %g, want >= 1", s.MeanMetric)
	}
}

func TestTrainEpochRaceFree(t *testing.T) {
	// Exercised under -race in CI: 8 workers hammering shared weights
	// read-only while rolling out.
	tr := trace.Preset("Lublin-1", 300, 21)
	cfg := tinyConfig(tr, metrics.BoundedSlowdown)
	cfg.TrajPerEpoch = 8
	cfg.Workers = 8
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Train(2); err != nil {
		t.Fatal(err)
	}
}
