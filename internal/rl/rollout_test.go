package rl

import (
	"math/rand"
	"reflect"
	"testing"

	ag "rlsched/internal/autograd"
	"rlsched/internal/job"
	"rlsched/internal/metrics"
	"rlsched/internal/nn"
	"rlsched/internal/sim"
	"rlsched/internal/trace"
)

const cMaxObs = 16

func newTestCollector(t *testing.T, workers int) (*Collector, *trace.Trace) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	pol := nn.NewKernelNet(rng, cMaxObs, sim.JobFeatures, nil)
	val := nn.NewValueNet(rng, cMaxObs, sim.JobFeatures, nil)
	tr := trace.Preset("Lublin-1", 400, 12)
	c := NewCollector(CollectorConfig{
		Policy:  pol,
		Value:   val,
		MaxObs:  cMaxObs,
		Feat:    sim.JobFeatures,
		Sim:     sim.Config{Processors: tr.Processors, MaxObserve: cMaxObs},
		Goal:    metrics.BoundedSlowdown,
		Workers: workers,
	})
	return c, tr
}

func sampleWins(tr *trace.Trace, n, seqLen int, seed int64) ([][]*job.Job, []int64) {
	rng := rand.New(rand.NewSource(seed))
	wins := make([][]*job.Job, n)
	seeds := make([]int64, n)
	for i := range wins {
		wins[i] = tr.SampleWindow(rng, seqLen)
		seeds[i] = seed + int64(i)*7919
	}
	return wins, seeds
}

// TestCollectZeroGraphNodes is the tentpole guarantee: trajectory
// collection must never construct an autograd graph node — action
// selection and value estimation go through the nn.Inferer fast path only.
func TestCollectZeroGraphNodes(t *testing.T) {
	c, tr := newTestCollector(t, 1)
	wins, seeds := sampleWins(tr, 4, 24, 21)
	before := ag.GraphNodeCount()
	rolls := c.Collect(wins, seeds)
	if delta := ag.GraphNodeCount() - before; delta != 0 {
		t.Fatalf("collection built %d autograd graph nodes, want 0", delta)
	}
	for i, r := range rolls {
		if r.Err != nil {
			t.Fatalf("rollout %d: %v", i, r.Err)
		}
		if r.Steps() == 0 {
			t.Fatalf("rollout %d collected no steps", i)
		}
	}
}

// TestCollectDeterministic: the same seeds must reproduce bit-identical
// rollouts run-to-run, and across worker counts (run under -race in CI).
func TestCollectDeterministic(t *testing.T) {
	collect := func(workers int) []Rollout {
		c, tr := newTestCollector(t, workers)
		wins, seeds := sampleWins(tr, 6, 32, 33)
		return c.Collect(wins, seeds)
	}
	a, b, par := collect(1), collect(1), collect(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeds produced different rollouts across runs")
	}
	if !reflect.DeepEqual(a, par) {
		t.Fatal("rollouts differ across worker counts")
	}
}

// TestCollectMatchesSelectAction: the collector's fast-path sampling must
// reproduce the selectAction helper exactly — same RNG stream, same
// actions, same log-probs and values — since both run the shared
// masked-sampling primitive over the shared Inferer.
func TestCollectMatchesSelectAction(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	pol := nn.NewKernelNet(rng, cMaxObs, sim.JobFeatures, nil)
	val := nn.NewValueNet(rng, cMaxObs, sim.JobFeatures, nil)
	ppo := NewPPO(pol, val, PPOConfig{})
	tr := trace.Preset("Lublin-1", 400, 12)
	simCfg := sim.Config{Processors: tr.Processors, MaxObserve: cMaxObs}

	c := NewCollector(CollectorConfig{
		Policy: pol, Value: val,
		MaxObs: cMaxObs, Feat: sim.JobFeatures,
		Sim: simCfg, Goal: metrics.BoundedSlowdown,
	})
	wins, seeds := sampleWins(tr, 2, 24, 55)
	rolls := c.Collect(wins, seeds)

	env := sim.NewEnv(simCfg, metrics.BoundedSlowdown)
	obs, mask := make(sim.Obs, cMaxObs*sim.JobFeatures), make([]bool, cMaxObs)
	for i, r := range rolls {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		stepRng := rand.New(rand.NewSource(seeds[i]))
		if err := env.ResetOnly(wins[i]); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < r.Steps(); s++ {
			env.ObserveInto(obs)
			env.MaskInto(mask)
			act, logp, v := selectAction(ppo, stepRng, obs, mask)
			if act != r.Acts[s] || logp != r.Logps[s] || v != r.Vals[s] {
				t.Fatalf("traj %d step %d: collector (%d,%g,%g) != selectAction (%d,%g,%g)",
					i, s, r.Acts[s], r.Logps[s], r.Vals[s], act, logp, v)
			}
			env.StepOnly(act)
		}
	}
}

// TestStoreRolloutBatch: rollouts feed the buffer and come back out as one
// flat batch with the same contents, twice over for determinism.
func TestStoreRolloutBatch(t *testing.T) {
	build := func() Batch {
		c, tr := newTestCollector(t, 2)
		wins, seeds := sampleWins(tr, 4, 24, 66)
		buf := NewBuffer(1, 0.97)
		for _, r := range c.Collect(wins, seeds) {
			if err := buf.StoreRollout(r); err != nil {
				t.Fatal(err)
			}
		}
		batch, err := buf.Get()
		if err != nil {
			t.Fatal(err)
		}
		return batch
	}
	a, b := build(), build()
	if a.N == 0 || a.ObsDim != cMaxObs*sim.JobFeatures || a.MaxObs != cMaxObs {
		t.Fatalf("batch dims N=%d ObsDim=%d MaxObs=%d", a.N, a.ObsDim, a.MaxObs)
	}
	if len(a.Obs) != a.N*a.ObsDim || len(a.Masks) != a.N*a.MaxObs {
		t.Fatal("flat batch arrays have wrong lengths")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeds produced different training batches")
	}
}
