package sim

import (
	"math"
	"math/rand"
	"testing"

	"rlsched/internal/job"
	"rlsched/internal/metrics"
	"rlsched/internal/trace"
)

// observe returns a fresh copy of the env's current observation.
func observe(e *Env) Obs {
	o := make(Obs, e.MaxObserve()*JobFeatures)
	e.ObserveInto(o)
	return o
}

// finish steps slot 0 until the episode ends and returns the final reward.
func finish(e *Env) float64 {
	for {
		if r, done := e.StepOnly(0); done {
			return r
		}
	}
}

func TestEnvEpisode(t *testing.T) {
	tr := trace.Preset("Lublin-1", 100, 2)
	env := NewEnv(Config{Processors: tr.Processors, MaxObserve: 16}, metrics.BoundedSlowdown)
	if err := env.ResetOnly(tr.Window(0, 100)); err != nil {
		t.Fatal(err)
	}
	steps := 0
	var reward float64
	done := false
	for !done {
		// Always act on slot 0 (valid by construction).
		reward, done = env.StepOnly(0)
		steps++
		if steps > 200 {
			t.Fatal("episode did not terminate")
		}
		if !done && reward != 0 {
			t.Fatalf("intermediate reward = %g, want 0 (§IV-A)", reward)
		}
	}
	if reward >= 0 {
		t.Errorf("final bsld reward = %g, want negative (bsld >= 1)", reward)
	}
	if steps != 100 {
		t.Errorf("steps = %d, want one per job (100)", steps)
	}
	res := env.Result()
	for _, j := range res.Jobs {
		if !j.Started() {
			t.Fatal("all jobs must have run")
		}
	}
	if want := metrics.Reward(metrics.BoundedSlowdown, res); reward != want {
		t.Errorf("final reward = %g, want the goal reward %g", reward, want)
	}
}

func TestEnvUtilizationRewardPositive(t *testing.T) {
	tr := trace.Preset("Lublin-2", 60, 4)
	env := NewEnv(Config{Processors: tr.Processors, MaxObserve: 8}, metrics.Utilization)
	if err := env.ResetOnly(tr.Window(0, 60)); err != nil {
		t.Fatal(err)
	}
	if reward := finish(env); reward <= 0 || reward > 1 {
		t.Errorf("util reward = %g, want in (0,1]", reward)
	}
}

func TestEnvMask(t *testing.T) {
	// 3 jobs, MaxObserve 8: first three slots valid.
	jobs := []*job.Job{
		job.New(1, 0, 10, 1, 10),
		job.New(2, 0, 10, 1, 10),
		job.New(3, 0, 10, 1, 10),
	}
	env := NewEnv(Config{Processors: 4, MaxObserve: 8}, metrics.BoundedSlowdown)
	if err := env.ResetOnly(jobs); err != nil {
		t.Fatal(err)
	}
	m := make([]bool, env.MaxObserve())
	for i := range m {
		m[i] = i%2 == 0 // stale flags from an earlier decision
	}
	env.MaskInto(m)
	if len(m) != 8 {
		t.Fatalf("mask len = %d, want 8", len(m))
	}
	for i := 0; i < 3; i++ {
		if !m[i] {
			t.Errorf("slot %d must be valid", i)
		}
	}
	for i := 3; i < 8; i++ {
		if m[i] {
			t.Errorf("slot %d must be padding", i)
		}
	}
}

func TestObservationFeatures(t *testing.T) {
	jobs := []*job.Job{
		job.New(1, 0, 100, 2, 100),
		job.New(2, 0, 200, 8, 200),
	}
	env := NewEnv(Config{Processors: 8, MaxObserve: 4}, metrics.BoundedSlowdown)
	if err := env.ResetOnly(jobs); err != nil {
		t.Fatal(err)
	}
	obs := observe(env)
	// Row 0: job 1. wait=0 -> f0=0; fits (2<=8) -> f4=1; valid f6=1.
	r0 := obs[0:JobFeatures]
	if r0[0] != 0 {
		t.Errorf("f0 wait = %g, want 0", r0[0])
	}
	if r0[2] != 0.25 {
		t.Errorf("f2 procs = %g, want 2/8", r0[2])
	}
	if r0[3] != 1 {
		t.Errorf("f3 free = %g, want 1 (idle cluster)", r0[3])
	}
	if r0[4] != 1 || r0[6] != 1 {
		t.Errorf("f4/f6 = %g/%g, want 1/1", r0[4], r0[6])
	}
	// Row 1: job 2 requests the whole machine: procs frac 1, still fits.
	r1 := obs[JobFeatures : 2*JobFeatures]
	if r1[2] != 1 || r1[4] != 1 {
		t.Errorf("row1 f2/f4 = %g/%g, want 1/1", r1[2], r1[4])
	}
	if r1[1] <= r0[1] {
		t.Error("longer requested time must give a larger f1")
	}
	// Rows 2..3 are padding: all zeros.
	for i := 2 * JobFeatures; i < 4*JobFeatures; i++ {
		if obs[i] != 0 {
			t.Fatalf("padding obs[%d] = %g, want 0", i, obs[i])
		}
	}
	// All features bounded in [0,1].
	for i, v := range obs {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Fatalf("obs[%d] = %g out of [0,1]", i, v)
		}
	}
}

func TestEnvInvalidActionFallsBack(t *testing.T) {
	jobs := []*job.Job{job.New(1, 0, 10, 1, 10), job.New(2, 0, 10, 1, 10)}
	env := NewEnv(Config{Processors: 2, MaxObserve: 4}, metrics.BoundedSlowdown)
	if err := env.ResetOnly(jobs); err != nil {
		t.Fatal(err)
	}
	_, done := env.StepOnly(99) // padding slot: falls back to 0
	if done {
		t.Fatal("one job left, must not be done")
	}
	_, done = env.StepOnly(-1)
	if !done {
		t.Fatal("episode must finish after both jobs scheduled")
	}
	// Stepping a finished env is a harmless terminal no-op.
	r, done := env.StepOnly(0)
	if !done || r != 0 {
		t.Error("stepping terminal env must stay done with zero reward")
	}
}

func TestEnvResetReusable(t *testing.T) {
	tr := trace.Preset("HPC2N", 80, 6)
	env := NewEnv(Config{Processors: tr.Processors, MaxObserve: 8}, metrics.BoundedSlowdown)
	rng := rand.New(rand.NewSource(1))
	var rewards []float64
	for ep := 0; ep < 3; ep++ {
		if err := env.ResetOnly(tr.SampleWindow(rng, 40)); err != nil {
			t.Fatal(err)
		}
		rewards = append(rewards, finish(env))
	}
	if len(rewards) != 3 {
		t.Fatal("env must be reusable across episodes")
	}
}

func TestEnvRejectsBadSequence(t *testing.T) {
	env := NewEnv(Config{Processors: 1, MaxObserve: 4}, metrics.BoundedSlowdown)
	if err := env.ResetOnly([]*job.Job{job.New(1, 0, 10, 5, 10)}); err == nil {
		t.Error("oversized job must fail ResetOnly")
	}
}

func TestBuildObsIntoOverwritesBuffer(t *testing.T) {
	jobs := []*job.Job{
		job.New(1, 0, 100, 4, 200),
		job.New(2, 10, 50, 2, 60),
	}
	view := ClusterView{FreeProcs: 32, TotalProcs: 64}
	want := make(Obs, 8*JobFeatures)
	BuildObsInto(want, jobs, 40, view, 5, 8)
	dst := make(Obs, 8*JobFeatures)
	// Dirty the buffer to prove it is fully overwritten.
	for i := range dst {
		dst[i] = -1
	}
	BuildObsInto(dst, jobs, 40, view, 5, 8)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("BuildObsInto into a dirty buffer [%d] = %g, into a fresh one = %g", i, dst[i], want[i])
		}
	}
}
