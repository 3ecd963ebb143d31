package sim

import (
	"math"

	"rlsched/internal/job"
	"rlsched/internal/metrics"
)

// JobFeatures is the per-job observation width. Each visible pending job is
// embedded as a fixed vector combining its own attributes with the current
// resource availability (§IV-B3: "the vector also contains available
// resources ... the priority of a job actually varies depending on the
// currently available resources"):
//
//	0: waiting time, squashed to [0,1) by w/(w+600)
//	1: requested runtime, log-scaled against a 7-day cap
//	2: requested processors / cluster size
//	3: free processors / cluster size
//	4: 1 if the job fits the free processors right now
//	5: pending-queue occupancy, len(pending)/MaxObserve capped at 1
//	6: 1 for a real job, 0 for a padding row
const JobFeatures = 7

// maxReqTimeCap caps the runtime feature's log scale (7 days in seconds).
const maxReqTimeCap = 7 * 24 * 3600

// Obs is a flattened MaxObserve×JobFeatures observation matrix.
type Obs []float64

// Env is the Gym-style interface SchedGym exposes to RL agents: Reset loads
// a job sequence and returns the first observation; Step applies a job
// selection and returns the next observation. Rewards follow §IV-A: zero on
// every intermediate action, the full (negated for minimization) sequence
// metric on the final action.
type Env struct {
	sim  *Simulator
	goal metrics.Kind
}

// NewEnv returns an environment for the cluster config and optimization
// goal.
func NewEnv(cfg Config, goal metrics.Kind) *Env {
	return &Env{sim: New(cfg), goal: goal}
}

// MaxObserve returns the action-space size.
func (e *Env) MaxObserve() int { return e.sim.cfg.maxObserve() }

// Reset loads a sequence (pass freshly cloned jobs, e.g. trace.Window) and
// returns the initial observation. It returns an error for invalid
// sequences.
func (e *Env) Reset(seq []*job.Job) (Obs, error) {
	if err := e.ResetOnly(seq); err != nil {
		return nil, err
	}
	return e.observe(), nil
}

// ResetOnly is Reset without materializing the initial observation — the
// rollout collector builds observations into its own buffers via
// ObserveInto instead.
func (e *Env) ResetOnly(seq []*job.Job) error {
	if err := e.sim.Load(seq); err != nil {
		return err
	}
	e.toDecision()
	return nil
}

// toDecision pumps the simulator, advancing the clock event by event, until
// the agent must pick: nothing committed and a job pending. It reports
// false when the run ended instead (no events remain).
func (e *Env) toDecision() bool {
	for {
		e.sim.Pump(nil)
		if e.sim.committed == nil && len(e.sim.pending) > 0 {
			return true
		}
		if !e.sim.advanceToNextEvent() {
			return false
		}
	}
}

// Step schedules the visible job at slot action (invalid or padded slots
// fall back to slot 0), advances to the next decision point, and returns
// the next observation, the reward, and whether the sequence is finished.
func (e *Env) Step(action int) (Obs, float64, bool) {
	rew, done := e.StepOnly(action)
	return e.observe(), rew, done
}

// StepOnly is Step without materializing the next observation. Rollout
// collection calls it in a tight loop, reading state through ObserveInto
// only when a decision is actually needed (in particular the terminal
// observation, which no learner consumes, is never built).
func (e *Env) StepOnly(action int) (float64, bool) {
	visible := e.sim.Visible()
	if len(visible) == 0 {
		// Terminal state already reached.
		return 0, true
	}
	if action < 0 || action >= len(visible) {
		action = 0
	}
	e.sim.Commit(visible[action])
	if e.toDecision() {
		return 0, false
	}
	return metrics.Reward(e.goal, e.sim.result()), true
}

// Mask returns validity flags for each action slot: true where a real
// pending job occupies the slot and starting it would not violate the
// per-user quota (§V-F). If quotas would mask every slot, all real slots
// are re-enabled — the simulator then simply waits for quota to free up,
// so the agent never faces an all-invalid action space.
func (e *Env) Mask() []bool {
	m := make([]bool, e.MaxObserve())
	e.MaskInto(m)
	return m
}

// MaskInto is Mask writing into a caller-owned buffer of MaxObserve flags.
func (e *Env) MaskInto(m []bool) {
	if len(m) != e.MaxObserve() {
		panic("sim: MaskInto buffer has wrong size")
	}
	for i := range m {
		m[i] = false
	}
	visible := e.sim.Visible()
	any := false
	for i, j := range visible {
		if e.sim.QuotaOK(j) {
			m[i] = true
			any = true
		}
	}
	if !any {
		for i := range visible {
			m[i] = true
		}
	}
}

// ObserveInto builds the current observation into a caller-owned buffer of
// MaxObserve·JobFeatures values, the zero-allocation twin of the
// observation Reset/Step return.
func (e *Env) ObserveInto(dst Obs) {
	BuildObsInto(dst, e.sim.Visible(), e.sim.Now(), e.sim.View(), e.sim.PendingCount(), e.MaxObserve())
}

// Result returns the finished run's jobs and utilization.
func (e *Env) Result() metrics.Result { return e.sim.result() }

// observe builds a fresh fixed-size observation matrix. Each call
// allocates so callers (e.g. trajectory buffers) may retain the slice.
func (e *Env) observe() Obs {
	return BuildObs(e.sim.Visible(), e.sim.Now(), e.sim.View(), e.sim.PendingCount(), e.MaxObserve())
}

// BuildObs embeds up to maxObs visible jobs into the fixed observation
// matrix described by JobFeatures. It is shared by the training Env and by
// inference-time schedulers that wrap a trained policy network.
// pendingCount is the full pending-queue length (may exceed len(visible)).
func BuildObs(visible []*job.Job, now float64, view ClusterView, pendingCount, maxObs int) Obs {
	obs := make(Obs, maxObs*JobFeatures)
	BuildObsInto(obs, visible, now, view, pendingCount, maxObs)
	return obs
}

// BuildObsInto is BuildObs writing into a caller-owned buffer of
// maxObs·JobFeatures values, so hot serving paths can reuse allocations.
// dst is fully overwritten (padding rows zeroed).
func BuildObsInto(dst Obs, visible []*job.Job, now float64, view ClusterView, pendingCount, maxObs int) {
	if len(dst) != maxObs*JobFeatures {
		panic("sim: BuildObsInto buffer has wrong size")
	}
	obs := dst
	for i := range obs {
		obs[i] = 0
	}
	queueFrac := float64(pendingCount) / float64(maxObs)
	if queueFrac > 1 {
		queueFrac = 1
	}
	freeFrac := float64(view.FreeProcs) / float64(view.TotalProcs)
	for i, j := range visible {
		if i >= maxObs {
			break
		}
		row := obs[i*JobFeatures : (i+1)*JobFeatures]
		wait := now - j.SubmitTime
		if wait < 0 {
			wait = 0
		}
		row[0] = wait / (wait + 600)
		row[1] = math.Log1p(j.RequestedTime) / math.Log1p(maxReqTimeCap)
		row[2] = float64(j.RequestedProcs) / float64(view.TotalProcs)
		row[3] = freeFrac
		if j.RequestedProcs <= view.FreeProcs {
			row[4] = 1
		}
		row[5] = queueFrac
		row[6] = 1
	}
}
