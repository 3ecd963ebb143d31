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

// Env is the Gym-style interface SchedGym exposes to RL agents: ResetOnly
// loads a job sequence and runs to the first decision; StepOnly applies a
// job selection, runs to the next decision, and returns the reward.
// ObserveInto and MaskInto read the state at a decision into caller-owned
// buffers, so a caller that keeps observations (a replay buffer) passes a
// fresh slice and one that does not reuses its own. Rewards follow §IV-A:
// zero on every intermediate action, the full (negated for minimization)
// sequence metric on the final action.
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

// ResetOnly loads a sequence (pass freshly cloned jobs, e.g. trace.Window)
// and advances to the first decision. It returns an error for invalid
// sequences.
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

// StepOnly schedules the visible job at slot action (invalid or padded
// slots fall back to slot 0), advances to the next decision point, and
// returns the reward and whether the sequence is finished. It builds no
// observation: callers read one through ObserveInto when they need it.
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

// MaskInto writes the action-slot validity flags into a caller-owned
// buffer of MaxObserve flags: a slot is valid exactly when a visible
// pending job occupies it.
func (e *Env) MaskInto(m []bool) {
	if len(m) != e.MaxObserve() {
		panic("sim: MaskInto buffer has wrong size")
	}
	n := len(e.sim.Visible())
	for i := range m {
		m[i] = i < n
	}
}

// ObserveInto builds the current observation into a caller-owned buffer of
// MaxObserve·JobFeatures values (BuildObsInto over the visible queue).
func (e *Env) ObserveInto(dst Obs) {
	BuildObsInto(dst, e.sim.Visible(), e.sim.Now(), e.sim.View(), e.sim.PendingCount(), e.MaxObserve())
}

// Result returns the finished run's jobs and utilization.
func (e *Env) Result() metrics.Result { return e.sim.result() }

// BuildObsInto embeds up to maxObs visible jobs into the fixed observation
// matrix described by JobFeatures, written into a caller-owned buffer of
// maxObs·JobFeatures values; dst is fully overwritten (padding rows
// zeroed). It is shared by the training Env and by inference-time
// schedulers that wrap a trained policy network. pendingCount is the full
// pending-queue length (may exceed len(visible)).
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
