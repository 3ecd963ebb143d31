// Package serve is the online scheduling-decision service: it loads a
// trained nn.Snapshot (or a named heuristic from internal/sched) and serves
// scheduling decisions over an HTTP JSON API. The design goal is
// throughput on the decision hot path — each request runs one forward pass
// through the policy network on its own handler goroutine, models hot-swap
// atomically under load, and the whole pipeline reuses buffers instead of
// allocating per decision.
package serve

import (
	"fmt"
	"math/rand"
	"os"

	"rlsched/internal/job"
	"rlsched/internal/nn"
	"rlsched/internal/policy"
	"rlsched/internal/sched"
	"rlsched/internal/sim"
)

// QueueState is one decision problem: the visible pending queue plus the
// cluster view at decision time. It mirrors what sim.Scheduler.Pick sees.
type QueueState struct {
	Jobs []*job.Job
	Now  float64
	View sim.ClusterView
	// QueueLen is the full pending-queue length (≥ len(Jobs) when the
	// caller's backlog exceeds the visible window). A value below
	// len(Jobs), 0 included, means len(Jobs).
	QueueLen int
	// WantScores asks the engine to return per-job scores, not just the
	// pick. Off by default: encoding 128 floats per decision costs more
	// than the decision itself.
	WantScores bool
}

// Decision is the answer for one QueueState.
type Decision struct {
	// Pick indexes the chosen job in QueueState.Jobs.
	Pick int
	// Scores holds one value per visible job, higher is better
	// (Pick = argmax). Nil unless the state asked for scores.
	Scores []float64
}

// Engine turns queue states into decisions. DecideBatch handles each state
// independently; implementations must be safe for concurrent use by any
// number of goroutines — the server swaps engines atomically and never
// mutates one in place.
type Engine interface {
	// Name identifies the policy ("kernel", "FCFS", ...) for metrics and
	// responses.
	Name() string
	// MaxJobs is the most jobs scored per state (0 = unbounded). Extra
	// jobs beyond the cap are cut off in FCFS order, exactly like the
	// simulator's MAX_OBSV_SIZE window.
	MaxJobs() int
	// DecideBatch fills out[i] for states[i]. len(out) == len(states).
	DecideBatch(states []*QueueState, out []Decision)
}

// PolicyEngine serves a trained policy network through policy.NetScheduler,
// the decision path the simulator evaluates: one forward pass scores a
// whole batch of states, everything one request carried.
type PolicyEngine struct {
	ns *policy.NetScheduler
}

// NewPolicyEngine wraps a policy network built for sim.JobFeatures
// features per job (the shared queue-state encoding).
func NewPolicyEngine(net nn.PolicyNet) (*PolicyEngine, error) {
	ns, err := policy.NewNetScheduler(net)
	if err != nil {
		return nil, err
	}
	return &PolicyEngine{ns: ns}, nil
}

// Name implements Engine.
func (e *PolicyEngine) Name() string { return e.ns.Net.Kind() }

// MaxJobs implements Engine.
func (e *PolicyEngine) MaxJobs() int { return e.ns.MaxObs() }

// DecideBatch implements Engine: argmax of each state's visible slots,
// plus the logits as scores when a state asks for them.
func (e *PolicyEngine) DecideBatch(states []*QueueState, out []Decision) {
	e.ns.Logits(len(states), func(i int) policy.Queue {
		st := states[i]
		return policy.Queue{Jobs: st.Jobs, Now: st.Now, View: st.View, QueueLen: st.QueueLen}
	}, func(i int, row []float64) {
		out[i] = Decision{Pick: policy.Argmax(row)}
		if states[i].WantScores {
			out[i].Scores = append([]float64(nil), row...)
		}
	})
}

// HeuristicEngine serves a priority-function scheduler. There is nothing
// to batch — scoring is a few flops per job — but it speaks the same
// interface so heuristics and trained models swap freely, including live
// via /reload.
type HeuristicEngine struct {
	h *sched.Priority
}

// NewHeuristicEngine wraps a stateless heuristic.
func NewHeuristicEngine(h *sched.Priority) *HeuristicEngine {
	return &HeuristicEngine{h: h}
}

// Name implements Engine.
func (e *HeuristicEngine) Name() string { return e.h.Name }

// MaxJobs implements Engine.
func (e *HeuristicEngine) MaxJobs() int { return 0 }

// DecideBatch implements Engine: argmin of the priority score per state.
// Reported scores are negated so the "higher is better, Pick = argmax"
// contract holds across engines.
func (e *HeuristicEngine) DecideBatch(states []*QueueState, out []Decision) {
	for i, st := range states {
		var scores []float64
		if st.WantScores {
			scores = make([]float64, len(st.Jobs))
		}
		best := 0
		bestScore := 0.0
		for j, jb := range st.Jobs {
			s := e.h.Score(jb, st.Now, st.View)
			if j == 0 || s < bestScore {
				bestScore = s
				best = j
			}
			if scores != nil {
				scores[j] = -s
			}
		}
		out[i] = Decision{Pick: best, Scores: scores}
	}
}

// LoadEngine builds an engine from a model snapshot path or a heuristic
// name (exactly one must be set). It is used both at daemon start and on
// every /reload.
func LoadEngine(modelPath, policyName string) (Engine, error) {
	switch {
	case modelPath != "" && policyName != "":
		return nil, fmt.Errorf("serve: set model path or policy name, not both")
	case modelPath != "":
		f, err := os.Open(modelPath)
		if err != nil {
			return nil, fmt.Errorf("serve: open model: %w", err)
		}
		defer f.Close()
		snap, err := nn.ReadSnapshot(f)
		if err != nil {
			return nil, err
		}
		pol, err := snap.MaterializePolicy(rand.New(rand.NewSource(0)))
		if err != nil {
			return nil, err
		}
		return NewPolicyEngine(pol)
	case policyName != "":
		h := sched.ByName(policyName)
		if h == nil {
			return nil, fmt.Errorf("serve: unknown heuristic %q (have %v)", policyName, sched.Names())
		}
		return NewHeuristicEngine(h), nil
	}
	return nil, fmt.Errorf("serve: need a model path or a heuristic name")
}

// engineOrLoad is how the base engine and every fleet shard start: a
// ready-made Engine (the test hook) wins, otherwise LoadEngine.
func engineOrLoad(eng Engine, modelPath, policyName string) (Engine, error) {
	if eng != nil {
		return eng, nil
	}
	return LoadEngine(modelPath, policyName)
}
