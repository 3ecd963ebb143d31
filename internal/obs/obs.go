// Package obs is the observability layer of the scheduler: typed decision
// events emitted by the fleet placement pipeline, the migration controller
// and the simulator's job lifecycle, behind one Recorder interface whose
// nil default costs nothing. Recording is strictly passive — an attached
// recorder sees every decision but influences none, so placements and
// sweeps are byte-identical with and without one (pinned by parity tests
// in internal/fleet and internal/exp).
//
// Sinks: Collector retains everything for exporters (the Chrome
// trace-event timeline writer, run reports), Ring keeps the last N
// placement decisions for the serving daemon's /debug/decisions endpoint,
// and Nop measures the instrumented path's overhead in benchmarks.
package obs

import (
	"rlsched/internal/job"
	"rlsched/internal/metrics"
)

// JobRef identifies a job inside an event: the scheduler-visible identity
// and size, never the actual runtime.
type JobRef struct {
	// ID is the job's trace ID.
	ID int `json:"id"`
	// UserID is the submitting user (-1 unknown).
	UserID int `json:"user_id"`
	// Procs is the requested processor count.
	Procs int `json:"procs"`
	// SubmitTime is the job's original arrival instant (kept across
	// migration re-submits).
	SubmitTime float64 `json:"submit_time"`
}

// Ref captures a job's event identity.
func Ref(j *job.Job) JobRef {
	return JobRef{ID: j.ID, UserID: j.UserID, Procs: j.RequestedProcs, SubmitTime: j.SubmitTime}
}

// PluginScore is one score plugin's view of one candidate in a placement
// decision: the plugin's pipeline weight and its min-max normalized score
// for this candidate (the value the weight multiplies).
type PluginScore struct {
	// Plugin is the scorer's Name().
	Plugin string `json:"plugin"`
	// Weight is the plugin's pipeline weight.
	Weight float64 `json:"weight"`
	// Norm is the plugin's [0,1]-normalized score for this candidate (0
	// when the plugin expressed no preference across the feasible set).
	Norm float64 `json:"norm"`
}

// CandidateTrace is one candidate cluster's full story in a placement
// decision: the filter verdict and, when feasible, every plugin's
// normalized contribution plus the weighted total the argmax compared.
type CandidateTrace struct {
	// Index is the candidate's cluster index; Name its cluster name.
	Index int    `json:"index"`
	Name  string `json:"name"`
	// Feasible reports whether the candidate survived every filter;
	// FilteredBy names the first filter that rejected it (empty when
	// feasible).
	Feasible   bool   `json:"feasible"`
	FilteredBy string `json:"filtered_by,omitempty"`
	// Plugins carries the per-scorer normalized contributions (empty for
	// infeasible candidates and single-feasible shortcuts).
	Plugins []PluginScore `json:"plugins,omitempty"`
	// Total is the weighted sum the winner was chosen by (0 while
	// infeasible; 1 for a single-feasible shortcut).
	Total float64 `json:"total"`
}

// Explain captures a placement pipeline pass for reuse across calls: the
// per-candidate traces and whether the winning total was tied. It is
// filled by Pipeline.PlaceExplained (internal/fleet); Reset re-sizes it
// without reallocating the per-candidate plugin slices.
type Explain struct {
	// Candidates has one trace per candidate, in candidate order.
	Candidates []CandidateTrace `json:"candidates"`
	// TieBreak reports that another feasible candidate matched the
	// winner's total and the lowest index won.
	TieBreak bool `json:"tie_break"`
}

// Reset prepares the explain buffer for a pass over n candidates, reusing
// prior allocations.
func (e *Explain) Reset(n int) {
	for cap(e.Candidates) < n {
		e.Candidates = append(e.Candidates[:cap(e.Candidates)], CandidateTrace{})
	}
	e.Candidates = e.Candidates[:n]
	for i := range e.Candidates {
		c := &e.Candidates[i]
		c.Index, c.Name = 0, ""
		c.Feasible, c.FilteredBy = false, ""
		c.Plugins = c.Plugins[:0]
		c.Total = 0
	}
	e.TieBreak = false
}

// PlacementDecision is one routing decision: which cluster an arriving (or
// re-placed) job went to and the per-plugin evidence. Candidates is nil
// for routers that expose no score breakdown (random, round-robin).
type PlacementDecision struct {
	// Seq is a monotonic sequence number stamped by sinks that keep order
	// across drops (the serving Ring); emitters leave it 0.
	Seq uint64 `json:"seq,omitempty"`
	// Time is the decision instant: simulation seconds in fleet runs,
	// seconds since daemon start in the serving path.
	Time float64 `json:"time"`
	// Router is the deciding router's Name().
	Router string `json:"router"`
	// Job is the placed job.
	Job JobRef `json:"job"`
	// Winner is the chosen cluster index (-1 when no cluster was
	// feasible); Cluster its name.
	Winner  int    `json:"winner"`
	Cluster string `json:"cluster,omitempty"`
	// TieBreak reports the winning total was shared and the lowest index
	// won.
	TieBreak bool `json:"tie_break,omitempty"`
	// Candidates is the per-cluster evidence (filter verdicts, normalized
	// plugin scores, totals), nil for unscored routers.
	Candidates []CandidateTrace `json:"candidates,omitempty"`
}

// Migration probe outcome reasons (MigrationProbe.Reason).
const (
	// ReasonMoved: the job migrated to a new cluster.
	ReasonMoved = "moved"
	// ReasonIncumbent: the job's current cluster is still the best pick.
	ReasonIncumbent = "incumbent-best"
	// ReasonHysteresis: a better cluster exists but its margin did not
	// clear the hysteresis.
	ReasonHysteresis = "hysteresis"
	// ReasonNotDrained: the margin cleared but the destination failed the
	// start-now gate (pending backlog, or cannot start the job now).
	ReasonNotDrained = "not-drained"
	// ReasonInfeasible: no cluster passed the filters at the sweep.
	ReasonInfeasible = "no-feasible"
	// ReasonCooldown: the job moved too recently to be probed.
	ReasonCooldown = "cooldown"
	// ReasonMoveCap: the job exhausted its lifetime move budget.
	ReasonMoveCap = "move-cap"
)

// MigrationProbe is one migration-controller look at one pending job
// during a sweep: where it sat, where it could have gone, and why it moved
// or stayed. Skips before scoring (cooldown, move cap) carry To = -1.
type MigrationProbe struct {
	// Time is the sweep instant (simulation seconds).
	Time float64 `json:"time"`
	// Job is the probed job.
	Job JobRef `json:"job"`
	// From is the cluster the job waited on; To the best alternative the
	// re-scoring found (-1 when the probe was skipped before scoring or
	// nothing was feasible). FromName/ToName are the cluster names.
	From     int    `json:"from"`
	FromName string `json:"from_name,omitempty"`
	To       int    `json:"to"`
	ToName   string `json:"to_name,omitempty"`
	// Moved reports the job actually migrated; Reason says why or why not
	// (the Reason* constants).
	Moved  bool   `json:"moved"`
	Reason string `json:"reason"`
	// Margin is best-minus-incumbent on the normalized score scale (0
	// when either side was unscored).
	Margin float64 `json:"margin"`
}

// FairnessSnapshot is the stateful fairness tracker's aggregate view at a
// decision instant.
type FairnessSnapshot struct {
	// Time is the snapshot instant (simulation seconds).
	Time float64 `json:"time"`
	// Report is the tracker's per-user summary.
	Report metrics.FairnessReport `json:"report"`
}

// JobEventKind enumerates job lifecycle transitions.
type JobEventKind uint8

// Job lifecycle transitions: arrival into a cluster's queue, launch,
// completion, and withdrawal (the migration controller pulling a pending
// job back out — always followed by a re-submit somewhere).
const (
	JobSubmit JobEventKind = iota
	JobStart
	JobFinish
	JobWithdraw
)

// String names the kind.
func (k JobEventKind) String() string {
	switch k {
	case JobSubmit:
		return "submit"
	case JobStart:
		return "start"
	case JobFinish:
		return "finish"
	case JobWithdraw:
		return "withdraw"
	}
	return "unknown"
}

// JobEvent is one lifecycle transition of one job on one cluster. A
// migrated job's history reads submit → withdraw → submit → start →
// finish, with the cluster tag changing at the re-submit; spans built from
// these events (the Chrome trace exporter) link the re-submits through the
// matching MigrationProbe.
type JobEvent struct {
	// Kind is the transition.
	Kind JobEventKind `json:"kind"`
	// Time is the transition instant (simulation seconds).
	Time float64 `json:"time"`
	// Cluster tags the member the event happened on.
	Cluster string `json:"cluster"`
	// Job is the transitioning job.
	Job JobRef `json:"job"`
}

// Recorder receives decision and lifecycle events. Implementations must
// be cheap and must not retain the event pointers past the call — emitters
// reuse event buffers between calls; copy what you keep (Collector and
// Ring do). A nil Recorder is the disabled state: emitters guard every
// event behind a nil check, so the untraced path pays one branch.
type Recorder interface {
	// Placement receives one routing decision.
	Placement(*PlacementDecision)
	// Migration receives one migration probe outcome.
	Migration(*MigrationProbe)
	// Fairness receives one fairness tracker snapshot.
	Fairness(*FairnessSnapshot)
	// Job receives one job lifecycle transition.
	Job(*JobEvent)
}

// Nop is a Recorder that discards everything — the benchmark stand-in for
// "recorder attached, sink free", measuring the instrumented path itself.
type Nop struct{}

// Placement implements Recorder.
func (Nop) Placement(*PlacementDecision) {}

// Migration implements Recorder.
func (Nop) Migration(*MigrationProbe) {}

// Fairness implements Recorder.
func (Nop) Fairness(*FairnessSnapshot) {}

// Job implements Recorder.
func (Nop) Job(*JobEvent) {}
