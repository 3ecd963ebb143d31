// Package metrics implements the scheduling goals of §II-A3 of the paper —
// average waiting time, average turnaround, average (bounded) slowdown,
// resource utilization — plus the per-user fairness aggregation of §V-F,
// and maps each goal to the reward the RL agent maximizes.
package metrics

import (
	"fmt"

	"rlsched/internal/job"
)

// BsldThreshold is the interactive threshold (seconds) of the bounded
// slowdown metric; the paper uses 10 seconds.
const BsldThreshold = 10

// Kind identifies a scheduling metric / optimization goal.
type Kind int

const (
	// BoundedSlowdown is the paper's primary metric: minimize the average
	// bounded slowdown max((w+e)/max(e,10), 1).
	BoundedSlowdown Kind = iota
	// Slowdown minimizes the average raw slowdown (w+e)/e (Appendix A).
	Slowdown
	// WaitTime minimizes the average queuing delay (Appendix B).
	WaitTime
	// Turnaround minimizes the average response time w+e.
	Turnaround
	// Utilization maximizes the fraction of busy processors.
	Utilization
	// FairMaxBoundedSlowdown minimizes the *maximum over users* of the
	// per-user average bounded slowdown (the Maximal aggregator, §V-F).
	FairMaxBoundedSlowdown
)

// Kinds lists all supported metrics.
var Kinds = []Kind{BoundedSlowdown, Slowdown, WaitTime, Turnaround, Utilization, FairMaxBoundedSlowdown}

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case BoundedSlowdown:
		return "bsld"
	case Slowdown:
		return "slowdown"
	case WaitTime:
		return "wait"
	case Turnaround:
		return "resp"
	case Utilization:
		return "util"
	case FairMaxBoundedSlowdown:
		return "fair-bsld"
	}
	return fmt.Sprintf("metrics.Kind(%d)", int(k))
}

// ParseKind maps a metric name (as printed by String) back to its Kind.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("metrics: unknown kind %q", s)
}

// Maximize reports whether larger values of the metric are better.
func (k Kind) Maximize() bool { return k == Utilization }

// Result is a finished scheduling run: the completed jobs plus the
// utilization the simulator measured over the run's horizon.
type Result struct {
	Jobs        []*job.Job
	Utilization float64

	// Migration accounting, filled by fleet runs with cross-cluster
	// migration enabled (zero-valued everywhere else). Migrated jobs keep
	// their original arrival time, so every job-averaged metric above
	// measures waits from true submission wherever the job finally ran —
	// migration can only look good by actually starting jobs earlier.

	// MigratedJobs lists the jobs that were re-placed at least once; a
	// subset of Jobs (each migrated job is counted on the cluster it
	// finally ran on).
	MigratedJobs []*job.Job
	// Moves is the total number of migration moves; at least
	// len(MigratedJobs), since a job may move more than once.
	Moves int
	// MigrationDelaySum is Σ over MigratedJobs of (last re-placement
	// instant − submit time): how long each migrated job had been queued
	// when the controller finally moved it.
	MigrationDelaySum float64
}

// Value computes the metric over the result. Unstarted jobs are ignored.
func Value(k Kind, r Result) float64 {
	switch k {
	case Utilization:
		return r.Utilization
	case FairMaxBoundedSlowdown:
		return FairMax(r.Jobs, BoundedSlowdown)
	}
	n := 0
	sum := 0.0
	for _, j := range r.Jobs {
		if !j.Started() {
			continue
		}
		sum += perJob(k, j)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func perJob(k Kind, j *job.Job) float64 {
	switch k {
	case BoundedSlowdown:
		return j.BoundedSlowdown(BsldThreshold)
	case Slowdown:
		return j.Slowdown()
	case WaitTime:
		return j.Wait()
	case Turnaround:
		return j.Turnaround()
	}
	return 0
}

// FairMax returns the maximum over users of the per-user average of the
// given base metric (0 when nothing has started). Jobs without user
// information (UserID < 0) form a single bucket. It is the Max of the full
// per-user surface in fairness.go: Fairness(jobs, base) carries the same
// value alongside Jain's index and the max/mean ratio.
func FairMax(jobs []*job.Job, base Kind) float64 {
	users := PerUser(jobs, base)
	if len(users) == 0 {
		return 0
	}
	return FairnessOf(users).Max
}

// Merge combines per-cluster scheduling results into one fleet-wide
// result: the job sets concatenate (so job-averaged metrics weight every
// job equally, wherever it ran) and utilization is the weighted mean of
// the member utilizations — the busy fraction of the whole fleet when
// weights[i] is member i's capacity over the fleet's horizon: its cluster
// size, scaled by the share of the horizon it was a member for.
func Merge(rs []Result, weights []float64) Result {
	if len(rs) != len(weights) {
		panic("metrics: Merge needs one weight per result")
	}
	var merged Result
	total := 0.0
	weighted := 0.0
	for i, r := range rs {
		merged.Jobs = append(merged.Jobs, r.Jobs...)
		weighted += r.Utilization * weights[i]
		total += weights[i]
		merged.MigratedJobs = append(merged.MigratedJobs, r.MigratedJobs...)
		merged.Moves += r.Moves
		merged.MigrationDelaySum += r.MigrationDelaySum
	}
	if total > 0 {
		merged.Utilization = weighted / total
	}
	return merged
}

// MigrationSplit computes the metric separately over the migrated and the
// natively placed jobs of a result — the "did re-placement actually help
// the jobs it touched" view. Membership is by job identity against
// MigratedJobs; for Utilization (a cluster property, not a job property)
// both halves report the result's overall utilization.
func MigrationSplit(k Kind, r Result) (migrated, native float64) {
	isMigrated := make(map[*job.Job]bool, len(r.MigratedJobs))
	for _, j := range r.MigratedJobs {
		isMigrated[j] = true
	}
	var mjobs, njobs []*job.Job
	for _, j := range r.Jobs {
		if isMigrated[j] {
			mjobs = append(mjobs, j)
		} else {
			njobs = append(njobs, j)
		}
	}
	m := Result{Jobs: mjobs, Utilization: r.Utilization}
	n := Result{Jobs: njobs, Utilization: r.Utilization}
	return Value(k, m), Value(k, n)
}

// MeanMigrationDelay returns the average time a migrated job had been
// queued when it was last re-placed (0 when nothing migrated) — the
// per-job migration delay aggregated over the result.
func MeanMigrationDelay(r Result) float64 {
	if len(r.MigratedJobs) == 0 {
		return 0
	}
	return r.MigrationDelaySum / float64(len(r.MigratedJobs))
}

// Reward converts the metric of a finished sequence into the scalar reward
// the agent maximizes: the metric itself for maximization goals, its
// negation for minimization goals (§IV-A: reward = −bsld, reward = util).
func Reward(k Kind, r Result) float64 {
	v := Value(k, r)
	if k.Maximize() {
		return v
	}
	return -v
}
