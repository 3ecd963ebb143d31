package fleet

import (
	"fmt"
	"math"
	"sort"

	"rlsched/internal/metrics"
	"rlsched/internal/telemetry"
)

// Continuous fleet health sampling (DESIGN.md §11): with sampling enabled,
// a sample tick is one more timed hook of Run's single event loop (see
// hooksUntil), interleaved with arrivals, migration sweeps and churn
// actions. A tick advances the members with events due to the sample
// instant (advanceMembers — exactly what the next arrival or sweep would
// have done anyway) and then only *reads*: per-cluster utilization, queue
// depth, pending/running work, and fleet-wide bounded-slowdown-so-far,
// migration rate and the fairness Jain index go into telemetry series.
// Because advancing a member to an intermediate instant is observationally
// a no-op (the monotone pump-fixpoint argument of heap.go), and Run reads
// its utilization horizon off completions rather than member clocks, a
// sampled run produces byte-identical placements and metrics to an
// unsampled one — pinned by the sampling parity test.

// SamplingConfig parameterizes fleet health sampling.
type SamplingConfig struct {
	// Interval is the global-clock period between samples, in simulation
	// seconds. Required (> 0).
	Interval float64
	// Set receives the sampled series. Required. Each Run resets it, so
	// an exported artifact covers exactly one run.
	Set *telemetry.Set
}

// sampler is the run-scoped sampling state: the tick schedule, the
// incremental completion cursors (independent of the stateful-scorer
// cursors in member.doneCursor) and the running bsld / per-user
// aggregates they feed.
type sampler struct {
	cfg  SamplingConfig
	next float64
	// start is the run's first arrival — utilization-so-far is measured
	// over [start, ts], the same horizon convention as Run's final pass.
	start float64
	// cursors[i] marks how much of member i's completion log this
	// sampler has folded into the aggregates below.
	cursors []int
	// bsldSum/bsldN accumulate bounded slowdown over every completion so
	// far; userIDs/userSums/userCounts the per-user split behind the Jain
	// index — parallel arrays kept sorted by user ID incrementally, so a
	// sample tick reads them with a flat walk instead of sorting (the
	// per-tick cost is what the sampled fleet benchmark bounds).
	bsldSum    float64
	bsldN      int
	userIDs    []int
	userSums   []float64
	userCounts []int
	// lastMoves is the migration-move total at the previous sample (the
	// per-interval migration rate is the delta).
	lastMoves int
	users     []metrics.UserMean // reused Jain scratch
	// Series handles are resolved once per run — a sample tick must not
	// pay name-building or map lookups (the <3% overhead bound of the
	// sampled fleet benchmark).
	perMember []memberSeries
	fleet     fleetSeries
	// retired[i] stops member i's per-cluster series: set by retire()
	// when churn removes a member mid-run. The member still contributes to
	// the fleet-wide sums while its running jobs finish — physical truth —
	// but its trajectory ends at the retirement instant.
	retired []bool
}

// memberSeries holds one member's per-cluster trajectory handles.
type memberSeries struct {
	util, depth, pend, run *telemetry.Series
}

// fleetSeries holds the fleet-wide trajectory handles.
type fleetSeries struct {
	depth, pend, run, bsld, completed, jain, migrations *telemetry.Series
}

// EnableSampling turns on periodic health sampling for subsequent Runs.
// Sampling is strictly passive: results are byte-identical with and
// without it (pinned by the sampling parity test), and a disabled fleet
// pays only a nil check per arrival.
func (f *Fleet) EnableSampling(cfg SamplingConfig) error {
	// Negated comparison so a NaN interval fails loudly instead of
	// silently never sampling.
	if !(cfg.Interval > 0) {
		return fmt.Errorf("fleet: sampling interval must be positive, got %g", cfg.Interval)
	}
	if cfg.Set == nil {
		return fmt.Errorf("fleet: sampling needs a telemetry.Set")
	}
	f.samCfg = &cfg
	return nil
}

// newSampler builds the run-scoped sampler: the Set is reset, the first
// tick lands one interval after the first arrival.
func (f *Fleet) newSampler(firstArrival float64) *sampler {
	s := &sampler{
		cfg:     *f.samCfg,
		next:    firstArrival + f.samCfg.Interval,
		start:   firstArrival,
		cursors: make([]int, len(f.members)),
	}
	s.cfg.Set.Reset()
	set := s.cfg.Set
	s.perMember = make([]memberSeries, len(f.members))
	s.retired = make([]bool, len(f.members))
	for i, m := range f.members {
		pre := "cluster." + m.name + "."
		s.perMember[i] = memberSeries{
			util:  set.Series(pre + "util"),
			depth: set.Series(pre + "queue_depth"),
			pend:  set.Series(pre + "pending_work"),
			run:   set.Series(pre + "running_work"),
		}
	}
	s.fleet = fleetSeries{
		depth:      set.Series("fleet.queue_depth"),
		pend:       set.Series("fleet.pending_work"),
		run:        set.Series("fleet.running_work"),
		bsld:       set.Series("fleet.bsld_so_far"),
		completed:  set.Series("fleet.completed"),
		jain:       set.Series("fleet.fairness_jain"),
		migrations: set.Series("fleet.migrations"),
	}
	return s
}

// addMember grows the sampler's per-member state for a mid-run join
// (churn.go): fresh series handles, a zero completion cursor.
func (s *sampler) addMember(name string) {
	set := s.cfg.Set
	pre := "cluster." + name + "."
	s.perMember = append(s.perMember, memberSeries{
		util:  set.Series(pre + "util"),
		depth: set.Series(pre + "queue_depth"),
		pend:  set.Series(pre + "pending_work"),
		run:   set.Series(pre + "running_work"),
	})
	s.cursors = append(s.cursors, 0)
	s.retired = append(s.retired, false)
}

// retire stops member i's per-cluster series from the current instant on
// (its completion cursor keeps absorbing — a drained member's running jobs
// still finish there and their bounded slowdowns count).
func (s *sampler) retire(i int) { s.retired[i] = true }

// absorbCompletions folds every completion since the previous sample into
// the running bsld and per-user aggregates, members in index order.
func (s *sampler) absorbCompletions(f *Fleet) {
	for i, m := range f.members {
		log := m.sim.Completions()
		for _, j := range log[s.cursors[i]:] {
			v := j.BoundedSlowdown(metrics.BsldThreshold)
			s.bsldSum += v
			s.bsldN++
			u := j.UserID
			if u < 0 {
				u = -1
			}
			k := sort.SearchInts(s.userIDs, u)
			if k == len(s.userIDs) || s.userIDs[k] != u {
				s.userIDs = append(s.userIDs, 0)
				copy(s.userIDs[k+1:], s.userIDs[k:])
				s.userIDs[k] = u
				s.userSums = append(s.userSums, 0)
				copy(s.userSums[k+1:], s.userSums[k:])
				s.userSums[k] = 0
				s.userCounts = append(s.userCounts, 0)
				copy(s.userCounts[k+1:], s.userCounts[k:])
				s.userCounts[k] = 0
			}
			s.userSums[k] += v
			s.userCounts[k]++
		}
		s.cursors[i] = len(log)
	}
}

// jain summarizes the per-user bsld means collected so far (the same
// aggregation metrics.PerUser performs over a finished run — the arrays
// are already user-ID sorted, so this is one linear pass).
func (s *sampler) jain() metrics.FairnessReport {
	users := s.users[:0]
	for k, u := range s.userIDs {
		users = append(users, metrics.UserMean{
			UserID: u, Jobs: s.userCounts[k], Mean: s.userSums[k] / float64(s.userCounts[k]),
		})
	}
	s.users = users
	return metrics.FairnessOf(users)
}

// sample captures one fleet snapshot at global time ts. Members with
// events due have already been advanced (advanceMembers); the remaining
// members get a pure clock move so the busy-time integral behind
// utilization-so-far covers [start, ts] exactly — AdvanceClock to an
// instant before a member's next event fires nothing and changes no
// scheduler-visible state.
func (s *sampler) sample(f *Fleet, ts float64, mig *migrator) {
	s.absorbCompletions(f)
	var pendSum, runSum float64
	var depthSum int
	for i, m := range f.members {
		m.sim.AdvanceClock(ts)
		depth := m.sim.PendingCount()
		pend := m.sim.PendingWork()
		run := m.sim.RunningWorkAt(ts)
		depthSum += depth
		pendSum += pend
		runSum += run
		if s.retired[i] {
			// The member's trajectory ended at retirement; its remaining
			// running work still counts in the fleet sums above.
			continue
		}
		sr := &s.perMember[i]
		// Over the member's lifetime so far, as Run's merge measures it.
		sr.util.Add(ts, m.sim.UtilizationOver(math.Max(s.start, m.joinAt), ts))
		sr.depth.Add(ts, float64(depth))
		sr.pend.Add(ts, pend)
		sr.run.Add(ts, run)
	}
	s.fleet.depth.Add(ts, float64(depthSum))
	s.fleet.pend.Add(ts, pendSum)
	s.fleet.run.Add(ts, runSum)
	bsld := 0.0
	if s.bsldN > 0 {
		bsld = s.bsldSum / float64(s.bsldN)
	}
	s.fleet.bsld.Add(ts, bsld)
	s.fleet.completed.Add(ts, float64(s.bsldN))
	rep := s.jain()
	s.fleet.jain.Add(ts, rep.Jain)
	moves := 0
	if mig != nil {
		moves = mig.moves
	}
	s.fleet.migrations.Add(ts, float64(moves-s.lastMoves))
	s.lastMoves = moves
}

// finalSample closes every trajectory with one reading at the run
// horizon, after the final clock pass aligned all members at end.
func (s *sampler) finalSample(f *Fleet, end float64, mig *migrator) {
	if sr := s.fleet.bsld; len(sr.Points) > 0 && sr.Last().T >= end {
		return
	}
	s.sample(f, end, mig)
}
