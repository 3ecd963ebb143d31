package fleet

// Event-heap stepping (DESIGN.md §10). The fleet keeps a global min-heap
// over member next-event times so that bringing the fleet to an arrival
// instant wakes only the members with internal events due — an idle
// member costs nothing per placement, making fleet stepping sublinear in
// fleet size. Plugin-visible candidate state is cached per member and
// invalidated by push (markDirty at every mutation point: wake, submit,
// migration withdraw/resubmit) rather than rebuilt per placement.
//
// The heap is lazy: entries are never removed in place. Each member
// carries a stamp, every entry records the stamp it was pushed under, and
// an entry whose stamp no longer matches its member is stale and discarded
// on pop. touch() re-arms a member after any operation that may have
// changed its next event by bumping the stamp (invalidating the old entry)
// and pushing a fresh one.
//
// Correctness of skipping members rests on the pump fixpoint being
// monotone between events: with no submissions and no completions, free
// processors, quota headroom and the visible queue are all unchanged, and
// every backfill admission test (EASY's ends-in-time bound, conservative's
// reservation gap) only gets harder as the clock grows — so a member that
// was at fixpoint stays at fixpoint and advancing it is observationally
// a no-op. The full-sweep reference path (Fleet.fullSweep) advances every
// member and rebuilds every candidate at every arrival anyway. It is not a
// knob: only this package's tests set it, as the oracle the heap path is
// pinned byte-identical to, and BenchmarkFleetScale, as the baseline the
// heap's speedup is measured against.

import (
	"sort"

	"rlsched/internal/sim"
)

// eventEntry is one (time, member, stamp) entry of the fleet event heap.
type eventEntry struct {
	t     float64
	idx   int
	stamp uint64
}

// eventHeap is a hand-rolled min-heap of eventEntry ordered by (t, idx) —
// manual sift operations avoid the per-push boxing of container/heap on
// the placement hot path. Ties break on member index so wake order is
// deterministic.
type eventHeap []eventEntry

func (h eventHeap) less(i, j int) bool {
	return h[i].t < h[j].t || (h[i].t == h[j].t && h[i].idx < h[j].idx)
}

func (h *eventHeap) push(e eventEntry) {
	q := append(*h, e)
	*h = q
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *eventHeap) pop() eventEntry {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q.less(r, c) {
			c = r
		}
		if !q.less(c, i) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	return top
}

// SetWorkers sets how many goroutines step woken members per advance
// (n <= 1 keeps stepping serial, the default). Member simulators are
// disjoint, and the wake list is partitioned into a fixed number of
// index-ordered blocks with any error reduced in block order, so results
// are byte-identical for every worker count. A run with a recorder
// attached steps serially regardless (members share the recorder).
func (f *Fleet) SetWorkers(n int) { f.workers = n }

// touch re-arms member i's heap entry after an operation that may have
// changed its next event: the stamp bump invalidates any live entry, and a
// fresh one is pushed when the member still has an event. No-op in
// full-sweep mode, which never consults the heap.
func (f *Fleet) touch(i int) {
	if f.fullSweep {
		return
	}
	m := f.members[i]
	m.stamp++
	if t, ok := m.sim.NextEventTime(); ok {
		f.events.push(eventEntry{t: t, idx: i, stamp: m.stamp})
	}
}

// markDirty invalidates member i's cached candidate state; the next
// candidatesAt refreshes exactly the marked members.
func (f *Fleet) markDirty(i int) {
	if !f.dirtyFlag[i] {
		f.dirtyFlag[i] = true
		f.dirtyList = append(f.dirtyList, i)
	}
}

// markObs marks member i as possibly holding unobserved completions; the
// next observeCompletions reads only marked members' log tails. No-op for
// stateless routers.
func (f *Fleet) markObs(i int) {
	if len(f.stateful) == 0 {
		return
	}
	if !f.obsFlag[i] {
		f.obsFlag[i] = true
		f.obsList = append(f.obsList, i)
	}
}

// advanceMembers brings the fleet to global time t. Heap mode wakes only
// the members with events due at or before t (in member-index order);
// full-sweep mode advances everyone. Woken members are marked dirty and
// observation-pending, and re-armed in the heap.
func (f *Fleet) advanceMembers(t float64) error {
	if f.fullSweep {
		for i, m := range f.members {
			m.syncs++
			if err := m.syncTo(t); err != nil {
				return err
			}
			f.markDirty(i)
			f.markObs(i)
		}
		return nil
	}
	wake := f.wake[:0]
	for len(f.events) > 0 {
		e := f.events[0]
		if e.stamp != f.members[e.idx].stamp {
			f.events.pop()
			continue
		}
		if e.t > t {
			break
		}
		f.events.pop()
		wake = append(wake, e.idx)
	}
	f.wake = wake
	if len(wake) == 0 {
		return nil
	}
	// Entries pop in time order; stepping and state feeds want member-index
	// order (each member appears at most once — one live entry per stamp).
	sort.Ints(wake)
	if err := f.stepWake(t, wake); err != nil {
		return err
	}
	for _, i := range wake {
		f.markDirty(i)
		f.markObs(i)
		f.touch(i)
	}
	return nil
}

// candidatesAt refreshes the plugin-visible state of the fleet at global
// time t and returns the candidate slice. Only members marked dirty have
// their queue- and resource-dependent fields rebuilt; every candidate gets
// the clock, and remaining running work is re-evaluated for members that
// actually hold allocations (RunningWorkAt needs no clock advance — a
// running job ending at or before t would have been a wake event). When
// the router declared itself ClockFree, the fleet-wide Now write is
// skipped and only active members pay the running-work re-evaluation —
// idle candidates keep RunningWork pinned to 0 by the dirty refresh.
func (f *Fleet) candidatesAt(t float64) []*Candidate {
	for _, i := range f.dirtyList {
		m := f.members[i]
		c := &f.candStore[i]
		if m.state == stateRetired {
			// A retired member advertises zero capacity: TotalProcs = 0
			// fails the capacity filter on every router path (fast pass,
			// generic loop, unscored baselines, migration's NaN-incumbent
			// rule), so hard exclusion needs no router changes.
			c.View = sim.ClusterView{}
			c.Visible = nil
			c.Pending = 0
			c.PendingWork = 0
			c.RunningWork = 0
			c.Draining = false
			c.DrainTime = 0
			c.Evicting = false
			f.active[i] = false
			f.dirtyFlag[i] = false
			continue
		}
		c.View = m.sim.View()
		c.Visible = m.sim.Visible()
		c.Pending = m.sim.PendingCount()
		c.PendingWork = m.sim.PendingWork()
		c.Draining = m.state == stateDraining
		c.DrainTime = m.drainAt
		c.Evicting = m.evicting
		f.active[i] = c.View.FreeProcs < c.View.TotalProcs
		if !f.active[i] {
			c.RunningWork = 0
		}
		f.dirtyFlag[i] = false
	}
	f.dirtyList = f.dirtyList[:0]
	// The full-sweep reference keeps the unconditional rebuild — it is the
	// faithful pre-heap path benchmarks measure against.
	if f.clockFree && !f.fullSweep {
		for i, a := range f.active {
			if a {
				f.candStore[i].RunningWork = f.sims[i].RunningWorkAt(t)
			}
		}
		return f.cands
	}
	for i := range f.candStore {
		c := &f.candStore[i]
		c.Now = t
		if f.active[i] {
			c.RunningWork = f.sims[i].RunningWorkAt(t)
		} else {
			c.RunningWork = 0
		}
	}
	return f.cands
}

// nextFleetEvent reports the earliest pending internal event across the
// fleet: a lazy heap peek (discarding stale entries) in heap mode, a full
// member scan in full-sweep mode.
func (f *Fleet) nextFleetEvent() (float64, bool) {
	if f.fullSweep {
		next, any := 0.0, false
		for _, m := range f.members {
			if t, ok := m.sim.NextEventTime(); ok && (!any || t < next) {
				next, any = t, true
			}
		}
		return next, any
	}
	for len(f.events) > 0 {
		e := f.events[0]
		if e.stamp != f.members[e.idx].stamp {
			f.events.pop()
			continue
		}
		return e.t, true
	}
	return 0, false
}
