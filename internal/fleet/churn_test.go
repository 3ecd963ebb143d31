package fleet

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rlsched/internal/job"
	"rlsched/internal/metrics"
	"rlsched/internal/sched"
	"rlsched/internal/sim"
	"rlsched/internal/telemetry"
	"rlsched/internal/trace"
)

// Tests of cluster churn (churn.go): the lifecycle state machine, job
// conservation through withdraws and evictions, byte-parity of the
// churn-free path, heap/full-sweep equivalence under churn, candidate
// visibility of announcements, and the per-cluster state retirement of
// stateful scorers and the sampler.

// checkJobConservation asserts every stream job completed exactly once.
func checkJobConservation(t *testing.T, stream []*job.Job, res *Result) {
	t.Helper()
	if len(res.Fleet.Jobs) != len(stream) {
		t.Fatalf("conservation: %d jobs in, %d completed", len(stream), len(res.Fleet.Jobs))
	}
	seen := make(map[int]int, len(stream))
	for _, j := range stream {
		seen[j.ID]++
	}
	for _, j := range res.Fleet.Jobs {
		seen[j.ID]--
		if seen[j.ID] < 0 {
			t.Fatalf("conservation: job %d completed more than once", j.ID)
		}
	}
	for id, n := range seen {
		if n != 0 {
			t.Fatalf("conservation: job %d never completed", id)
		}
	}
}

// churnTestPlan is a three-event lifecycle against heteroMembers fleets:
// a join early, an announced failure of "mid", a graceful drain of
// "small" near the end of the stream's span.
func churnTestPlan(stream []*job.Job) ChurnPlan {
	span := stream[len(stream)-1].SubmitTime - stream[0].SubmitTime
	at := func(frac float64) float64 { return stream[0].SubmitTime + frac*span }
	return ChurnPlan{
		{Kind: ChurnJoin, Time: at(0.1), Member: MemberConfig{
			Name: "late", Sim: sim.Config{Processors: 128, MaxObserve: 32}, Scheduler: sched.SJF()}},
		{Kind: ChurnFail, Time: at(0.6), Name: "mid", Notice: 0.2 * span},
		{Kind: ChurnDrain, Time: at(0.9), Name: "small", Notice: 0.1 * span},
	}
}

// TestChurnDisabledByteParity pins the zero-cost default: a fleet that
// never enabled churn, and one that installed a plan and removed it again,
// produce byte-identical results — the churn-free code path is untouched.
func TestChurnDisabledByteParity(t *testing.T) {
	stream := lublinStream(t, 250, 17)
	ll := func() Router { return LeastLoadedPipeline() }
	ref := runVariant(t, heteroMembers(), ll, stream, nil)
	got := runVariant(t, heteroMembers(), ll, stream, func(f *Fleet) {
		if err := f.EnableChurn(churnTestPlan(stream)); err != nil {
			t.Fatal(err)
		}
		if err := f.EnableChurn(nil); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(ref, got) {
		t.Fatal("enabling and removing a churn plan changed the churn-free run")
	}
}

// TestChurnLifecycle runs the full plan and checks the executed stats, the
// conservation invariant, and that the fleet is reusable: a second Run
// re-executes the plan from scratch to identical results.
func TestChurnLifecycle(t *testing.T) {
	stream := lublinStream(t, 300, 19)
	for _, rc := range []struct {
		name  string
		build func() Router
	}{
		{"least-loaded", func() Router { return LeastLoadedPipeline() }},
		{"churn-aware", func() Router { return ChurnAwarePipeline() }},
	} {
		t.Run(rc.name, func(t *testing.T) {
			f, err := New(heteroMembers(), rc.build())
			if err != nil {
				t.Fatal(err)
			}
			if err := f.EnableChurn(churnTestPlan(stream)); err != nil {
				t.Fatal(err)
			}
			res, err := f.Run(cloneStream(stream))
			if err != nil {
				t.Fatal(err)
			}
			checkJobConservation(t, stream, res)
			if res.Churn.Joins != 1 || res.Churn.Fails != 1 || res.Churn.Drains != 1 {
				t.Fatalf("executed %d/%d/%d joins/fails/drains, want 1/1/1",
					res.Churn.Joins, res.Churn.Fails, res.Churn.Drains)
			}
			if res.Churn.Forced == 0 {
				t.Fatal("fail+drain forced no re-placements; the plan exercised nothing")
			}
			res2, err := f.Run(cloneStream(stream))
			if err != nil {
				t.Fatal(err)
			}
			if a, b := marshalResult(t, res), marshalResult(t, res2); !bytes.Equal(a, b) {
				t.Fatal("re-running the same churned fleet diverged")
			}
		})
	}
}

// TestChurnConservationProperty is the randomized churn anchor: random
// fleets under random plans — joins, graceful drains and failures with and
// without notice, never removing the one guaranteed-largest member and
// leaving at least two members serving — conserve every job.
func TestChurnConservationProperty(t *testing.T) {
	iters := 8
	if testing.Short() {
		iters = 3
	}
	for iter := 0; iter < iters; iter++ {
		iter := iter
		t.Run(fmt.Sprintf("iter%d", iter), func(t *testing.T) {
			seed := int64(4021 + 53*iter)
			rng := rand.New(rand.NewSource(seed))
			n := 4 + rng.Intn(6)
			members := randomScaleMembers(rng, n)
			// Member 0 is the anchor every job fits on; never churned out.
			members[0].Sim.Processors = 256
			stream := lublinStream(t, 200+rng.Intn(100), seed)
			span := stream[len(stream)-1].SubmitTime - stream[0].SubmitTime
			start := stream[0].SubmitTime

			var plan ChurnPlan
			if rng.Intn(2) == 0 {
				plan = append(plan, ChurnEvent{
					Kind: ChurnJoin, Time: start + rng.Float64()*span,
					Member: MemberConfig{
						Name:      "joined",
						Sim:       sim.Config{Processors: 128, MaxObserve: 32},
						Scheduler: sched.FCFS(),
					},
				})
			}
			removals := rng.Intn(n - 1) // leaves member 0 plus one more
			perm := rng.Perm(n - 1)
			for r := 0; r < removals; r++ {
				ev := ChurnEvent{
					Kind: ChurnDrain,
					Name: members[1+perm[r]].Name,
					Time: start + rng.Float64()*span,
				}
				if rng.Intn(2) == 0 {
					ev.Kind = ChurnFail
				}
				if rng.Intn(2) == 0 {
					ev.Notice = rng.Float64() * 0.2 * span
				}
				plan = append(plan, ev)
			}

			f, err := New(members, LeastLoadedPipeline())
			if err != nil {
				t.Fatal(err)
			}
			if err := f.EnableChurn(plan); err != nil {
				t.Fatal(err)
			}
			res, err := f.Run(cloneStream(stream))
			if err != nil {
				t.Fatal(err)
			}
			checkJobConservation(t, stream, res)
			wantDrains, wantFails := 0, 0
			for _, ev := range plan {
				switch ev.Kind {
				case ChurnDrain:
					wantDrains++
				case ChurnFail:
					wantFails++
				}
			}
			if res.Churn.Drains != wantDrains || res.Churn.Fails != wantFails {
				t.Fatalf("executed %d/%d drains/fails, want %d/%d",
					res.Churn.Drains, res.Churn.Fails, wantDrains, wantFails)
			}
		})
	}
}

// TestHeapFullSweepParityWithChurn extends the heap/full-sweep byte-parity
// property to churned runs: membership changes ride the event machinery, so
// the heap path (serial and parallel) must keep producing results identical
// to the full-sweep reference, for stateless and stateful routers alike.
// Each seed also runs on a one-minute time grid (gridTimes) with
// grid-aligned churn instants and sample ticks, so completions, arrivals,
// churn actions and samples share instants.
func TestHeapFullSweepParityWithChurn(t *testing.T) {
	iters := 4
	if testing.Short() {
		iters = 2
	}
	for k := 0; k < 2*iters; k++ {
		iter, grid := k%iters, k >= iters
		name := fmt.Sprintf("iter%d", iter)
		if grid {
			name += "-grid"
		}
		t.Run(name, func(t *testing.T) {
			seed := int64(7001 + 41*iter)
			rng := rand.New(rand.NewSource(seed))
			n := 20 + rng.Intn(30)
			members := randomScaleMembers(rng, n)
			members[0].Sim.Processors = 256
			stream := lublinStream(t, 250, seed)
			snap := func(x float64) float64 { return x }
			if grid {
				gridTimes(stream, 60)
				snap = func(x float64) float64 { return 60 * math.Round(x/60) }
			}
			span := stream[len(stream)-1].SubmitTime - stream[0].SubmitTime
			start := stream[0].SubmitTime
			plan := ChurnPlan{
				{Kind: ChurnJoin, Time: snap(start + 0.15*span), Member: MemberConfig{
					Name: "joined", Sim: sim.Config{Processors: 128, MaxObserve: 32}, Scheduler: sched.SJF()}},
				{Kind: ChurnFail, Time: snap(start + 0.5*span), Name: members[1].Name, Notice: snap(0.1 * span)},
				{Kind: ChurnDrain, Time: snap(start + 0.8*span), Name: members[2].Name, Notice: snap(0.05 * span)},
			}
			routers := map[string]func() Router{
				"churn-aware": func() Router { return ChurnAwarePipeline() },
				"fairness":    func() Router { return FairnessPipeline(FairnessConfig{}) },
			}
			for name, router := range routers {
				churn := func(f *Fleet) {
					if err := f.EnableChurn(plan); err != nil {
						t.Fatal(err)
					}
					if grid {
						if err := f.EnableSampling(SamplingConfig{Interval: snap(span / 16), Set: telemetry.NewSet()}); err != nil {
							t.Fatal(err)
						}
					}
				}
				ref := runVariant(t, members, router, stream, func(f *Fleet) {
					f.fullSweep = true
					churn(f)
				})
				heap := runVariant(t, members, router, stream, churn)
				workers := runVariant(t, members, router, stream, func(f *Fleet) {
					f.SetWorkers(4)
					churn(f)
				})
				if !bytes.Equal(ref, heap) {
					t.Fatalf("%s: heap diverges from full-sweep under churn (n=%d seed=%d)", name, n, seed)
				}
				if !bytes.Equal(ref, workers) {
					t.Fatalf("%s: workers=4 diverges from full-sweep under churn (n=%d seed=%d)", name, n, seed)
				}
			}
		})
	}
}

// TestDrainThenReAddParity pins the between-runs lifecycle API: draining a
// member and adding an identically sized replacement schedules exactly like
// a fleet built with the replacement from the start — the drained member is
// invisible (zero capacity) and placement order is preserved.
func TestDrainThenReAddParity(t *testing.T) {
	stream := lublinStream(t, 250, 37)

	churned, err := New(heteroMembers(), LeastLoadedPipeline())
	if err != nil {
		t.Fatal(err)
	}
	if err := churned.Drain("small"); err != nil {
		t.Fatal(err)
	}
	replacement := MemberConfig{
		Name: "small2", Sim: sim.Config{Processors: 64, MaxObserve: 32}, Scheduler: sched.SJF()}
	if err := churned.AddMember(replacement); err != nil {
		t.Fatal(err)
	}
	churnedStream := cloneStream(stream)
	churnedRes, err := churned.Run(churnedStream)
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := New([]MemberConfig{
		heteroMembers()[0], heteroMembers()[1], replacement}, LeastLoadedPipeline())
	if err != nil {
		t.Fatal(err)
	}
	freshStream := cloneStream(stream)
	freshRes, err := fresh.Run(freshStream)
	if err != nil {
		t.Fatal(err)
	}

	for i := range stream {
		if a, b := churnedStream[i].StartTime, freshStream[i].StartTime; a != b {
			t.Fatalf("job %d: drained-then-readded fleet starts at %g, fresh fleet at %g", i, a, b)
		}
		an := churned.members[churnedRes.Assignments[i]].name
		bn := fresh.members[freshRes.Assignments[i]].name
		if an != bn {
			t.Fatalf("job %d: placed on %q vs %q", i, an, bn)
		}
	}
	for _, k := range []metrics.Kind{metrics.BoundedSlowdown, metrics.Utilization} {
		if a, b := metrics.Value(k, churnedRes.Fleet), metrics.Value(k, freshRes.Fleet); a != b {
			t.Fatalf("%v: %g vs %g", k, a, b)
		}
	}
	// The drained member served nothing.
	for _, c := range churnedRes.Clusters {
		if c.Name == "small" && c.Placements != 0 {
			t.Fatalf("drained member served %d placements", c.Placements)
		}
	}
}

// TestAddMemberDrainValidation covers the between-runs API error surface.
func TestAddMemberDrainValidation(t *testing.T) {
	f, err := New(heteroMembers(), NewRoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	bad := []MemberConfig{
		{},
		{Name: "x"},
		{Name: "x", Scheduler: sched.FCFS()},
		{Name: "large", Sim: sim.Config{Processors: 64}, Scheduler: sched.FCFS()},
	}
	for i, mc := range bad {
		if err := f.AddMember(mc); err == nil {
			t.Fatalf("AddMember case %d: bad config accepted", i)
		}
	}
	if err := f.Drain("nope"); err == nil {
		t.Fatal("Drain of unknown member accepted")
	}
	if err := f.Drain("small"); err != nil {
		t.Fatal(err)
	}
	if err := f.Drain("small"); err == nil {
		t.Fatal("double Drain accepted")
	}
	if err := f.Drain("mid"); err != nil {
		t.Fatal(err)
	}
	if err := f.Drain("large"); err == nil {
		t.Fatal("draining the last serving member accepted")
	}
}

// TestChurnPlanValidation covers EnableChurn's structural checks.
func TestChurnPlanValidation(t *testing.T) {
	f, err := New(heteroMembers(), NewRoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	join := MemberConfig{Name: "j", Sim: sim.Config{Processors: 64}, Scheduler: sched.FCFS()}
	bad := []ChurnPlan{
		{{Kind: ChurnJoin, Time: math.NaN(), Member: join}},
		{{Kind: ChurnJoin, Time: math.Inf(1), Member: join}},
		{{Kind: ChurnJoin, Time: 1}},
		{{Kind: ChurnJoin, Time: 1, Member: MemberConfig{Name: "j"}}},
		{{Kind: ChurnJoin, Time: 1, Member: MemberConfig{Name: "j", Scheduler: sched.FCFS()}}},
		{{Kind: ChurnDrain, Time: 1}},
		{{Kind: ChurnDrain, Time: 1, Name: "small", Notice: -5}},
		{{Kind: ChurnDrain, Time: 1, Name: "small", Notice: math.NaN()}},
		{{Kind: ChurnFail, Time: 1}},
		{{Kind: ChurnFail, Time: 1, Name: "small", Notice: -1}},
		{{Kind: ChurnKind(99), Time: 1}},
	}
	for i, plan := range bad {
		if err := f.EnableChurn(plan); err == nil {
			t.Fatalf("plan %d: invalid plan accepted", i)
		}
	}
	// A run-time failure, not a validation one: draining an absent member.
	if err := f.EnableChurn(ChurnPlan{{Kind: ChurnDrain, Time: 1, Name: "ghost"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(cloneStream(lublinStream(t, 50, 5))); err == nil {
		t.Fatal("run with a plan targeting an absent member succeeded")
	}
}

// probeRouter wraps a pipeline and snapshots the announcement fields of
// every candidate at each placement instant.
type probeRouter struct {
	inner Router
	snaps []probeSnap
}

type probeSnap struct {
	now   float64
	cands []Candidate
}

func (p *probeRouter) Name() string { return p.inner.Name() }

func (p *probeRouter) Place(j *job.Job, cands []*Candidate) int {
	snap := probeSnap{now: cands[0].Now}
	for _, c := range cands {
		snap.cands = append(snap.cands, Candidate{
			Name: c.Name, View: c.View, Draining: c.Draining,
			DrainTime: c.DrainTime, Evicting: c.Evicting,
		})
	}
	p.snaps = append(p.snaps, snap)
	return p.inner.Place(j, cands)
}

// TestAnnouncementCandidateVisibility drives announced failures and drains
// through a probing router and asserts what plugins get to see: nothing
// before the announcement; Draining with the right severity flag and the
// retirement instant as DrainTime inside the window; zero capacity after.
func TestAnnouncementCandidateVisibility(t *testing.T) {
	for _, tc := range []struct {
		kind     ChurnKind
		evicting bool
	}{
		{ChurnFail, true},
		{ChurnDrain, false},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			const fireAt, notice = 10000.0, 4000.0
			members := []MemberConfig{
				{Name: "keep", Sim: sim.Config{Processors: 128, MaxObserve: 32}, Scheduler: sched.FCFS()},
				{Name: "doomed", Sim: sim.Config{Processors: 128, MaxObserve: 32}, Scheduler: sched.FCFS()},
			}
			var stream []*job.Job
			for i := 0; i < 40; i++ {
				stream = append(stream, &job.Job{
					ID: i + 1, SubmitTime: float64(i) * 400,
					RequestedProcs: 8, RequestedTime: 600, RunTime: 300,
					WaitTime: -1, RequestedMemory: -1, Status: 1,
				})
			}
			probe := &probeRouter{inner: ChurnAwarePipeline()}
			f, err := New(members, probe)
			if err != nil {
				t.Fatal(err)
			}
			plan := ChurnPlan{{Kind: tc.kind, Time: fireAt, Name: "doomed", Notice: notice}}
			if err := f.EnableChurn(plan); err != nil {
				t.Fatal(err)
			}
			res, err := f.Run(cloneStream(stream))
			if err != nil {
				t.Fatal(err)
			}
			checkJobConservation(t, stream, res)
			for _, snap := range probe.snaps {
				var doomed *Candidate
				for i := range snap.cands {
					if snap.cands[i].Name == "doomed" {
						doomed = &snap.cands[i]
					}
				}
				if doomed == nil {
					t.Fatal("doomed candidate missing from a placement")
				}
				switch {
				case snap.now < fireAt-notice:
					if doomed.Draining || doomed.DrainTime != 0 || doomed.Evicting {
						t.Fatalf("t=%g: announcement visible before its instant: %+v", snap.now, doomed)
					}
				case snap.now < fireAt:
					if !doomed.Draining || doomed.DrainTime != fireAt || doomed.Evicting != tc.evicting {
						t.Fatalf("t=%g: window state wrong: draining=%v drainTime=%g evicting=%v",
							snap.now, doomed.Draining, doomed.DrainTime, doomed.Evicting)
					}
				default:
					if doomed.View.TotalProcs != 0 {
						t.Fatalf("t=%g: retired member still advertises %d procs",
							snap.now, doomed.View.TotalProcs)
					}
				}
			}
		})
	}
}

// TestSafeOnDrainer pins the deadline gate of AvoidDraining.
func TestSafeOnDrainer(t *testing.T) {
	base := Candidate{
		View: sim.ClusterView{TotalProcs: 128, FreeProcs: 64},
		Now:  100, DrainTime: 1000, Draining: true, Evicting: true,
	}
	j := &job.Job{RequestedProcs: 32, RequestedTime: 500}
	cases := []struct {
		name string
		mut  func(*Candidate, *job.Job)
		want bool
	}{
		{"fits", func(*Candidate, *job.Job) {}, true},
		{"too wide", func(c *Candidate, j *job.Job) { j.RequestedProcs = 65 }, false},
		{"queue not empty", func(c *Candidate, j *job.Job) { c.Pending = 1 }, false},
		{"misses deadline", func(c *Candidate, j *job.Job) { j.RequestedTime = 901 }, false},
		{"exactly at deadline", func(c *Candidate, j *job.Job) { j.RequestedTime = 900 }, true},
		{"no deadline announced", func(c *Candidate, j *job.Job) { c.DrainTime = 0 }, false},
	}
	for _, tc := range cases {
		c, jj := base, *j
		tc.mut(&c, &jj)
		if got := safeOnDrainer(&jj, &c); got != tc.want {
			t.Errorf("%s: safeOnDrainer = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestAvoidDrainingScores pins the severity split: graceful drains are
// never penalized, eviction warnings are penalized exactly when unsafe.
func TestAvoidDrainingScores(t *testing.T) {
	healthy := &Candidate{View: sim.ClusterView{TotalProcs: 128, FreeProcs: 128}, Now: 100}
	graceful := &Candidate{View: sim.ClusterView{TotalProcs: 128, FreeProcs: 128},
		Now: 100, Draining: true, DrainTime: 1000}
	evictingSafe := &Candidate{View: sim.ClusterView{TotalProcs: 128, FreeProcs: 128},
		Now: 100, Draining: true, Evicting: true, DrainTime: 1000}
	evictingUnsafe := &Candidate{View: sim.ClusterView{TotalProcs: 128, FreeProcs: 8},
		Now: 100, Draining: true, Evicting: true, DrainTime: 1000}
	j := &job.Job{RequestedProcs: 32, RequestedTime: 500}
	cands := []*Candidate{healthy, graceful, evictingSafe, evictingUnsafe}
	out := make([]float64, len(cands))
	AvoidDraining{}.Score(j, cands, out)
	want := []float64{0, 0, 0, -1}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("candidate %d: score %g, want %g", i, out[i], want[i])
		}
	}
}

// TestFairnessScorerRetireCluster is the regression for stale per-cluster
// shares: retiring a cluster must drop every user's share on it — so the
// repulsion term cannot keep penalizing (or a reused index inherit) history
// from capacity that no longer exists — while the fleet-wide service record
// stays.
func TestFairnessScorerRetireCluster(t *testing.T) {
	s := NewFairnessScorer(FairnessConfig{})
	done := []*job.Job{
		{ID: 1, UserID: 7, SubmitTime: 0, RequestedTime: 100, RunTime: 100, StartTime: 50},
		{ID: 2, UserID: 7, SubmitTime: 0, RequestedTime: 100, RunTime: 100, StartTime: 500},
		{ID: 3, UserID: 9, SubmitTime: 0, RequestedTime: 100, RunTime: 100, StartTime: 90},
	}
	done[0].EndTime = done[0].StartTime + done[0].RunTime
	done[1].EndTime = done[1].StartTime + done[1].RunTime
	done[2].EndTime = done[2].StartTime + done[2].RunTime
	s.Observe(0, done[0])
	s.Observe(1, done[1])
	s.Observe(1, done[2])

	s.RetireCluster(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	for uid, u := range s.users {
		if _, ok := u.clSum[1]; ok {
			t.Fatalf("user %d keeps a share sum on retired cluster 1", uid)
		}
		if _, ok := u.clN[1]; ok {
			t.Fatalf("user %d keeps a share count on retired cluster 1", uid)
		}
	}
	if u := s.users[7]; u == nil || u.clN[0] != 1 {
		t.Fatal("user 7 lost its share on the surviving cluster 0")
	}
	if s.gN == 0 {
		t.Fatal("fleet-wide service record was dropped by RetireCluster")
	}
}

// TestSamplerChurnSeries is the regression for stale sampler state: a
// retired member's per-cluster series must stop at the retirement instant
// (not decay toward zero over the rest of the run), a joined member's
// series must exist from the join on, and sampling must stay invisible to
// scheduling under churn.
func TestSamplerChurnSeries(t *testing.T) {
	stream := lublinStream(t, 300, 43)
	plan := churnTestPlan(stream)
	build := func() *Fleet {
		f, err := New(heteroMembers(), LeastLoadedPipeline())
		if err != nil {
			t.Fatal(err)
		}
		if err := f.EnableChurn(plan); err != nil {
			t.Fatal(err)
		}
		return f
	}

	base := build()
	baseRes, err := base.Run(cloneStream(stream))
	if err != nil {
		t.Fatal(err)
	}

	set := telemetry.NewSet()
	sampled := build()
	if err := sampled.EnableSampling(SamplingConfig{Interval: 500, Set: set}); err != nil {
		t.Fatal(err)
	}
	sampledRes, err := sampled.Run(cloneStream(stream))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := marshalResult(t, baseRes), marshalResult(t, sampledRes); !bytes.Equal(a, b) {
		t.Fatal("sampling changed a churned run")
	}

	failAt := plan[1].Time
	if sr := set.Get("cluster.mid.util"); sr == nil || len(sr.Points) == 0 {
		t.Fatal("failed member has no series before its failure")
	} else if last := sr.Last().T; last > failAt {
		t.Fatalf("failed member's series continues to %g after its failure at %g", last, failAt)
	}
	joinAt := plan[0].Time
	if sr := set.Get("cluster.late.util"); sr == nil || len(sr.Points) == 0 {
		t.Fatal("joined member has no series")
	} else if first := sr.Points[0].T; first < joinAt {
		t.Fatalf("joined member sampled at %g before its join at %g", first, joinAt)
	}
	if got := set.Get("fleet.completed").Last().V; got != float64(len(stream)) {
		t.Fatalf("final completed = %g, want %d", got, len(stream))
	}
}

// BenchmarkFleetChurn (DESIGN.md §12) runs Run through a full membership
// lifecycle and through the identical fleet without a churn plan; the
// placements/s gap bounds what the churn machinery costs on the placement
// path. The lifecycle over the stream's span: a join at 10%, an announced
// failure of a big member at 70% (notice from 30%), and a graceful drain
// of the small member at 90% (notice from 75%).
func BenchmarkFleetChurn(b *testing.B) {
	member := func(name string, procs int) MemberConfig {
		return MemberConfig{
			Name:      name,
			Sim:       sim.Config{Processors: procs, Backfill: true, MaxObserve: 32},
			Scheduler: sched.FCFS(),
		}
	}
	const arrivals = 2000
	tr := trace.Preset("Lublin-1", arrivals+64, 61)
	stream := tr.SampleWindow(rand.New(rand.NewSource(61)), arrivals)
	// Compress arrivals so members carry real backlogs: the drain and the
	// failure then force a meaningful batch of re-placements instead of
	// retiring an idle member.
	start := stream[0].SubmitTime
	for _, j := range stream {
		j.SubmitTime = start + (j.SubmitTime-start)/4
		if j.RequestedProcs > 64 {
			j.RequestedProcs = 64
		}
	}
	span := stream[len(stream)-1].SubmitTime - start
	at := func(frac float64) float64 { return start + frac*span }
	plan := ChurnPlan{
		{Kind: ChurnJoin, Time: at(0.10), Member: member("late-128", 128)},
		{Kind: ChurnFail, Time: at(0.70), Name: "c01-256", Notice: 0.4 * span},
		{Kind: ChurnDrain, Time: at(0.90), Name: "c03-64", Notice: 0.15 * span},
	}
	for _, churn := range []bool{false, true} {
		name := "static"
		if churn {
			name = "lifecycle"
		}
		b.Run(name, func(b *testing.B) {
			var members []MemberConfig
			for i, procs := range []int{256, 256, 128, 64} {
				members = append(members, member(fmt.Sprintf("c%02d-%d", i, procs), procs))
			}
			f, err := New(members, ChurnAwarePipeline())
			if err != nil {
				b.Fatal(err)
			}
			if churn {
				if err := f.EnableChurn(plan); err != nil {
					b.Fatal(err)
				}
			}
			benchRun(b, f, stream)
		})
	}
}
