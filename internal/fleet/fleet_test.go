package fleet

import (
	"math"
	"math/rand"
	"testing"

	"rlsched/internal/job"
	"rlsched/internal/metrics"
	"rlsched/internal/nn"
	"rlsched/internal/sched"
	"rlsched/internal/sim"
	"rlsched/internal/trace"
)

func lublinStream(t *testing.T, n int, seed int64) []*job.Job {
	t.Helper()
	tr := trace.Preset("Lublin-1", n+64, seed)
	rng := rand.New(rand.NewSource(seed))
	return tr.SampleWindow(rng, n)
}

// gridTimes snaps a stream's submit, run and requested times to whole
// multiples of grid seconds (run and requested times to at least one
// step), so every completion lands on the grid — and on every hook instant
// a grid-aligned interval puts there. Lublin's float times never coincide
// with a hook instant, so without the grid no parity input has a
// completion processed inside a hook.
func gridTimes(stream []*job.Job, grid float64) {
	snap := func(x float64) float64 { return grid * math.Round(x/grid) }
	for _, j := range stream {
		j.SubmitTime = snap(j.SubmitTime)
		j.RunTime = math.Max(grid, snap(j.RunTime))
		j.RequestedTime = math.Max(grid, snap(j.RequestedTime))
	}
}

func cloneStream(stream []*job.Job) []*job.Job {
	out := make([]*job.Job, len(stream))
	for i, j := range stream {
		out[i] = j.Clone()
	}
	return out
}

// TestSingleMemberParityWithSimRun is the correctness anchor of the
// time-sync machinery: a fleet of one cluster must schedule exactly like
// sim.Run on the same sequence — same per-job start times, same metrics —
// for every policy and backfilling discipline.
func TestSingleMemberParityWithSimRun(t *testing.T) {
	stream := lublinStream(t, 200, 7)
	cases := []struct {
		name     string
		sched    func() sim.Scheduler
		backfill bool
	}{
		{"FCFS", func() sim.Scheduler { return sched.FCFS() }, false},
		{"SJF", func() sim.Scheduler { return sched.SJF() }, false},
		{"SJF+backfill", func() sim.Scheduler { return sched.SJF() }, true},
		{"F1+backfill", func() sim.Scheduler { return sched.F1() }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := sim.Config{Processors: 256, Backfill: tc.backfill, MaxObserve: 32}

			ref := sim.New(cfg)
			refStream := cloneStream(stream)
			if err := ref.Load(refStream); err != nil {
				t.Fatal(err)
			}
			refRes, err := ref.Run(tc.sched())
			if err != nil {
				t.Fatal(err)
			}

			f, err := New([]MemberConfig{{Name: "solo", Sim: cfg, Scheduler: tc.sched()}},
				LeastLoadedPipeline())
			if err != nil {
				t.Fatal(err)
			}
			fleetStream := cloneStream(stream)
			res, err := f.Run(fleetStream)
			if err != nil {
				t.Fatal(err)
			}

			for i := range refStream {
				if refStream[i].StartTime != fleetStream[i].StartTime {
					t.Fatalf("job %d: sim.Run starts at %g, fleet starts at %g",
						i, refStream[i].StartTime, fleetStream[i].StartTime)
				}
			}
			for _, k := range []metrics.Kind{metrics.BoundedSlowdown, metrics.Utilization} {
				if a, b := metrics.Value(k, refRes), metrics.Value(k, res.Fleet); a != b {
					t.Fatalf("%v: sim.Run %g, fleet %g", k, a, b)
				}
			}
		})
	}
}

func heteroMembers() []MemberConfig {
	return []MemberConfig{
		{Name: "large", Sim: sim.Config{Processors: 256, MaxObserve: 32}, Scheduler: sched.SJF()},
		{Name: "mid", Sim: sim.Config{Processors: 128, MaxObserve: 32}, Scheduler: sched.SJF()},
		{Name: "small", Sim: sim.Config{Processors: 64, MaxObserve: 32}, Scheduler: sched.SJF()},
	}
}

// TestCapacityRouting: jobs wider than the small clusters must always land
// on the one cluster that can run them, whatever the router.
func TestCapacityRouting(t *testing.T) {
	routers := []Router{NewRandom(1), NewRoundRobin(), LeastLoadedPipeline(), BinpackPipeline()}
	stream := lublinStream(t, 300, 11)
	for _, r := range routers {
		f, err := New(heteroMembers(), r)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(cloneStream(stream))
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		for i, j := range stream {
			k := res.Assignments[i]
			limit := f.members[k].cfg.Processors
			if j.RequestedProcs > limit {
				t.Fatalf("%s: job %d (%d procs) routed to %d-proc cluster",
					r.Name(), i, j.RequestedProcs, limit)
			}
		}
		total := 0
		for _, c := range res.Clusters {
			total += c.Placements
		}
		if total != len(stream) {
			t.Fatalf("%s: %d placements for %d jobs", r.Name(), total, len(stream))
		}
	}
}

// TestRunDeterminism: identical seeds and streams must yield identical
// assignments for every router, run-to-run.
func TestRunDeterminism(t *testing.T) {
	stream := lublinStream(t, 250, 3)
	rng := rand.New(rand.NewSource(9))
	net := nn.NewKernelNet(rng, 32, sim.JobFeatures, nil)
	build := func() []Router {
		rl, err := RLPipeline(net)
		if err != nil {
			t.Fatal(err)
		}
		return []Router{NewRandom(5), NewRoundRobin(), LeastLoadedPipeline(), BinpackPipeline(), rl}
	}
	first, second := build(), build()
	for i := range first {
		fa, err := New(heteroMembers(), first[i])
		if err != nil {
			t.Fatal(err)
		}
		fb, err := New(heteroMembers(), second[i])
		if err != nil {
			t.Fatal(err)
		}
		ra, err := fa.Run(cloneStream(stream))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := fb.Run(cloneStream(stream))
		if err != nil {
			t.Fatal(err)
		}
		for k := range ra.Assignments {
			if ra.Assignments[k] != rb.Assignments[k] {
				t.Fatalf("%s: job %d routed to %d then %d",
					first[i].Name(), k, ra.Assignments[k], rb.Assignments[k])
			}
		}
	}
}

// TestPipelinePlaceScored pins the normalization and tie-break semantics.
func TestPipelinePlaceScored(t *testing.T) {
	mk := func(total, free int, pendingWork float64) *Candidate {
		return &Candidate{
			View:        sim.ClusterView{FreeProcs: free, TotalProcs: total},
			PendingWork: pendingWork,
		}
	}
	cands := []*Candidate{mk(64, 64, 0), mk(256, 256, 0), mk(128, 0, 5000)}
	for i, c := range cands {
		c.Index = i
	}
	j := job.New(1, 0, 100, 96, 100)

	p := LeastLoadedPipeline()
	scores := make([]float64, len(cands))
	pick := p.PlaceScored(j, cands, scores)
	if pick != 1 {
		t.Fatalf("96-proc job picked cluster %d, want the idle 256", pick)
	}
	if !math.IsNaN(scores[0]) {
		t.Fatal("infeasible 64-proc cluster must score NaN")
	}
	if math.IsNaN(scores[1]) || math.IsNaN(scores[2]) {
		t.Fatal("feasible clusters must carry scores")
	}
	if scores[1] < scores[2] {
		t.Fatal("idle cluster must outscore the loaded one")
	}

	// All filtered out → -1.
	tiny := []*Candidate{mk(8, 8, 0)}
	if got := p.Place(j, tiny); got != -1 {
		t.Fatalf("infeasible everywhere must return -1, got %d", got)
	}

	// Perfect tie → lowest index wins.
	ties := []*Candidate{mk(256, 256, 0), mk(256, 256, 0)}
	if got := p.Place(j, ties); got != 0 {
		t.Fatalf("tie must break to the lowest index, got %d", got)
	}
}

// TestBinpackPrefersTightFit: binpack keeps the big free block intact.
func TestBinpackPrefersTightFit(t *testing.T) {
	cands := []*Candidate{
		{Index: 0, View: sim.ClusterView{FreeProcs: 256, TotalProcs: 256}},
		{Index: 1, View: sim.ClusterView{FreeProcs: 16, TotalProcs: 128}},
	}
	j := job.New(1, 0, 100, 8, 100)
	if got := BinpackPipeline().Place(j, cands); got != 1 {
		t.Fatalf("binpack picked %d, want the tight 16-free fit", got)
	}
	if got := LeastLoadedPipeline().Place(j, cands); got != 0 {
		t.Fatalf("least-loaded picked %d, want the idle cluster", got)
	}
}

// TestRoundRobinSkipsInfeasible: the rotation must pass over clusters the
// job cannot fit without stalling.
func TestRoundRobinSkipsInfeasible(t *testing.T) {
	r := NewRoundRobin()
	cands := []*Candidate{
		{Index: 0, View: sim.ClusterView{FreeProcs: 64, TotalProcs: 64}},
		{Index: 1, View: sim.ClusterView{FreeProcs: 256, TotalProcs: 256}},
	}
	wide := job.New(1, 0, 100, 128, 100)
	narrow := job.New(2, 0, 100, 4, 100)
	if got := r.Place(wide, cands); got != 1 {
		t.Fatalf("wide job placed on %d, want 1", got)
	}
	if got := r.Place(narrow, cands); got != 0 {
		t.Fatalf("rotation should wrap to 0, got %d", got)
	}
	if got := r.Place(narrow, cands); got != 1 {
		t.Fatalf("rotation should continue to 1, got %d", got)
	}
}

// TestBacklogFilter: a full queue makes a cluster infeasible.
func TestBacklogFilter(t *testing.T) {
	f := BacklogFilter{Max: 4}
	j := job.New(1, 0, 100, 1, 100)
	if f.Feasible(j, &Candidate{Pending: 4}) {
		t.Fatal("backlog at the cap must be infeasible")
	}
	if !f.Feasible(j, &Candidate{Pending: 3}) {
		t.Fatal("backlog under the cap must pass")
	}
	if !(BacklogFilter{}).Feasible(j, &Candidate{Pending: 1 << 20}) {
		t.Fatal("zero cap means unlimited")
	}
}

// TestTaintFilterFeasible: the cordon gate rejects a cordoned member for
// every job, passes an open one, and names itself "taint" in explain traces.
func TestTaintFilterFeasible(t *testing.T) {
	var f TaintFilter
	for _, j := range []*job.Job{{}, job.New(1, 0, 100, 1, 100), job.New(2, 0, 3600, 512, 3600)} {
		if f.Feasible(j, &Candidate{Cordoned: true}) {
			t.Fatalf("job %d: a cordoned member must be infeasible", j.ID)
		}
		if !f.Feasible(j, &Candidate{}) {
			t.Fatalf("job %d: an open member must be feasible", j.ID)
		}
	}
	if got := f.Name(); got != "taint" {
		t.Fatalf("filter name = %q, want taint", got)
	}
}

// TestRLScorerShape: the scorer must emit finite log-probabilities, favour
// no cluster when states are identical, and stay batch-order invariant.
func TestRLScorerShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := nn.NewKernelNet(rng, 16, sim.JobFeatures, nil)
	rl, err := NewRLScorer(net)
	if err != nil {
		t.Fatal(err)
	}
	queue := lublinStream(t, 10, 2)
	mk := func(free int) *Candidate {
		return &Candidate{
			View:    sim.ClusterView{FreeProcs: free, TotalProcs: 256},
			Visible: queue,
			Pending: len(queue),
		}
	}
	j := job.New(99, 0, 300, 8, 300)
	cands := []*Candidate{mk(256), mk(32), mk(0)}
	out := make([]float64, len(cands))
	rl.Score(j, cands, out)
	for i, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) || v > 0 {
			t.Fatalf("score %d = %g, want a finite log-probability", i, v)
		}
	}
	// Reversing the batch must reverse the scores (no cross-state leakage).
	rev := []*Candidate{cands[2], cands[1], cands[0]}
	outRev := make([]float64, len(rev))
	rl.Score(j, rev, outRev)
	for i := range out {
		if out[i] != outRev[len(out)-1-i] {
			t.Fatalf("batch order changed score %d: %g vs %g", i, out[i], outRev[len(out)-1-i])
		}
	}
	// Identical states must tie exactly.
	same := []*Candidate{mk(64), mk(64)}
	outSame := make([]float64, 2)
	rl.Score(j, same, outSame)
	if outSame[0] != outSame[1] {
		t.Fatalf("identical clusters scored %g vs %g", outSame[0], outSame[1])
	}
}

// TestRLScorerDoesNotAllocate: scoring a job against several clusters,
// queues longer than the window included, runs on pooled scratch.
func TestRLScorerDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch under -race")
	}
	rl, err := NewRLScorer(nn.NewKernelNet(rand.New(rand.NewSource(5)), 16, sim.JobFeatures, nil))
	if err != nil {
		t.Fatal(err)
	}
	queue := lublinStream(t, 24, 3)
	var cands []*Candidate
	for _, n := range []int{0, 3, 15, 24} {
		cands = append(cands, &Candidate{
			View:    sim.ClusterView{FreeProcs: 8 * n, TotalProcs: 256},
			Visible: queue[:n],
			Pending: n,
		})
	}
	j := job.New(99, 0, 300, 8, 300)
	out := make([]float64, len(cands))
	rl.Score(j, cands, out) // warm the scratch pools
	if allocs := testing.AllocsPerRun(100, func() { rl.Score(j, cands, out) }); allocs != 0 {
		t.Errorf("RLScorer.Score allocates %v times per call", allocs)
	}
}

// TestNewValidation covers fleet construction errors.
func TestNewValidation(t *testing.T) {
	if _, err := New(nil, NewRoundRobin()); err == nil {
		t.Fatal("empty fleet must error")
	}
	m := heteroMembers()
	if _, err := New(m, nil); err == nil {
		t.Fatal("nil router must error")
	}
	dup := []MemberConfig{m[0], m[0]}
	if _, err := New(dup, NewRoundRobin()); err == nil {
		t.Fatal("duplicate names must error")
	}
	noSched := []MemberConfig{{Name: "x", Sim: sim.Config{Processors: 8}}}
	if _, err := New(noSched, NewRoundRobin()); err == nil {
		t.Fatal("missing scheduler must error")
	}
	for _, procs := range []int{0, -8} {
		noProcs := []MemberConfig{{Name: "x", Sim: sim.Config{Processors: procs}, Scheduler: sched.FCFS()}}
		if _, err := New(noProcs, NewRoundRobin()); err == nil {
			t.Fatalf("Processors: %d must error", procs)
		}
	}
}

// TestRunErrors covers stream validation.
func TestRunErrors(t *testing.T) {
	f, err := New(heteroMembers(), NewRoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(nil); err == nil {
		t.Fatal("empty stream must error")
	}
	out := []*job.Job{job.New(1, 100, 60, 2, 60), job.New(2, 50, 60, 2, 60)}
	if _, err := f.Run(out); err == nil {
		t.Fatal("out-of-order stream must error")
	}
	wide := []*job.Job{job.New(1, 0, 60, 512, 60)}
	if _, err := f.Run(wide); err == nil {
		t.Fatal("a job fitting no cluster must error")
	}
}
