package policy

import (
	"math/rand"
	"slices"
	"testing"

	"rlsched/internal/job"
	"rlsched/internal/metrics"
	"rlsched/internal/nn"
	"rlsched/internal/sim"
	"rlsched/internal/trace"
)

// mustNetScheduler wraps net, failing the test on a feature mismatch.
func mustNetScheduler(t *testing.T, net nn.PolicyNet) *NetScheduler {
	t.Helper()
	s, err := NewNetScheduler(net)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPickInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := nn.NewKernelNet(rng, 16, sim.JobFeatures, nil)
	s := mustNetScheduler(t, net)
	view := sim.ClusterView{FreeProcs: 32, TotalProcs: 64}
	for n := 1; n <= 16; n++ {
		var visible []*job.Job
		for i := 0; i < n; i++ {
			visible = append(visible, job.New(i+1, 0, float64(10*(i+1)), 1+i%4, float64(10*(i+1))))
		}
		got := s.Pick(visible, 100, view)
		if got < 0 || got >= n {
			t.Fatalf("Pick = %d with %d visible jobs", got, n)
		}
	}
}

func TestPickDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := nn.NewKernelNet(rng, 8, sim.JobFeatures, nil)
	s := mustNetScheduler(t, net)
	view := sim.ClusterView{FreeProcs: 8, TotalProcs: 16}
	visible := []*job.Job{
		job.New(1, 0, 100, 2, 100),
		job.New(2, 0, 50, 1, 50),
		job.New(3, 0, 900, 8, 900),
	}
	first := s.Pick(visible, 10, view)
	for i := 0; i < 5; i++ {
		if got := s.Pick(visible, 10, view); got != first {
			t.Fatal("inference must be deterministic (argmax, no sampling)")
		}
	}
}

func TestNetSchedulerDrivesSimulator(t *testing.T) {
	tr := trace.Preset("Lublin-1", 120, 3)
	rng := rand.New(rand.NewSource(3))
	net := nn.NewKernelNet(rng, 16, sim.JobFeatures, nil)
	s := sim.New(sim.Config{Processors: tr.Processors, MaxObserve: 16, Backfill: true})
	if err := s.Load(tr.Window(0, 120)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(mustNetScheduler(t, net))
	if err != nil {
		t.Fatal(err)
	}
	if v := metrics.Value(metrics.BoundedSlowdown, res); v < 1 {
		t.Errorf("bsld %g < 1 impossible", v)
	}
	for _, j := range res.Jobs {
		if !j.Started() {
			t.Fatal("every job must run under an untrained network too")
		}
	}
}

// TestVisibleLongerThanMaxObs: if the simulator is configured with a larger
// window than the network, Pick must stay within the network's slots.
func TestVisibleLongerThanMaxObs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := nn.NewKernelNet(rng, 4, sim.JobFeatures, nil)
	s := mustNetScheduler(t, net)
	var visible []*job.Job
	for i := 0; i < 10; i++ {
		visible = append(visible, job.New(i+1, 0, 10, 1, 10))
	}
	got := s.Pick(visible, 0, sim.ClusterView{FreeProcs: 4, TotalProcs: 4})
	if got < 0 || got >= 4 {
		t.Fatalf("Pick = %d, must stay within the network's 4 slots", got)
	}
}

// TestFeatureMismatchIsAnError: a network built for another encoder width
// is refused up front instead of panicking in BuildObsInto on first use.
func TestFeatureMismatchIsAnError(t *testing.T) {
	net := nn.NewKernelNet(rand.New(rand.NewSource(5)), 16, sim.JobFeatures-2, nil)
	if s, err := NewNetScheduler(net); err == nil || s != nil {
		t.Fatalf("NewNetScheduler(%d features) = %v, %v; want nil and an error", sim.JobFeatures-2, s, err)
	}
}

// TestLogitsBatchMatchesSingles: one batched Logits call hands each queue
// the same logits, over min(len(Jobs), maxObs) slots, as scoring it alone.
func TestLogitsBatchMatchesSingles(t *testing.T) {
	const maxObs = 8
	rng := rand.New(rand.NewSource(6))
	s := mustNetScheduler(t, nn.NewKernelNet(rng, maxObs, sim.JobFeatures, nil))
	var queues []Queue
	for _, n := range []int{1, 5, maxObs, 12} {
		q := Queue{Now: 500, View: sim.ClusterView{FreeProcs: 8, TotalProcs: 16}, QueueLen: n + 3}
		for i := 0; i < n; i++ {
			q.Jobs = append(q.Jobs, job.New(i+1, float64(rng.Intn(400)), float64(10+rng.Intn(900)), 1+rng.Intn(16), 100))
		}
		queues = append(queues, q)
	}
	batched := make([][]float64, len(queues))
	s.Logits(len(queues), func(i int) Queue { return queues[i] }, func(i int, row []float64) {
		batched[i] = append([]float64(nil), row...)
	})
	for i, q := range queues {
		if want := min(len(q.Jobs), maxObs); len(batched[i]) != want {
			t.Fatalf("queue %d: %d logits, want %d", i, len(batched[i]), want)
		}
		s.Logits(1, func(int) Queue { return q }, func(_ int, row []float64) {
			if !slices.Equal(row, batched[i]) {
				t.Errorf("queue %d: alone %v, in the batch %v", i, row, batched[i])
			}
		})
	}
}

func TestArgmax(t *testing.T) {
	for _, c := range []struct {
		row  []float64
		want int
	}{{nil, 0}, {[]float64{3}, 0}, {[]float64{1, 4, 4, 2}, 1}, {[]float64{-2, -1}, 1}} {
		if got := Argmax(c.row); got != c.want {
			t.Errorf("Argmax(%v) = %d, want %d", c.row, got, c.want)
		}
	}
}

func TestPickDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch under -race")
	}
	rng := rand.New(rand.NewSource(7))
	s := mustNetScheduler(t, nn.NewKernelNet(rng, 128, sim.JobFeatures, nil))
	var visible []*job.Job
	for i := 0; i < 40; i++ {
		visible = append(visible, job.New(i+1, float64(i), float64(60*(1+i%7)), 1+i%8, 60))
	}
	view := sim.ClusterView{FreeProcs: 16, TotalProcs: 64}
	s.Pick(visible, 100, view) // warm the scratch pool
	if allocs := testing.AllocsPerRun(100, func() { s.Pick(visible, 100, view) }); allocs != 0 {
		t.Errorf("NetScheduler.Pick allocates %v times per call", allocs)
	}
}
