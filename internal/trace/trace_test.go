package trace

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"rlsched/internal/job"
)

func mkTrace(n int) *Trace {
	jobs := make([]*job.Job, n)
	for i := 0; i < n; i++ {
		j := job.New(i+1, float64(i*100), 60, 2, 90)
		j.UserID = i % 3
		jobs[i] = j
	}
	return &Trace{Name: "t", Processors: 16, Jobs: jobs}
}

func TestValidate(t *testing.T) {
	tr := mkTrace(5)
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	tr.Jobs[2].SubmitTime = 0 // out of order
	if err := tr.Validate(); err == nil {
		t.Error("out-of-order trace must not validate")
	}
	tr2 := mkTrace(2)
	tr2.Jobs[0].RequestedProcs = 999
	if err := tr2.Validate(); err == nil {
		t.Error("oversized job must not validate")
	}
	tr3 := mkTrace(1)
	tr3.Processors = 0
	if err := tr3.Validate(); err == nil {
		t.Error("zero-processor trace must not validate")
	}
}

func TestWindowRebasing(t *testing.T) {
	tr := mkTrace(10)
	w := tr.Window(3, 4)
	if len(w) != 4 {
		t.Fatalf("window len = %d, want 4", len(w))
	}
	if w[0].SubmitTime != 0 {
		t.Errorf("first submit = %g, want 0 (rebased)", w[0].SubmitTime)
	}
	if w[1].SubmitTime != 100 {
		t.Errorf("second submit = %g, want 100", w[1].SubmitTime)
	}
	// Windows are clones: mutating them must not touch the trace.
	w[0].StartTime = 42
	if tr.Jobs[3].StartTime != -1 {
		t.Error("Window must clone jobs")
	}
	if got := tr.Window(8, 5); len(got) != 2 {
		t.Errorf("clipped window len = %d, want 2", len(got))
	}
	if got := tr.Window(20, 5); got != nil {
		t.Error("out-of-range window must be nil")
	}
}

func TestSampleWindowBounds(t *testing.T) {
	tr := mkTrace(50)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		w := tr.SampleWindow(rng, 8)
		if len(w) != 8 {
			t.Fatalf("sample window len = %d, want 8", len(w))
		}
		if w[0].SubmitTime != 0 {
			t.Fatal("sample window must be rebased")
		}
	}
	if got := tr.SampleWindow(rng, 100); len(got) != 50 {
		t.Errorf("oversized sample = %d jobs, want all 50", len(got))
	}
}

func TestComputeStats(t *testing.T) {
	tr := mkTrace(11)
	s := tr.ComputeStats()
	if s.Jobs != 11 || s.Processors != 16 {
		t.Errorf("stats basics wrong: %+v", s)
	}
	if s.MeanInterarrival != 100 {
		t.Errorf("MeanInterarrival = %g, want 100", s.MeanInterarrival)
	}
	if s.MeanRunTime != 60 || s.MeanRequestedTime != 90 || s.MeanProcs != 2 {
		t.Errorf("means wrong: %+v", s)
	}
	if s.Users != 3 {
		t.Errorf("Users = %d, want 3", s.Users)
	}
	empty := &Trace{Name: "e", Processors: 4}
	if s := empty.ComputeStats(); s.Jobs != 0 {
		t.Errorf("empty stats: %+v", s)
	}
}

func TestSWFRoundTripTrace(t *testing.T) {
	tr := Preset("Lublin-1", 300, 9)
	var buf bytes.Buffer
	if err := tr.WriteSWF(&buf); err != nil {
		t.Fatalf("WriteSWF: %v", err)
	}
	tr2, err := LoadSWF("rt", &buf)
	if err != nil {
		t.Fatalf("LoadSWF: %v", err)
	}
	if tr2.Processors != tr.Processors || tr2.Len() != tr.Len() {
		t.Fatalf("round trip: %d/%d jobs, %d/%d procs",
			tr2.Len(), tr.Len(), tr2.Processors, tr.Processors)
	}
}

func TestPresetStatsMatchTable2(t *testing.T) {
	// Table II targets: name -> {size, it, rt, nt}. Mean inter-arrival and
	// mean requested-runtime are matched loosely (synthetic sampling);
	// cluster size must be exact.
	targets := map[string][4]float64{
		"SDSC-SP2":     {128, 1055, 6687, 11},
		"HPC2N":        {240, 538, 17024, 6},
		"PIK-IPLEX":    {2560, 140, 30889, 12},
		"ANL-Intrepid": {163840, 301, 5176, 5063},
		"Lublin-1":     {256, 771, 4862, 22},
		"Lublin-2":     {256, 460, 1695, 39},
	}
	for _, name := range PresetNames {
		tr := Preset(name, 4000, 42)
		if tr == nil {
			t.Fatalf("Preset(%q) = nil", name)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := tr.ComputeStats()
		want := targets[name]
		if s.Processors != int(want[0]) {
			t.Errorf("%s: processors = %d, want %g", name, s.Processors, want[0])
		}
		if rel := math.Abs(s.MeanInterarrival-want[1]) / want[1]; rel > 0.30 {
			t.Errorf("%s: it = %.0f, want ≈%g (rel err %.2f)", name, s.MeanInterarrival, want[1], rel)
		}
		// rt in Table II is the mean *requested* runtime; the actual
		// runtime is what generators target, estimates inflate it.
		if s.MeanRunTime <= 0 || s.MeanRequestedTime < s.MeanRunTime*0.9 {
			t.Errorf("%s: runtime stats implausible: %+v", name, s)
		}
		if rel := math.Abs(s.MeanProcs-want[3]) / want[3]; rel > 0.45 {
			t.Errorf("%s: nt = %.1f, want ≈%g (rel err %.2f)", name, s.MeanProcs, want[3], rel)
		}
	}
	if Preset("nope", 10, 1) != nil {
		t.Error("unknown preset must be nil")
	}
}

func TestPresetDeterminism(t *testing.T) {
	a := Preset("HPC2N", 200, 7)
	b := Preset("HPC2N", 200, 7)
	for i := range a.Jobs {
		if a.Jobs[i].SubmitTime != b.Jobs[i].SubmitTime ||
			a.Jobs[i].RunTime != b.Jobs[i].RunTime ||
			a.Jobs[i].RequestedProcs != b.Jobs[i].RequestedProcs {
			t.Fatal("same seed must give identical traces")
		}
	}
	c := Preset("HPC2N", 200, 8)
	same := true
	for i := range a.Jobs {
		if a.Jobs[i].RunTime != c.Jobs[i].RunTime {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should give different traces")
	}
}

func TestPIKIsBurstyAndSkewed(t *testing.T) {
	pik := Preset("PIK-IPLEX", 3000, 5)
	sdsc := Preset("SDSC-SP2", 3000, 5)
	cv := func(tr *Trace) float64 {
		var inter []float64
		for i := 1; i < tr.Len(); i++ {
			inter = append(inter, tr.Jobs[i].SubmitTime-tr.Jobs[i-1].SubmitTime)
		}
		m, sd := meanStd(inter)
		return sd / m
	}
	if cv(pik) <= cv(sdsc) {
		t.Errorf("PIK arrival CV %.2f must exceed SDSC %.2f (burstiness)", cv(pik), cv(sdsc))
	}
	if cv(pik) < 2 {
		t.Errorf("PIK arrival CV %.2f, want >= 2 for the Fig 3 spikes", cv(pik))
	}
}

func TestHPC2NDominantUser(t *testing.T) {
	tr := Preset("HPC2N", 2000, 3)
	counts := map[int]int{}
	for _, j := range tr.Jobs {
		counts[j.UserID]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max) < 0.35*float64(tr.Len()) {
		t.Errorf("dominant user has %d of %d jobs, want >= 35%% (paper's u17)", max, tr.Len())
	}
	if len(counts) < 10 {
		t.Errorf("only %d users, want many", len(counts))
	}
}

// TestUserIDs: the distinct user IDs a trace carries, as Stats.Users counts
// them — each ID once, and jobs without a user (ID -1) not at all.
func TestUserIDs(t *testing.T) {
	tr := mkTrace(7)
	if got := tr.ComputeStats().Users; got != 3 {
		t.Errorf("Users = %d, want 3 (IDs 0, 1, 2)", got)
	}
	tr.Jobs[0].UserID = -1
	tr.Jobs[3].UserID = -1
	tr.Jobs[6].UserID = -1
	if got := tr.ComputeStats().Users; got != 2 {
		t.Errorf("Users = %d with user 0 unset, want 2", got)
	}
}

func meanStd(xs []float64) (float64, float64) {
	m := 0.0
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	return m, math.Sqrt(v / float64(len(xs)))
}

func TestSampleQueue(t *testing.T) {
	tr := Preset("Lublin-1", 500, 7)
	rng := rand.New(rand.NewSource(1))
	q := tr.SampleQueue(rng, 64)
	if len(q) != 64 {
		t.Fatalf("SampleQueue returned %d jobs, want 64", len(q))
	}
	for i, j := range q {
		if j.Started() {
			t.Fatalf("job %d has scheduling state set", i)
		}
		if j.SubmitTime > 0 {
			t.Fatalf("job %d submitted in the future (%g)", i, j.SubmitTime)
		}
		if i > 0 && q[i-1].SubmitTime > j.SubmitTime {
			t.Fatalf("queue not in FCFS order at %d", i)
		}
	}
	if q[len(q)-1].SubmitTime != 0 {
		t.Fatalf("newest job should be rebased to 0, got %g", q[len(q)-1].SubmitTime)
	}
	// Clones: mutating the sample must not touch the trace.
	q[0].RequestedProcs = -5
	for _, j := range tr.Jobs {
		if j.RequestedProcs == -5 {
			t.Fatal("SampleQueue aliases trace jobs")
		}
	}
}

func TestSampleQueueIntoReusesBuffer(t *testing.T) {
	tr := Preset("Lublin-1", 300, 7)
	rng1 := rand.New(rand.NewSource(3))
	rng2 := rand.New(rand.NewSource(3))
	buf := make([]*job.Job, 16)
	first := tr.SampleQueueInto(rng1, buf)
	fresh := tr.SampleQueue(rng2, 16)
	for i := range fresh {
		if first[i].ID != fresh[i].ID || first[i].SubmitTime != fresh[i].SubmitTime ||
			first[i].RequestedProcs != fresh[i].RequestedProcs {
			t.Fatalf("job %d differs between Into and fresh sampling", i)
		}
	}
	// Second fill reuses the same job structs — no new allocations.
	ptrs := map[*job.Job]bool{}
	for _, j := range first {
		ptrs[j] = true
	}
	second := tr.SampleQueueInto(rng1, buf)
	for i, j := range second {
		if !ptrs[j] {
			t.Fatalf("fill %d allocated a new job struct", i)
		}
	}
}

func TestConcatShiftsRegimes(t *testing.T) {
	mk := func(name string, procs int, submits []float64) *Trace {
		tr := &Trace{Name: name, Processors: procs}
		for i, s := range submits {
			tr.Jobs = append(tr.Jobs, job.New(i+1, s, 60, 1, 60))
		}
		return tr
	}
	a := mk("a", 128, []float64{100, 110, 120}) // mean interarrival 10
	b := mk("b", 256, []float64{0, 50})

	c := Concat("shift", a, b)
	if c.Processors != 256 {
		t.Fatalf("processors = %d, want max(128,256)", c.Processors)
	}
	if c.Len() != 5 {
		t.Fatalf("jobs = %d, want 5", c.Len())
	}
	want := []float64{0, 10, 20, 30, 80} // a rebased to 0; b starts span+gap = 20+10
	for i, w := range want {
		if got := c.Jobs[i].SubmitTime; got != w {
			t.Fatalf("job %d submit = %g, want %g", i, got, w)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Parts reuse the ID range 1..n; the concat must renumber so no two
	// stream jobs collide in a simulator's allocation table.
	seen := map[int]bool{}
	for _, j := range c.Jobs {
		if seen[j.ID] {
			t.Fatalf("duplicate job ID %d in concatenated stream", j.ID)
		}
		seen[j.ID] = true
	}
	// Clones: mutating the concat must not touch the parts.
	c.Jobs[0].StartTime = 5
	if a.Jobs[0].Started() {
		t.Fatal("Concat must clone jobs")
	}
	if empty := Concat("none"); empty.Len() != 0 {
		t.Fatal("empty concat must be empty")
	}
}
