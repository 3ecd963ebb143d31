package job

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDefaults(t *testing.T) {
	j := New(7, 100, 50, 4, 0)
	if j.RequestedTime != 50 {
		t.Errorf("estimate default = %g, want runtime 50", j.RequestedTime)
	}
	if j.Started() {
		t.Error("new job must not be started")
	}
	if err := j.Validate(); err != nil {
		t.Errorf("Validate() = %v, want nil", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Job)
	}{
		{"negative submit", func(j *Job) { j.SubmitTime = -1 }},
		{"negative runtime", func(j *Job) { j.RunTime = -5 }},
		{"zero procs", func(j *Job) { j.RequestedProcs = 0 }},
		{"negative procs", func(j *Job) { j.RequestedProcs = -3 }},
		{"zero estimate", func(j *Job) { j.RequestedTime = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := New(1, 10, 10, 1, 10)
			tc.mut(j)
			if err := j.Validate(); err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
	var nilJob *Job
	if err := nilJob.Validate(); err == nil {
		t.Error("nil job must not validate")
	}
}

func TestMetricsOfStartedJob(t *testing.T) {
	j := New(1, 100, 60, 2, 60)
	j.StartTime = 130
	j.EndTime = 190
	if got := j.Wait(); got != 30 {
		t.Errorf("Wait() = %g, want 30", got)
	}
	if got := j.Turnaround(); got != 90 {
		t.Errorf("Turnaround() = %g, want 90", got)
	}
	if got := j.Slowdown(); got != 1.5 {
		t.Errorf("Slowdown() = %g, want 1.5", got)
	}
	if got := j.BoundedSlowdown(10); got != 1.5 {
		t.Errorf("BoundedSlowdown(10) = %g, want 1.5", got)
	}
}

func TestBoundedSlowdownShortJob(t *testing.T) {
	// 1-second job waiting 9 seconds: raw slowdown 10, bounded slowdown
	// uses the 10s threshold => (9+1)/10 = 1.
	j := New(1, 0, 1, 1, 1)
	j.StartTime = 9
	j.EndTime = 10
	if got := j.Slowdown(); got != 10 {
		t.Errorf("Slowdown() = %g, want 10", got)
	}
	if got := j.BoundedSlowdown(10); got != 1 {
		t.Errorf("BoundedSlowdown(10) = %g, want 1 (clamped)", got)
	}
}

func TestBoundedSlowdownNeverBelowOne(t *testing.T) {
	f := func(wait, run uint16) bool {
		j := New(1, 0, float64(run), 1, float64(run)+1)
		j.StartTime = float64(wait)
		j.EndTime = j.StartTime + j.RunTime
		b := j.BoundedSlowdown(10)
		return b >= 1 && !math.IsNaN(b) && !math.IsInf(b, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnstartedJobMetricsAreZero(t *testing.T) {
	j := New(1, 5, 5, 1, 5)
	if j.Wait() != 0 || j.Turnaround() != 0 || j.Slowdown() != 0 || j.BoundedSlowdown(10) != 0 {
		t.Error("unstarted job must report zero metrics")
	}
}

func TestResetAndClone(t *testing.T) {
	j := New(3, 10, 20, 4, 25)
	j.StartTime = 12
	j.EndTime = 32
	c := j.Clone()
	if c.Started() || c.EndTime != -1 {
		t.Error("Clone must clear scheduling state")
	}
	if c.ID != 3 || c.RunTime != 20 || c.RequestedProcs != 4 {
		t.Error("Clone must preserve static attributes")
	}
	j.Reset()
	if j.Started() || j.EndTime != -1 {
		t.Error("Reset must clear scheduling state")
	}
}

func TestZeroRuntimeSlowdownFinite(t *testing.T) {
	j := New(1, 0, 0, 1, 10)
	j.StartTime = 100
	j.EndTime = 100
	if s := j.Slowdown(); math.IsInf(s, 0) || math.IsNaN(s) {
		t.Errorf("Slowdown() = %g, want finite", s)
	}
	if b := j.BoundedSlowdown(10); b != 10 {
		t.Errorf("BoundedSlowdown = %g, want 10 (100/10)", b)
	}
}
