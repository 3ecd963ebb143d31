// Package job defines the batch-job model used throughout the scheduler:
// the job attributes of Table I in the RLScheduler paper, scheduling state,
// and the Standard Workload Format (SWF) encoding used by the Parallel
// Workloads Archive.
package job

import (
	"errors"
	"fmt"
)

// Job is a single batch job. Static attributes follow the SWF field
// definitions; scheduling state (StartTime/EndTime) is filled in by the
// simulator. Times are seconds relative to the trace origin.
type Job struct {
	// ID is the job's position in the trace (1-based in SWF files).
	ID int
	// SubmitTime is the submission timestamp in seconds.
	SubmitTime float64
	// WaitTime, as recorded in the source trace (informational; the
	// simulator recomputes waits). Negative means unknown.
	WaitTime float64
	// RunTime is the job's actual execution time in seconds. The simulator
	// uses it to advance the clock but never exposes it to schedulers.
	RunTime float64
	// RequestedProcs is the number of processors the job asks for.
	RequestedProcs int
	// RequestedTime is the user's runtime estimate (upper bound), the only
	// duration visible to schedulers.
	RequestedTime float64
	// RequestedMemory is the requested memory per processor in KB
	// (informational). Negative means unknown.
	RequestedMemory float64
	// Status is the SWF completion status (1 = completed). Negative means
	// unknown.
	Status int
	// UserID identifies the submitting user (fairness metrics group by it).
	UserID int
	// GroupID identifies the submitting group.
	GroupID int
	// Executable identifies the application binary.
	Executable int
	// QueueID is the SWF queue number.
	QueueID int
	// PartitionID is the SWF partition number.
	PartitionID int

	// StartTime is set by the simulator when the job begins execution.
	// A negative value means "not started".
	StartTime float64
	// EndTime is StartTime + RunTime once the job has been started.
	EndTime float64
}

// New returns a job with the mandatory attributes set and scheduling state
// cleared. RequestedTime defaults to RunTime when estimate <= 0, mirroring
// the common SWF convention.
func New(id int, submit, runtime float64, procs int, estimate float64) *Job {
	if estimate <= 0 {
		estimate = runtime
	}
	return &Job{
		ID:             id,
		SubmitTime:     submit,
		WaitTime:       -1,
		RunTime:        runtime,
		RequestedProcs: procs,
		RequestedTime:  estimate,
		Status:         1,
		UserID:         -1,
		GroupID:        -1,
		Executable:     -1,
		QueueID:        -1,
		PartitionID:    -1,
		StartTime:      -1,
		EndTime:        -1,
	}
}

// Validate reports whether the job's static attributes are usable by the
// simulator.
func (j *Job) Validate() error {
	switch {
	case j == nil:
		return errors.New("job: nil job")
	case j.SubmitTime < 0:
		return fmt.Errorf("job %d: negative submit time %g", j.ID, j.SubmitTime)
	case j.RunTime < 0:
		return fmt.Errorf("job %d: negative run time %g", j.ID, j.RunTime)
	case j.RequestedProcs <= 0:
		return fmt.Errorf("job %d: non-positive requested processors %d", j.ID, j.RequestedProcs)
	case j.RequestedTime <= 0:
		return fmt.Errorf("job %d: non-positive requested time %g", j.ID, j.RequestedTime)
	}
	return nil
}

// Reset clears scheduling state so the job can be simulated again.
func (j *Job) Reset() {
	j.StartTime = -1
	j.EndTime = -1
}

// Started reports whether the simulator has started the job.
func (j *Job) Started() bool { return j.StartTime >= 0 }

// Wait returns the queuing delay of a started job.
func (j *Job) Wait() float64 {
	if !j.Started() {
		return 0
	}
	return j.StartTime - j.SubmitTime
}

// Turnaround returns wait + execution time of a started job.
func (j *Job) Turnaround() float64 {
	if !j.Started() {
		return 0
	}
	return j.EndTime - j.SubmitTime
}

// Slowdown returns turnaround divided by runtime. Jobs with zero runtime
// report their raw turnaround plus one so the ratio stays finite.
func (j *Job) Slowdown() float64 {
	if !j.Started() {
		return 0
	}
	rt := j.RunTime
	if rt <= 0 {
		return j.Turnaround() + 1
	}
	return j.Turnaround() / rt
}

// BoundedSlowdown returns max((wait+run)/max(run, threshold), 1), the
// bounded-slowdown metric of the paper with the given interactive threshold
// (the paper uses 10 seconds).
func (j *Job) BoundedSlowdown(threshold float64) float64 {
	if !j.Started() {
		return 0
	}
	den := j.RunTime
	if den < threshold {
		den = threshold
	}
	if den <= 0 {
		return 1
	}
	s := j.Turnaround() / den
	if s < 1 {
		return 1
	}
	return s
}

// Clone returns a deep copy of the job with scheduling state cleared.
func (j *Job) Clone() *Job {
	c := *j
	c.Reset()
	return &c
}

// String implements fmt.Stringer with the attributes schedulers can see.
func (j *Job) String() string {
	return fmt.Sprintf("job{id=%d submit=%.0f req=%.0fs x %dp user=%d}",
		j.ID, j.SubmitTime, j.RequestedTime, j.RequestedProcs, j.UserID)
}
