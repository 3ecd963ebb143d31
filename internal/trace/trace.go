// Package trace provides job-trace containers, descriptive statistics
// (Table II of the paper), windowed sampling for training/evaluation, the
// Lublin–Feitelson synthetic workload model, and preset generators that
// reproduce the characteristics of the paper's six evaluation traces.
package trace

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"

	"rlsched/internal/job"
)

// Trace is an ordered job log for a cluster with a fixed processor count.
type Trace struct {
	Name string
	// Processors is the size of the traced cluster ("size" in Table II).
	Processors int
	Jobs       []*job.Job
}

// Len returns the number of jobs.
func (t *Trace) Len() int { return len(t.Jobs) }

// Validate checks the trace is usable: positive cluster size, jobs sorted by
// submit time, and every job fits the cluster.
func (t *Trace) Validate() error {
	if t.Processors <= 0 {
		return fmt.Errorf("trace %s: non-positive processors %d", t.Name, t.Processors)
	}
	prev := -1.0
	for i, j := range t.Jobs {
		if err := j.Validate(); err != nil {
			return fmt.Errorf("trace %s: %w", t.Name, err)
		}
		if j.SubmitTime < prev {
			return fmt.Errorf("trace %s: job %d out of submit order", t.Name, i)
		}
		prev = j.SubmitTime
		if j.RequestedProcs > t.Processors {
			return fmt.Errorf("trace %s: job %d requests %d > %d procs",
				t.Name, i, j.RequestedProcs, t.Processors)
		}
	}
	return nil
}

// Window returns clones of n continuous jobs starting at index start, with
// submit times rebased so the first job arrives at time 0 and scheduling
// state cleared. This is the unit both training trajectories (n=256) and
// evaluation sequences (n=1024) are built from.
func (t *Trace) Window(start, n int) []*job.Job {
	if start < 0 {
		start = 0
	}
	if start+n > len(t.Jobs) {
		n = len(t.Jobs) - start
	}
	if n <= 0 {
		return nil
	}
	base := t.Jobs[start].SubmitTime
	out := make([]*job.Job, n)
	for i := 0; i < n; i++ {
		c := t.Jobs[start+i].Clone()
		c.SubmitTime -= base
		out[i] = c
	}
	return out
}

// SampleWindow returns a uniformly random n-job window.
func (t *Trace) SampleWindow(rng *rand.Rand, n int) []*job.Job {
	if n >= len(t.Jobs) {
		return t.Window(0, len(t.Jobs))
	}
	start := rng.Intn(len(t.Jobs) - n + 1)
	return t.Window(start, n)
}

// SampleQueue draws n random jobs from anywhere in the trace as one
// synthetic pending-queue state: clones with scheduling state cleared and
// submit times rebased into the recent past (newest at 0), as a scheduler
// facing that queue would see them. Unlike SampleWindow the jobs are not
// contiguous — queue states mix ages and sizes the way a live backlog does.
// The result is sorted oldest-first (FCFS order).
func (t *Trace) SampleQueue(rng *rand.Rand, n int) []*job.Job {
	if len(t.Jobs) == 0 || n <= 0 {
		return nil
	}
	return t.SampleQueueInto(rng, make([]*job.Job, n))
}

// SampleQueueInto is SampleQueue filling a caller-owned buffer: dst's job
// structs are reused in place (allocated only where nil), so a load
// generator drawing thousands of queue states amortizes its allocations to
// zero. Returns dst. The sampled values overwrite every field, so a buffer
// may be recycled across calls freely — but not retained across calls.
func (t *Trace) SampleQueueInto(rng *rand.Rand, dst []*job.Job) []*job.Job {
	if len(t.Jobs) == 0 || len(dst) == 0 {
		return dst
	}
	for i := range dst {
		if dst[i] == nil {
			dst[i] = new(job.Job)
		}
		*dst[i] = *t.Jobs[rng.Intn(len(t.Jobs))]
		dst[i].Reset()
	}
	sort.Slice(dst, func(i, j int) bool { return dst[i].SubmitTime < dst[j].SubmitTime })
	base := dst[len(dst)-1].SubmitTime
	for _, j := range dst {
		j.SubmitTime -= base
	}
	return dst
}

// Concat splices traces into one workload-shift stream: part i+1's jobs
// are rebased to start one mean interarrival after part i's last arrival,
// so the arrival process shifts regime without a gap or an overlap. Jobs
// are cloned with scheduling state cleared and renumbered 1..N across the
// whole stream — parts drawn from different generators typically reuse
// the same ID range, and two same-ID jobs running concurrently would
// collide in the simulator's allocation table. The cluster size is the
// max over parts (a fleet routing the stream decides where jobs actually
// run). This is the stream builder behind the fleet placement layer's
// workload-shift scenario.
func Concat(name string, parts ...*Trace) *Trace {
	out := &Trace{Name: name}
	offset := 0.0
	id := 0
	for _, p := range parts {
		if p.Processors > out.Processors {
			out.Processors = p.Processors
		}
		if len(p.Jobs) == 0 {
			continue
		}
		base := p.Jobs[0].SubmitTime
		for _, j := range p.Jobs {
			c := j.Clone()
			c.SubmitTime = c.SubmitTime - base + offset
			id++
			c.ID = id
			out.Jobs = append(out.Jobs, c)
		}
		span := p.Jobs[len(p.Jobs)-1].SubmitTime - base
		gap := p.ComputeStats().MeanInterarrival
		if gap <= 0 {
			gap = 1
		}
		offset += span + gap
	}
	return out
}

// Stats summarizes the trace in the form of Table II.
type Stats struct {
	Name string
	// Processors is the cluster size.
	Processors int
	Jobs       int
	// MeanInterarrival is the mean job arrival interval in seconds (it).
	MeanInterarrival float64
	// MeanRequestedTime is the mean requested runtime in seconds (rt).
	MeanRequestedTime float64
	// MeanRunTime is the mean actual runtime in seconds.
	MeanRunTime float64
	// MeanProcs is the mean requested processor count (nt).
	MeanProcs float64
	// Users is the number of distinct user IDs (0 when the trace carries
	// no user information).
	Users int
}

// ComputeStats derives Table II statistics from the trace.
func (t *Trace) ComputeStats() Stats {
	s := Stats{Name: t.Name, Processors: t.Processors, Jobs: len(t.Jobs)}
	if len(t.Jobs) == 0 {
		return s
	}
	users := map[int]bool{}
	var sumRT, sumReq, sumProcs float64
	for _, j := range t.Jobs {
		sumRT += j.RunTime
		sumReq += j.RequestedTime
		sumProcs += float64(j.RequestedProcs)
		if j.UserID >= 0 {
			users[j.UserID] = true
		}
	}
	n := float64(len(t.Jobs))
	s.MeanRunTime = sumRT / n
	s.MeanRequestedTime = sumReq / n
	s.MeanProcs = sumProcs / n
	s.Users = len(users)
	if len(t.Jobs) > 1 {
		span := t.Jobs[len(t.Jobs)-1].SubmitTime - t.Jobs[0].SubmitTime
		s.MeanInterarrival = span / (n - 1)
	}
	return s
}

// LoadSWF reads a trace from an SWF stream. If the header lacks MaxProcs,
// MaxNodes stands in (single-processor-per-node archives declare only it);
// failing both, the largest job request is used as the cluster size.
func LoadSWF(name string, r io.Reader) (*Trace, error) {
	hdr, jobs, err := job.ParseSWF(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{Name: name, Processors: hdr.MaxProcs, Jobs: jobs}
	if t.Processors <= 0 {
		t.Processors = hdr.MaxNodes
	}
	if t.Processors <= 0 {
		for _, j := range jobs {
			if j.RequestedProcs > t.Processors {
				t.Processors = j.RequestedProcs
			}
		}
	}
	return t, t.Validate()
}

// LoadSWFFile reads a trace from an SWF file on disk.
func LoadSWFFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadSWF(path, f)
}

// WriteSWF writes the trace in Standard Workload Format.
func (t *Trace) WriteSWF(w io.Writer) error {
	hdr := job.SWFHeader{MaxProcs: t.Processors, Comments: []string{"Generator: rlsched/internal/trace"}}
	return job.WriteSWF(w, hdr, t.Jobs)
}
