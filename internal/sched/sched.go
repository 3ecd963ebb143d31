// Package sched implements the heuristic priority-function schedulers the
// paper compares against (Table III): FCFS, SJF, WFP3, UNICEP and F1, plus
// the SAF and LJF ablation baselines. Each scheduler scores every visible
// job and picks the minimum-score job, exactly how priority-function batch
// schedulers order their queues.
package sched

import (
	"math"

	"rlsched/internal/job"
	"rlsched/internal/sim"
)

// PriorityFunc scores a job at decision time; the lowest score is
// scheduled first. now is the current clock; view exposes resources.
type PriorityFunc func(j *job.Job, now float64, view sim.ClusterView) float64

// Priority is a sim.Scheduler driven by a priority function.
type Priority struct {
	Name  string
	Score PriorityFunc
}

// Pick implements sim.Scheduler: argmin of the score over visible jobs,
// first-come wins ties (stable for reproducibility).
func (p *Priority) Pick(visible []*job.Job, now float64, view sim.ClusterView) int {
	best := 0
	bestScore := math.Inf(1)
	for i, j := range visible {
		s := p.Score(j, now, view)
		if s < bestScore {
			bestScore = s
			best = i
		}
	}
	return best
}

// FCFS schedules in submission order: score(t) = s_t.
func FCFS() *Priority {
	return &Priority{Name: "FCFS", Score: func(j *job.Job, _ float64, _ sim.ClusterView) float64 {
		return j.SubmitTime
	}}
}

// SJF runs the shortest requested runtime first: score(t) = r_t.
func SJF() *Priority {
	return &Priority{Name: "SJF", Score: func(j *job.Job, _ float64, _ sim.ClusterView) float64 {
		return j.RequestedTime
	}}
}

// WFP3 favours jobs with long waits, short runtimes and few processors:
// score(t) = −(w_t/r_t)³ · n_t (Tang et al., the paper's Table III).
func WFP3() *Priority {
	return &Priority{Name: "WFP3", Score: func(j *job.Job, now float64, _ sim.ClusterView) float64 {
		w := wait(j, now)
		r := math.Max(j.RequestedTime, 1)
		ratio := w / r
		return -(ratio * ratio * ratio) * float64(j.RequestedProcs)
	}}
}

// UNICEP (UNICEF in some sources) favours long-waiting, small, short jobs:
// score(t) = −w_t / (log₂(n_t) · r_t). n_t is floored at 2 so serial jobs
// do not divide by log₂(1)=0.
func UNICEP() *Priority {
	return &Priority{Name: "UNICEP", Score: func(j *job.Job, now float64, _ sim.ClusterView) float64 {
		w := wait(j, now)
		n := math.Max(float64(j.RequestedProcs), 2)
		r := math.Max(j.RequestedTime, 1)
		return -w / (math.Log2(n) * r)
	}}
}

// F1 is the best scheduler of Carastan-Santos & de Camargo (SC'17), derived
// by brute-force simulation and non-linear regression:
// score(t) = log₁₀(r_t)·n_t + 870·log₁₀(s_t). Submit times are floored at
// 1s so the log is defined at the trace origin.
func F1() *Priority {
	return &Priority{Name: "F1", Score: func(j *job.Job, _ float64, _ sim.ClusterView) float64 {
		r := math.Max(j.RequestedTime, 1)
		s := math.Max(j.SubmitTime, 1)
		return math.Log10(r)*float64(j.RequestedProcs) + 870*math.Log10(s)
	}}
}

// SAF (smallest area first) runs the job with the smallest requested
// area r_t · n_t first — the classic area-based heuristic; a useful extra
// baseline beyond Table III.
func SAF() *Priority {
	return &Priority{Name: "SAF", Score: func(j *job.Job, _ float64, _ sim.ClusterView) float64 {
		return j.RequestedTime * float64(j.RequestedProcs)
	}}
}

// LJF (largest job first) runs the widest job first, reducing external
// fragmentation at the cost of short-job latency; included as the
// anti-SJF ablation baseline.
func LJF() *Priority {
	return &Priority{Name: "LJF", Score: func(j *job.Job, _ float64, _ sim.ClusterView) float64 {
		return -float64(j.RequestedProcs)
	}}
}

func wait(j *job.Job, now float64) float64 {
	w := now - j.SubmitTime
	if w < 0 {
		return 0
	}
	return w
}

// Heuristics returns the paper's five comparison schedulers in Table III
// order.
func Heuristics() []*Priority {
	return []*Priority{FCFS(), WFP3(), UNICEP(), SJF(), F1()}
}

// Serveable returns every stateless heuristic — the set the online
// decision service can expose. Random is excluded: its closure shares one
// RNG, which is not safe for concurrent scoring.
func Serveable() []*Priority {
	return []*Priority{FCFS(), WFP3(), UNICEP(), SJF(), F1(), SAF(), LJF()}
}

// Names lists the serveable heuristic names.
func Names() []string {
	hs := Serveable()
	names := make([]string, len(hs))
	for i, h := range hs {
		names[i] = h.Name
	}
	return names
}

// ByName returns the named heuristic, or nil.
func ByName(name string) *Priority {
	for _, h := range Serveable() {
		if h.Name == name {
			return h
		}
	}
	return nil
}
