package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"rlsched/internal/telemetry"
)

// Chrome trace-event exporter: renders a collected fleet run as a
// Perfetto-loadable timeline (chrome://tracing's legacy JSON format, the
// "JSON Array Format" Perfetto's importer accepts). One process lane per
// cluster; inside it, thread 0 carries migration instants and threads 1+
// are greedily packed job-span lanes; accepted migration probes become
// flow arrows ("s"/"f" pairs) from the source cluster's migration instant
// to the destination's. Load the file at https://ui.perfetto.dev or
// chrome://tracing.

// traceEvent is one event row of the Chrome trace-event format. Ts and
// Dur are microseconds; simulation seconds are scaled by 1e6, so one
// trace microsecond reads as one simulated second × 1e-6.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int            `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level trace file object.
type chromeTrace struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

const tsScale = 1e6 // simulation seconds → trace microseconds

// jobSpan is a matched start/finish pair on one cluster.
type jobSpan struct {
	job        JobRef
	start, end float64
}

// writeChromeTrace renders the collected events as Chrome trace-event
// JSON. Clusters become processes (pid = first-appearance order, 1-based),
// job runs become complete ("X") spans packed onto per-cluster lanes, and
// accepted migration probes become flow arrows between thin migration
// instants on the source and destination lanes. A non-nil set adds its
// sampled health series (internal/fleet sampling) as counter tracks ("C"
// events) on the fleet's pid-0 lane — Perfetto draws each series as a
// filled area chart above the job spans, on the same simulated-time axis.
func (c *Collector) writeChromeTrace(w io.Writer, set *telemetry.Set) error {
	jobs := c.Jobs()
	probes := c.Migrations()
	fair := c.FairnessSnapshots()

	// Cluster → pid, in order of first appearance across job events and
	// probes (so a cluster that only ever exported or imported migrations
	// still gets a lane).
	pids := map[string]int{}
	names := []string{}
	intern := func(name string) int {
		if name == "" {
			return 0
		}
		if p, ok := pids[name]; ok {
			return p
		}
		p := len(names) + 1
		pids[name] = p
		names = append(names, name)
		return p
	}
	for i := range jobs {
		intern(jobs[i].Cluster)
	}
	for i := range probes {
		intern(probes[i].FromName)
		intern(probes[i].ToName)
	}

	// Match start/finish pairs per cluster. A job restarted on the same
	// cluster (impossible today — starts are final) would simply open a
	// new span.
	open := map[string]map[int]jobSpan{}
	spans := map[string][]jobSpan{}
	for _, e := range jobs {
		switch e.Kind {
		case JobStart:
			m := open[e.Cluster]
			if m == nil {
				m = map[int]jobSpan{}
				open[e.Cluster] = m
			}
			m[e.Job.ID] = jobSpan{job: e.Job, start: e.Time}
		case JobFinish:
			if sp, ok := open[e.Cluster][e.Job.ID]; ok {
				sp.end = e.Time
				spans[e.Cluster] = append(spans[e.Cluster], sp)
				delete(open[e.Cluster], e.Job.ID)
			}
		}
	}

	var evs []traceEvent
	for i, name := range names {
		pid := i + 1
		evs = append(evs,
			traceEvent{Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": name}},
			traceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: 0,
				Args: map[string]any{"name": "migrations"}})
	}

	// Greedy lane packing per cluster: sort spans by start, place each on
	// the lowest-numbered lane that is free at its start instant.
	for _, name := range names {
		cl := spans[name]
		sort.Slice(cl, func(a, b int) bool {
			if cl[a].start != cl[b].start {
				return cl[a].start < cl[b].start
			}
			return cl[a].job.ID < cl[b].job.ID
		})
		pid := pids[name]
		var laneEnd []float64
		for _, sp := range cl {
			lane := -1
			for li, end := range laneEnd {
				if end <= sp.start {
					lane = li
					break
				}
			}
			if lane < 0 {
				lane = len(laneEnd)
				laneEnd = append(laneEnd, 0)
			}
			laneEnd[lane] = sp.end
			evs = append(evs, traceEvent{
				Name: fmt.Sprintf("job %d", sp.job.ID),
				Cat:  "job", Ph: "X",
				Ts: sp.start * tsScale, Dur: (sp.end - sp.start) * tsScale,
				Pid: pid, Tid: lane + 1,
				Args: map[string]any{
					"user":   sp.job.UserID,
					"procs":  sp.job.Procs,
					"submit": sp.job.SubmitTime,
					"wait_s": sp.start - sp.job.SubmitTime,
				},
			})
		}
	}

	// Accepted migrations: a thin instant slice on each side's migration
	// thread, connected by a flow arrow.
	arrows := 0
	for _, p := range probes {
		if !p.Moved || p.FromName == "" || p.ToName == "" {
			continue
		}
		arrows++
		src, dst := pids[p.FromName], pids[p.ToName]
		label := fmt.Sprintf("migrate job %d", p.Job.ID)
		ts := p.Time * tsScale
		args := map[string]any{
			"from": p.FromName, "to": p.ToName,
			"margin": p.Margin, "user": p.Job.UserID, "procs": p.Job.Procs,
		}
		evs = append(evs,
			traceEvent{Name: label, Cat: "migration", Ph: "X",
				Ts: ts, Dur: 1, Pid: src, Tid: 0, Args: args},
			traceEvent{Name: label, Cat: "migration", Ph: "s", ID: arrows,
				Ts: ts, Pid: src, Tid: 0},
			traceEvent{Name: label, Cat: "migration", Ph: "X",
				Ts: ts + 1, Dur: 1, Pid: dst, Tid: 0, Args: args},
			traceEvent{Name: label, Cat: "migration", Ph: "f", BP: "e", ID: arrows,
				Ts: ts + 1, Pid: dst, Tid: 0})
	}

	// Fleet-wide fairness counters and sampled health series ride on a
	// dedicated pid 0 process.
	if len(fair) > 0 || (set != nil && set.Len() > 0) {
		evs = append(evs, traceEvent{Name: "process_name", Ph: "M", Pid: 0,
			Args: map[string]any{"name": "fleet"}})
	}
	for _, s := range fair {
		evs = append(evs, traceEvent{Name: "fairness", Ph: "C",
			Ts: s.Time * tsScale, Pid: 0,
			Args: map[string]any{
				"jain":           s.Report.Jain,
				"max_mean_ratio": s.Report.MaxMeanRatio,
			}})
	}
	if set != nil {
		for _, sr := range set.All() {
			for _, p := range sr.Points {
				evs = append(evs, traceEvent{Name: sr.Name, Ph: "C",
					Ts: p.T * tsScale, Pid: 0,
					Args: map[string]any{"value": p.V}})
			}
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// WriteChromeTraceFile writes the collected events to a file path as a
// Chrome trace-event timeline (see writeChromeTrace).
func (c *Collector) WriteChromeTraceFile(path string) error {
	return c.WriteChromeTraceSeriesFile(path, nil)
}

// WriteChromeTraceSeriesFile writes the timeline plus counter tracks for
// the sampled series (nil set = plain timeline) to a file path.
func (c *Collector) WriteChromeTraceSeriesFile(path string, set *telemetry.Set) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.writeChromeTrace(f, set); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
