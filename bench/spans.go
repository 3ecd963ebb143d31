package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rlsched/internal/fleet"
	"rlsched/internal/job"
	"rlsched/internal/serve"
)

// Spans are recorded from the benchmark's own files, around the calls into
// each layer's public surface: the load generator's round trip, a
// middleware around the server's http.Handler, a serve.Engine decorator
// and a fleet.Router decorator. Nothing inside internal/ is instrumented.
// The log lives in memory and is written as Chrome trace JSON on exit.

// span is one timed interval. req ties the spans of one request together;
// n is the span's own count (queue states in an engine call).
type span struct {
	name       string
	start, end time.Duration // since the log's origin
	parent     int           // index of the causing span, -1 for a root
	req        int64
	n          int
}

func (s span) dur() time.Duration { return s.end - s.start }

// spanLog collects spans while on is set. The decorators stay installed in
// the untraced phases of a traced run; switched off they cost one atomic
// load, which is what lets one process measure the tracing overhead.
type spanLog struct {
	on     atomic.Bool
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) add(name string, start, end time.Time, req int64, n int) {
	s := span{name: name, start: start.Sub(l.origin), end: end.Sub(l.origin), parent: -1, req: req, n: n}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// take returns the spans recorded so far and starts a fresh phase.
func (l *spanLog) take() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.spans
	l.spans = nil
	return out
}

const (
	spanClient  = "loadgen.round_trip"
	spanHandler = "serve.handler"
	spanEngine  = "serve.engine"
	spanRoute   = "fleet.route"
	benchIDHdr  = "X-Bench-Id"
)

// tracedEngine times every DecideBatch of the engine it wraps.
type tracedEngine struct {
	serve.Engine
	log *spanLog
}

func (e *tracedEngine) DecideBatch(states []*serve.QueueState, out []serve.Decision) {
	if !e.log.on.Load() {
		e.Engine.DecideBatch(states, out)
		return
	}
	t0 := time.Now()
	e.Engine.DecideBatch(states, out)
	e.log.add(spanEngine, t0, time.Now(), 0, len(states))
}

// traceHandler times every request the handler serves; the request id
// travels in a header so the span joins the client's round trip.
func traceHandler(h http.Handler, log *spanLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !log.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseInt(r.Header.Get(benchIDHdr), 10, 64)
		t0 := time.Now()
		h.ServeHTTP(w, r)
		log.add(spanHandler, t0, time.Now(), id, 0)
	})
}

// tracedRouter times every placement of the pipeline it wraps. Fleet.Run
// places strictly serially, so the totals need no synchronization. It
// forwards ClockFree, so the fleet takes the same clock-refresh path as
// with the bare pipeline.
type tracedRouter struct {
	inner *fleet.Pipeline
	log   *spanLog
	total time.Duration
	calls int
}

func (t *tracedRouter) Name() string    { return t.inner.Name() }
func (t *tracedRouter) ClockFree() bool { return t.inner.ClockFree() }

func (t *tracedRouter) Place(j *job.Job, cands []*fleet.Candidate) int {
	t0 := time.Now()
	k := t.inner.Place(j, cands)
	t1 := time.Now()
	t.total += t1.Sub(t0)
	t.calls++
	if t.log.on.Load() {
		t.log.add(spanRoute, t0, t1, int64(t.calls), len(cands))
	}
	return k
}

// link fills each span's parent: a handler span is caused by the client
// round trip carrying its request id, an engine or route span by the
// enclosing span that was open when it ran. parents names, per span name,
// the span name that can cause it.
func link(spans []span, parents map[string]string) {
	byReq := map[string]map[int64]int{}
	for i, s := range spans {
		if s.req != 0 {
			if byReq[s.name] == nil {
				byReq[s.name] = map[int64]int{}
			}
			byReq[s.name][s.req] = i
		}
	}
	// Enclosure is resolved against the candidate parents sorted by start.
	starts := map[string][]int{}
	for i, s := range spans {
		starts[s.name] = append(starts[s.name], i)
	}
	for _, idx := range starts {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].start < spans[idx[b]].start })
	}
	for i := range spans {
		s := &spans[i]
		pname, ok := parents[s.name]
		if !ok {
			continue
		}
		if p, ok := byReq[pname][s.req]; ok && s.req != 0 {
			s.parent = p
			continue
		}
		cands := starts[pname]
		// First candidate starting after s cannot enclose it; walk back
		// over the few that started before and are still open.
		k := sort.Search(len(cands), func(k int) bool { return spans[cands[k]].start > s.start })
		for stop := k - 64; k > 0 && k > stop; k-- {
			if spans[cands[k-1]].end >= s.end {
				s.parent = cands[k-1]
				break
			}
		}
	}
}

// maxTraceSpans caps the Chrome trace file; the metrics use every span.
const maxTraceSpans = 40000

// writeChromeTrace renders spans in the Chrome trace-event JSON object
// format (load at ui.perfetto.dev or chrome://tracing). Each span name is
// a process; overlapping spans of one name are packed onto separate lanes.
func writeChromeTrace(path string, spans []span) error {
	if len(spans) > maxTraceSpans {
		spans = spans[:maxTraceSpans]
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return spans[order[a]].start < spans[order[b]].start })
	pids := map[string]int{}
	lanes := map[string][]time.Duration{} // per name: end time of each lane's last span
	events := make([]event, 0, len(spans))
	for _, i := range order {
		s := spans[i]
		if _, ok := pids[s.name]; !ok {
			pids[s.name] = len(pids) + 1
		}
		lane := 0
		for lane < len(lanes[s.name]) && lanes[s.name][lane] > s.start {
			lane++
		}
		if lane == len(lanes[s.name]) {
			lanes[s.name] = append(lanes[s.name], 0)
		}
		lanes[s.name][lane] = s.end
		args := map[string]any{"span": i, "parent": s.parent}
		if s.req != 0 {
			args["req"] = s.req
		}
		if s.n != 0 {
			args["n"] = s.n
		}
		events = append(events, event{
			Name: s.name, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: pids[s.name], Tid: lane, Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
