package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rlsched/internal/telemetry"
)

// SLO monitoring and the serving degradation ladder (DESIGN.md §11).
//
// With a latency budget configured, the daemon keeps windowed per-endpoint
// latency histograms (telemetry.Histogram over the wall clock) and
// evaluates them periodically: an evaluation is overloaded when any
// endpoint's windowed p99 exceeds the budget or the requests waiting for an
// engine slot reach the high-water mark. Consecutive overloaded evaluations climb a
// hysteresis ladder (telemetry.Ladder) that degrades /v1/decide:
//
//	level 0 — full service: the served engine, under the batcher's limit
//	level 1 — degraded: the SJF heuristic fallback engine (no wait for
//	          an engine slot, no model forward pass)
//	level 2 — shedding: a static FCFS answer (pick the head of every
//	          queue) with no engine call at all
//
// /readyz reports 503 at any level above 0 (stop sending new load here);
// /healthz flips 503 at HealthzLevel (default 2, "pull me out"). The level,
// breach count and windowed latency quantiles are exported on /metrics.

// SLOConfig parameterizes the monitor. The zero value (P99Budget 0)
// disables it entirely: no goroutine, no histograms, no /metrics families —
// the disabled daemon is byte-identical to one built before the monitor
// existed.
type SLOConfig struct {
	// P99Budget is the per-endpoint p99 latency budget. 0 disables SLO
	// monitoring and the degradation ladder.
	P99Budget time.Duration
	// Window is the sliding window the latency quantiles are computed
	// over (default 30s).
	Window time.Duration
	// EvalEvery is the evaluation period (default 1s).
	EvalEvery time.Duration
	// QueueHigh, when positive, adds a queue-depth overload signal: an
	// evaluation is overloaded when this many requests are waiting for an
	// engine slot on any one batcher, even if latency still looks healthy.
	QueueHigh int
	// EscalateAfter / RecoverAfter are the ladder's debounce streaks
	// (defaults 3 and 5: ~3s of sustained breach to degrade, ~5s of
	// sustained health per rung to recover, at the default EvalEvery).
	EscalateAfter int
	RecoverAfter  int
	// HealthzLevel is the degradation level at which /healthz flips to
	// 503 (default 2 — degraded-but-deciding still counts as alive).
	HealthzLevel int
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Window <= 0 {
		c.Window = 30 * time.Second
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = time.Second
	}
	if c.EscalateAfter <= 0 {
		c.EscalateAfter = 3
	}
	if c.RecoverAfter <= 0 {
		c.RecoverAfter = 5
	}
	if c.HealthzLevel <= 0 {
		c.HealthzLevel = 2
	}
	return c
}

// sloMonitor owns the windowed endpoint histograms, the ladder, and the
// evaluation loop. The current level is mirrored into an atomic so the
// request hot path reads it without taking the monitor lock.
type sloMonitor struct {
	cfg SLOConfig

	mu     sync.Mutex
	hists  map[string]*telemetry.Histogram
	paths  []string // creation order, for deterministic /metrics output
	ladder telemetry.Ladder

	level    atomic.Int32
	breaches atomic.Uint64

	// clock reports seconds since some fixed origin; tests inject a fake.
	clock func() float64
	// queueDepth reports the most requests waiting on any one batcher.
	queueDepth func() int
	// fallback is the level-1 heuristic engine (SJF).
	fallback Engine

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// newSLOMonitor builds the monitor without starting its loop (run starts
// it; unit tests drive evalOnce directly instead).
func newSLOMonitor(cfg SLOConfig, queueDepth func() int, fallback Engine) *sloMonitor {
	cfg = cfg.withDefaults()
	start := time.Now()
	m := &sloMonitor{
		cfg:        cfg,
		hists:      map[string]*telemetry.Histogram{},
		ladder:     telemetry.Ladder{MaxLevel: 2, EscalateAfter: cfg.EscalateAfter, RecoverAfter: cfg.RecoverAfter},
		clock:      func() float64 { return time.Since(start).Seconds() },
		queueDepth: queueDepth,
		fallback:   fallback,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	return m
}

// run starts the evaluation ticker; close stops it.
func (m *sloMonitor) run() {
	go func() {
		defer close(m.done)
		t := time.NewTicker(m.cfg.EvalEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.evalOnce()
			case <-m.stop:
				return
			}
		}
	}()
}

func (m *sloMonitor) close() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
}

// histFor returns the endpoint's windowed histogram, creating it on first
// use. Callers hold mu.
func (m *sloMonitor) histFor(path string) *telemetry.Histogram {
	h := m.hists[path]
	if h == nil {
		// 50µs to 10s, 9 buckets per decade — the same span the
		// cumulative /metrics histograms cover, with window resolution.
		h = telemetry.NewHistogram(telemetry.LogBounds(50e-6, 10, 9),
			m.cfg.Window.Seconds(), 10)
		m.hists[path] = h
		m.paths = append(m.paths, path)
	}
	return h
}

// observe records one request latency for an endpoint.
func (m *sloMonitor) observe(path string, d time.Duration) {
	m.mu.Lock()
	m.histFor(path).Observe(m.clock(), d.Seconds())
	m.mu.Unlock()
}

// evalOnce runs one evaluation tick: overloaded when any endpoint's
// windowed p99 exceeds the budget, or the requests waiting for an engine
// slot are at the high-water mark. Returns the post-evaluation level.
func (m *sloMonitor) evalOnce() int {
	budget := m.cfg.P99Budget.Seconds()
	now := m.clock()
	overloaded := false
	m.mu.Lock()
	for _, p := range m.paths {
		if m.hists[p].Quantile(now, 0.99) > budget {
			overloaded = true
			break
		}
	}
	m.mu.Unlock()
	if !overloaded && m.cfg.QueueHigh > 0 && m.queueDepth != nil &&
		m.queueDepth() >= m.cfg.QueueHigh {
		overloaded = true
	}
	if overloaded {
		m.breaches.Add(1)
	}
	m.mu.Lock()
	level := m.ladder.Eval(overloaded)
	m.mu.Unlock()
	m.level.Store(int32(level))
	return level
}

// Level is the current degradation level (hot-path read, no lock).
func (m *sloMonitor) Level() int { return int(m.level.Load()) }

// writeProm exports the monitor's state: the level gauge, the breach
// counter, and windowed p50/p95/p99 per endpoint.
func (m *sloMonitor) writeProm(w io.Writer) {
	promFamily(w, "rlserv_degradation_level",
		"Current degradation ladder level (0 full service, 1 heuristic fallback, 2 shedding).", "gauge")
	fmt.Fprintf(w, "rlserv_degradation_level %d\n", m.Level())
	promCounter(w, "rlserv_slo_breaches_total",
		"SLO evaluations that observed an overload.", m.breaches.Load())
	promFamily(w, "rlserv_request_latency_seconds",
		"Windowed request latency quantiles per endpoint.", "gauge")
	now := m.clock()
	m.mu.Lock()
	paths := append([]string(nil), m.paths...)
	sort.Strings(paths)
	for _, p := range paths {
		h := m.hists[p]
		for _, q := range []float64{0.5, 0.95, 0.99} {
			fmt.Fprintf(w, "rlserv_request_latency_seconds{path=%q,quantile=\"%g\"} %g\n",
				p, q, h.Quantile(now, q))
		}
	}
	m.mu.Unlock()
}

// staticDecide is the level-2 shedding answer: pick the head of every
// queue (FCFS — the queues arrive submit-ordered) without any engine call.
func staticDecide(states []*QueueState, out []Decision) {
	for i := range out {
		out[i] = Decision{Pick: 0}
	}
	_ = states
}

// staticPolicyName labels shed responses so clients and tests can tell the
// three service levels apart from the response body alone.
const staticPolicyName = "static-fcfs"
