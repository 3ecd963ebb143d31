package serve

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"
)

// Metrics is the daemon's instrumentation: latency and slot-wait
// histograms plus monotonic counters, exposed in Prometheus text format.
// Everything is lock-free atomics so the hot path never serializes on a
// metrics mutex.
type Metrics struct {
	RequestsTotal  atomic.Uint64 // HTTP decision requests served
	DecisionsTotal atomic.Uint64 // queue states decided
	ErrorsTotal    atomic.Uint64 // rejected/failed decision requests
	ReloadsTotal   atomic.Uint64 // successful engine swaps

	Latency  Histogram // per-request decision latency (seconds)
	SlotWait Histogram // per-request wait for an engine slot (seconds)

	// Fleet-mode placement instrumentation: total placement decisions,
	// the per-request placement latency histogram, and one counter per
	// fleet shard (registered at startup; empty outside fleet mode).
	PlaceTotal   atomic.Uint64
	PlaceLatency Histogram
	placeNames   []string
	placeCounts  []atomic.Uint64

	// Migration instrumentation (fleet mode with -migrate): evaluations
	// of the /migrate endpoint, the per-request evaluation latency, and,
	// per destination shard, how many evaluations recommended a move.
	MigrateChecksTotal atomic.Uint64
	MigrateLatency     Histogram
	migrateCounts      []atomic.Uint64

	// Decision-cache instrumentation (cache.go; families emitted only
	// with -decision-cache set).
	CacheHits   atomic.Uint64 // decisions answered from the cache
	CacheMisses atomic.Uint64 // decisions that went to an engine

	// Durability instrumentation (durable.go; families emitted only in
	// fairness-tracking fleet mode).
	CheckpointsTotal atomic.Uint64 // snapshots written
	WALRecordsTotal  atomic.Uint64 // records appended to the WAL
	PlaceDedupTotal  atomic.Uint64 // /place batches dropped as replays
}

// RegisterPlaceClusters installs one placement counter and one migration
// counter per fleet shard. Call once at startup, before the handler
// serves.
func (m *Metrics) RegisterPlaceClusters(names []string) {
	m.placeNames = append([]string(nil), names...)
	m.placeCounts = make([]atomic.Uint64, len(names))
	m.migrateCounts = make([]atomic.Uint64, len(names))
}

// CountPlacement records one placement onto the i-th registered cluster.
func (m *Metrics) CountPlacement(i int) {
	m.PlaceTotal.Add(1)
	if i >= 0 && i < len(m.placeCounts) {
		m.placeCounts[i].Add(1)
	}
}

// CountMigration records one recommended move onto the i-th registered
// cluster.
func (m *Metrics) CountMigration(i int) {
	if i >= 0 && i < len(m.migrateCounts) {
		m.migrateCounts[i].Add(1)
	}
}

// NewMetrics returns a registry with latency buckets spanning 50µs–1s and
// slot-wait buckets from 1µs: an idle engine grants a slot in a
// microsecond or two, which the latency floor would clip.
func NewMetrics() *Metrics {
	m := &Metrics{}
	m.Latency.bounds = []float64{
		50e-6, 100e-6, 200e-6, 500e-6,
		1e-3, 2e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3, 1,
	}
	m.Latency.counts = make([]atomic.Uint64, len(m.Latency.bounds)+1)
	m.SlotWait.bounds = []float64{
		1e-6, 2e-6, 5e-6, 10e-6, 20e-6, 50e-6, 100e-6, 200e-6, 500e-6,
		1e-3, 2e-3, 5e-3, 10e-3, 100e-3, 1,
	}
	m.SlotWait.counts = make([]atomic.Uint64, len(m.SlotWait.bounds)+1)
	m.PlaceLatency.bounds = m.Latency.bounds
	m.PlaceLatency.counts = make([]atomic.Uint64, len(m.PlaceLatency.bounds)+1)
	m.MigrateLatency.bounds = m.Latency.bounds
	m.MigrateLatency.counts = make([]atomic.Uint64, len(m.MigrateLatency.bounds)+1)
	return m
}

// Histogram is a fixed-bucket, lock-free histogram. The sum is a float64
// carried in uint64 bits under a CAS loop (the Prometheus client's trick),
// so it neither loses sub-second precision nor wraps on long-running
// daemons the way fixed-point integer sums do.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a latency in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// writeProm emits the histogram in Prometheus text format.
func (h *Histogram) writeProm(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, trimFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum())
	fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
}

func trimFloat(v float64) string { return fmt.Sprintf("%g", v) }

// promCounter emits one un-labelled counter family with its HELP and TYPE
// header lines.
func promCounter(w io.Writer, name, help string, v uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

// promFamily emits the HELP and TYPE header lines of a labelled family
// whose samples the caller writes next.
func promFamily(w io.Writer, name, help, kind string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// WriteProm emits every metric in Prometheus text format — each family
// with its # HELP and # TYPE header. policy labels the currently served
// engine.
func (m *Metrics) WriteProm(w io.Writer, policy string) {
	promFamily(w, "rlserv_model_info", "Currently served policy (always 1, name in the label).", "gauge")
	fmt.Fprintf(w, "rlserv_model_info{policy=%q} 1\n", policy)
	promCounter(w, "rlserv_requests_total", "HTTP decision requests served.", m.RequestsTotal.Load())
	promCounter(w, "rlserv_decisions_total", "Queue states decided.", m.DecisionsTotal.Load())
	promCounter(w, "rlserv_errors_total", "Rejected or failed requests.", m.ErrorsTotal.Load())
	promCounter(w, "rlserv_reloads_total", "Successful engine hot-swaps.", m.ReloadsTotal.Load())
	m.Latency.writeProm(w, "rlserv_decision_latency_seconds", "Per-request decision latency in seconds.")
	m.SlotWait.writeProm(w, "rlserv_engine_slot_wait_seconds", "Per-request wait for an engine slot in seconds.")
	if len(m.placeNames) > 0 {
		promFamily(w, "rlserv_placements_total", "Placement decisions per destination cluster.", "counter")
		for i, name := range m.placeNames {
			fmt.Fprintf(w, "rlserv_placements_total{cluster=%q} %d\n", name, m.placeCounts[i].Load())
		}
		m.PlaceLatency.writeProm(w, "rlserv_place_latency_seconds", "Per-request placement latency in seconds.")
		promCounter(w, "rlserv_migrate_checks_total", "Evaluations of the /migrate endpoint.",
			m.MigrateChecksTotal.Load())
		m.MigrateLatency.writeProm(w, "rlserv_migrate_latency_seconds", "Per-request migration-check latency in seconds.")
		promFamily(w, "rlserv_migrations_total", "Recommended moves per destination cluster.", "counter")
		for i, name := range m.placeNames {
			fmt.Fprintf(w, "rlserv_migrations_total{cluster=%q} %d\n", name, m.migrateCounts[i].Load())
		}
	}
}
