package telemetry

import "math"

// Sliding-window aggregates. Both structures share the same ring design:
// the window is split into a fixed number of equal slots, each slot
// accumulates the samples of one sub-interval, and a slot is lazily
// cleared when the clock wraps back onto it — so Observe/Add are O(1),
// nothing ticks in the background, and reads reconstruct the trailing
// window from the slots that are still fresh. Time never needs to be
// monotone per call, but samples older than the window are dropped.

// ring is the shared slot bookkeeping: slot i covers
// [start, start+slotW) where start is a multiple of slotW.
type ring struct {
	slotW  float64
	starts []float64
}

// slotAt returns the slot index covering now, lazily recycling the slot
// (via the clear callback) when it last covered an older sub-interval.
func (r *ring) slotAt(now float64, clear func(i int)) int {
	start := math.Floor(now/r.slotW) * r.slotW
	i := int(math.Mod(math.Floor(now/r.slotW), float64(len(r.starts))))
	if i < 0 {
		i += len(r.starts)
	}
	if r.starts[i] != start {
		clear(i)
		r.starts[i] = start
	}
	return i
}

// fresh reports whether slot i still lies inside the trailing window
// ending at now (the slot covering now itself is always fresh).
func (r *ring) fresh(i int, now, window float64) bool {
	return r.starts[i] > now-window-r.slotW/2 && r.starts[i] <= now
}

// Counter is a sliding-window accumulator: Add records a value at an
// instant, Sum and Rate report the total and per-second rate over the
// trailing window. The zero value is unusable — construct with NewCounter.
type Counter struct {
	window float64
	ring   ring
	sums   []float64
}

// NewCounter returns a counter over a trailing window of the given length
// (seconds), tracked in `slots` sub-intervals (higher = smoother expiry;
// values <= 0 take defaults of 60s and 8 slots).
func NewCounter(window float64, slots int) *Counter {
	if window <= 0 {
		window = 60
	}
	if slots <= 0 {
		slots = 8
	}
	c := &Counter{
		window: window,
		ring:   ring{slotW: window / float64(slots), starts: make([]float64, slots)},
		sums:   make([]float64, slots),
	}
	for i := range c.ring.starts {
		c.ring.starts[i] = math.Inf(-1)
	}
	return c
}

// Add records v at instant now.
func (c *Counter) Add(now, v float64) {
	i := c.ring.slotAt(now, func(i int) { c.sums[i] = 0 })
	c.sums[i] += v
}

// Sum returns the total recorded over the trailing window ending at now.
func (c *Counter) Sum(now float64) float64 {
	// Recycle the current slot first so a long-idle counter does not
	// report a stale slot that happens to alias the current index.
	c.ring.slotAt(now, func(i int) { c.sums[i] = 0 })
	total := 0.0
	for i, s := range c.sums {
		if c.ring.fresh(i, now, c.window) {
			total += s
		}
	}
	return total
}

// Rate returns Sum over the window length — the per-second rate.
func (c *Counter) Rate(now float64) float64 { return c.Sum(now) / c.window }

// Window returns the trailing window length in seconds.
func (c *Counter) Window() float64 { return c.window }

// LogBounds builds logarithmically spaced histogram bucket upper bounds
// from min to at least max, with perDecade buckets per factor of ten —
// the right shape for latencies, whose interesting resolution is relative,
// not absolute.
func LogBounds(min, max float64, perDecade int) []float64 {
	if min <= 0 || max <= min || perDecade <= 0 {
		return []float64{1}
	}
	var bounds []float64
	step := math.Pow(10, 1/float64(perDecade))
	for b := min; ; b *= step {
		bounds = append(bounds, b)
		if b >= max {
			return bounds
		}
	}
}

// Histogram is a fixed-bucket histogram over a sliding window: each ring
// slot holds a full bucket array for one sub-interval, and quantile
// queries merge the slots still inside the trailing window. Not
// concurrency-safe; concurrent writers add their own lock.
type Histogram struct {
	bounds  []float64
	window  float64
	ring    ring
	buckets [][]uint64
	scratch []uint64
}

// NewHistogram returns a windowed histogram over the given bucket upper
// bounds (ascending; one overflow bucket is added). window is the trailing
// length in seconds and slots the sub-interval count, with NewCounter's
// defaults (values <= 0 take 60s and 8 slots).
func NewHistogram(bounds []float64, window float64, slots int) *Histogram {
	if window <= 0 {
		window = 60
	}
	if slots <= 0 {
		slots = 8
	}
	h := &Histogram{
		bounds:  append([]float64(nil), bounds...),
		window:  window,
		ring:    ring{slotW: window / float64(slots), starts: make([]float64, slots)},
		buckets: make([][]uint64, slots),
		scratch: make([]uint64, len(bounds)+1),
	}
	for i := range h.buckets {
		h.buckets[i] = make([]uint64, len(bounds)+1)
		h.ring.starts[i] = math.Inf(-1)
	}
	return h
}

// slot returns the active slot for now, clearing it on recycle.
func (h *Histogram) slot(now float64) int {
	return h.ring.slotAt(now, func(i int) {
		b := h.buckets[i]
		for k := range b {
			b[k] = 0
		}
	})
}

// Observe records v at instant now.
func (h *Histogram) Observe(now, v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[h.slot(now)][i]++
}

// merged accumulates the fresh slots' buckets into the scratch array and
// returns it with the total count.
func (h *Histogram) merged(now float64) ([]uint64, uint64) {
	h.slot(now) // recycle the current slot before reading
	m := h.scratch
	for k := range m {
		m[k] = 0
	}
	var total uint64
	for i, b := range h.buckets {
		if h.ring.fresh(i, now, h.window) {
			for k, c := range b {
				m[k] += c
				total += c
			}
		}
	}
	return m, total
}

// Count returns the number of observations inside the trailing window.
func (h *Histogram) Count(now float64) uint64 {
	_, total := h.merged(now)
	return total
}

// Quantile returns an upper-bound estimate of the q-quantile over the
// trailing window (the smallest bucket bound covering q of the mass; the
// top bound for overflow mass; 0 when the window holds no samples).
func (h *Histogram) Quantile(now, q float64) float64 {
	m, total := h.merged(now)
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range m {
		cum += c
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			break
		}
	}
	// Overflow mass: clamp to the top bound (understate a pathological
	// tail instead of answering +Inf).
	return h.bounds[len(h.bounds)-1]
}

// Bounds returns the bucket upper bounds (shared slice — read-only use).
func (h *Histogram) Bounds() []float64 { return h.bounds }
