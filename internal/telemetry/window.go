package telemetry

import "math"

// The windowed Histogram is a ring: the window is split into a fixed
// number of equal slots, each slot accumulates the samples of one
// sub-interval, and a slot is lazily cleared when the clock wraps back onto
// it — so Observe is O(1), nothing ticks in the background, and reads
// reconstruct the trailing window from the slots that are still fresh.
// Time never needs to be monotone per call, but samples older than the
// window are dropped.

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
// slot holds a full bucket array for one sub-interval — slot i covers
// [starts[i], starts[i]+slotW), starts[i] a multiple of slotW — so the
// slots still inside the trailing window hold its samples. Not
// concurrency-safe; concurrent writers add their own lock.
type Histogram struct {
	bounds  []float64
	window  float64
	slotW   float64
	starts  []float64
	buckets [][]uint64
}

// NewHistogram returns a windowed histogram over the given bucket upper
// bounds (ascending; one overflow bucket is added). window is the trailing
// length in seconds and slots the sub-interval count (values <= 0 take
// 60s and 8 slots).
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
		slotW:   window / float64(slots),
		starts:  make([]float64, slots),
		buckets: make([][]uint64, slots),
	}
	for i := range h.buckets {
		h.buckets[i] = make([]uint64, len(bounds)+1)
		h.starts[i] = math.Inf(-1)
	}
	return h
}

// slot returns the slot covering now, lazily clearing it when it last
// covered an older sub-interval.
func (h *Histogram) slot(now float64) int {
	start := math.Floor(now/h.slotW) * h.slotW
	i := int(math.Mod(math.Floor(now/h.slotW), float64(len(h.starts))))
	if i < 0 {
		i += len(h.starts)
	}
	if h.starts[i] != start {
		clear(h.buckets[i])
		h.starts[i] = start
	}
	return i
}

// Observe records v at instant now.
func (h *Histogram) Observe(now, v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[h.slot(now)][i]++
}
