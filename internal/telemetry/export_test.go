package telemetry

import (
	"encoding/json"
	"math"
)

// UnmarshalJSON accepts the [t, v] form MarshalJSON produces.
func (p *Point) UnmarshalJSON(b []byte) error {
	var a [2]float64
	if err := json.Unmarshal(b, &a); err != nil {
		return err
	}
	p.T, p.V = a[0], a[1]
	return nil
}

// merged sums the buckets of the slots inside the trailing window ending
// at now (the slot covering now is always inside) and returns them with
// the total count.
func (h *Histogram) merged(now float64) ([]uint64, uint64) {
	h.slot(now) // recycle the current slot before reading
	m := make([]uint64, len(h.bounds)+1)
	var total uint64
	for i, b := range h.buckets {
		if st := h.starts[i]; st > now-h.window-h.slotW/2 && st <= now {
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
