// Package stats provides the small set of statistics the RLScheduler
// pipeline needs: moments, quantiles, skewness, fixed-width histograms
// (used to derive the trajectory-filtering range of §IV-C) and the paired
// sign test the fleet experiments judge their claims with.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance, or 0 for fewer than two values.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Skewness returns the standardized third moment, or 0 when undefined.
func Skewness(xs []float64) float64 {
	if len(xs) < 3 {
		return 0
	}
	m := Mean(xs)
	sd := Std(xs)
	if sd == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		d := (x - m) / sd
		s += d * d * d
	}
	return s / float64(len(xs))
}

// Median returns the 0.5 quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation
// between order statistics. It copies its input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if q <= 0 {
		return c[0]
	}
	if q >= 1 {
		return c[len(c)-1]
	}
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return c[lo]
	}
	frac := pos - float64(lo)
	return c[lo]*(1-frac) + c[hi]*frac
}

// Min returns the minimum, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// SignTest is the exact two-sided sign test over paired outcomes where
// lower is better: pair i is a win when a[i] < b[i], a loss when
// a[i] > b[i], and a tie, which is dropped, otherwise. p is the chance of a
// split at least as lopsided as wins:losses when either side of a decided
// pair wins with probability 1/2 (1 when no pair is decided). The binomial
// tail is summed by recurrence from its largest term, scaled in log space,
// so p stays finite for any number of pairs.
func SignTest(a, b []float64) (wins, losses int, p float64) {
	if len(a) != len(b) {
		panic("stats: SignTest needs paired slices of equal length")
	}
	for i := range a {
		if a[i] < b[i] {
			wins++
		} else if a[i] > b[i] {
			losses++
		}
	}
	n, k := wins+losses, min(wins, losses)
	lg := func(x int) float64 { v, _ := math.Lgamma(float64(x) + 1); return v }
	// P(X = i) / P(X = k) for X ~ Binomial(n, 1/2), walking i down from k.
	sum, term := 0.0, 1.0
	for i := k; i >= 0; i-- {
		sum += term
		term *= float64(i) / float64(n-i+1)
	}
	logTop := lg(n) - lg(k) - lg(n-k) - float64(n)*math.Ln2
	return wins, losses, math.Min(1, 2*math.Exp(logTop)*sum)
}

// Histogram is a fixed-width histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	// Under and Over count samples outside [Lo, Hi).
	Under, Over int
}

// NewHistogram builds a histogram of xs with the given number of bins.
func NewHistogram(xs []float64, bins int, lo, hi float64) *Histogram {
	if bins <= 0 {
		bins = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	w := (hi - lo) / float64(bins)
	for _, x := range xs {
		switch {
		case x < lo:
			h.Under++
		case x >= hi:
			h.Over++
		default:
			i := int((x - lo) / w)
			if i >= bins {
				i = bins - 1
			}
			h.Counts[i]++
		}
	}
	return h
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}
