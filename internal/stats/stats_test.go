package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %g, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("Variance = %g, want 4", v)
	}
	if s := Std(xs); s != 2 {
		t.Errorf("Std = %g, want 2", s)
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || Skewness(nil) != 0 || Median(nil) != 0 {
		t.Error("empty-slice statistics must be 0")
	}
	if Variance([]float64{3}) != 0 {
		t.Error("single-value variance must be 0")
	}
	if Skewness([]float64{1, 1, 1, 1}) != 0 {
		t.Error("constant-sequence skewness must be 0")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max must be infinities")
	}
}

func TestMedianAndQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if m := Median(xs); m != 3 {
		t.Errorf("Median = %g, want 3", m)
	}
	even := []float64{1, 2, 3, 4}
	if m := Median(even); m != 2.5 {
		t.Errorf("even Median = %g, want 2.5", m)
	}
	if q := Quantile(even, 0); q != 1 {
		t.Errorf("q0 = %g, want 1", q)
	}
	if q := Quantile(even, 1); q != 4 {
		t.Errorf("q1 = %g, want 4", q)
	}
	if q := Quantile(even, 0.25); q != 1.75 {
		t.Errorf("q.25 = %g, want 1.75", q)
	}
	// Quantile must not mutate its input.
	if xs[0] != 5 {
		t.Error("Quantile mutated input")
	}
}

func TestSkewnessSign(t *testing.T) {
	right := []float64{1, 1, 1, 2, 2, 3, 50}
	if s := Skewness(right); s <= 0 {
		t.Errorf("right-tailed skewness = %g, want > 0", s)
	}
	left := []float64{-50, -3, -2, -2, -1, -1, -1}
	if s := Skewness(left); s >= 0 {
		t.Errorf("left-tailed skewness = %g, want < 0", s)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(n uint8) bool {
		k := int(n%50) + 2
		xs := make([]float64, k)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return Quantile(xs, 0) == Min(xs) && Quantile(xs, 1) == Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMeanBetweenMinAndMaxProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-6 && m <= Max(xs)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{-1, 0, 0.5, 1, 5, 9.99, 10, 42}
	h := NewHistogram(xs, 10, 0, 10)
	if h.Under != 1 {
		t.Errorf("Under = %d, want 1", h.Under)
	}
	if h.Over != 2 {
		t.Errorf("Over = %d, want 2", h.Over)
	}
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 5 {
		t.Errorf("in-range total = %d, want 5", total)
	}
	if h.Counts[0] != 2 { // 0 and 0.5
		t.Errorf("bin0 = %d, want 2", h.Counts[0])
	}
	if !almost(h.BinCenter(0), 0.5, 1e-12) {
		t.Errorf("BinCenter(0) = %g, want 0.5", h.BinCenter(0))
	}
}

func TestHistogramDegenerateArgs(t *testing.T) {
	h := NewHistogram([]float64{1, 2}, 0, 5, 5)
	if len(h.Counts) != 1 {
		t.Errorf("bins clamped to %d, want 1", len(h.Counts))
	}
	if h.Hi <= h.Lo {
		t.Error("hi must be forced above lo")
	}
}

// TestSignTest pins exact two-sided p values, computed independently from
// the binomial distribution, across the range the fleet experiments use.
func TestSignTest(t *testing.T) {
	// pairs builds w wins, l losses and one tie for a against b.
	pairs := func(w, l int) (a, b []float64) {
		for i := 0; i < w; i++ {
			a, b = append(a, 1), append(b, 2)
		}
		for i := 0; i < l; i++ {
			a, b = append(a, 3), append(b, 2)
		}
		return append(a, 5), append(b, 5)
	}
	for _, tc := range []struct {
		w, l int
		p    float64
	}{
		{9, 5, 0.42395}, {8, 9, 1}, {77, 32, 1.93805e-05},
		{5, 0, 0.0625}, {6, 0, 0.03125}, {0, 0, 1},
	} {
		a, b := pairs(tc.w, tc.l)
		w, l, p := SignTest(a, b)
		if w != tc.w || l != tc.l || math.Abs(p-tc.p) > 5e-6*tc.p {
			t.Errorf("SignTest(%d won, %d lost) = %d, %d, p %.6g; want p %.6g", tc.w, tc.l, w, l, p, tc.p)
		}
		// Swapping the sides swaps wins and losses and keeps p.
		if lb, wb, pb := SignTest(b, a); wb != w || lb != l || pb != p {
			t.Errorf("SignTest swapped = %d won, %d lost, p %g; want %d, %d, %g", lb, wb, pb, l, w, p)
		}
	}
	a, b := pairs(2364, 1337)
	if _, _, p := SignTest(a, b); !(p > 0 && p < 1e-60) {
		t.Errorf("SignTest(2364 won, 1337 lost) p = %g, want finite and below 1e-60", p)
	}
}
