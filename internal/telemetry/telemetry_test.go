package telemetry

import (
	"bytes"
	"testing"
)

func TestSeriesSetRoundTrip(t *testing.T) {
	set := NewSet()
	set.Series("a.util").Add(0, 0.5)
	set.Series("a.util").Add(10, 0.75)
	set.Series("b.queue").Add(10, 3)
	if set.Len() != 2 {
		t.Fatalf("Len = %d, want 2", set.Len())
	}
	if got := set.Series("a.util"); got != set.Get("a.util") {
		t.Fatal("Series and Get disagree")
	}
	if last := set.Get("a.util").Last(); last.T != 10 || last.V != 0.75 {
		t.Fatalf("Last = %+v", last)
	}

	var buf bytes.Buffer
	if err := set.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`[10,0.75]`)) {
		t.Fatalf("points must marshal as [t,v] pairs: %s", buf.Bytes())
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 || len(back.Get("a.util").Points) != 2 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if p := back.Get("b.queue").Points[0]; p.T != 10 || p.V != 3 {
		t.Fatalf("round trip point = %+v", p)
	}

	set.Reset()
	if set.Len() != 0 || set.Get("a.util") != nil {
		t.Fatal("Reset must drop every series")
	}
}

func TestLogBounds(t *testing.T) {
	b := LogBounds(1e-3, 1, 3)
	if b[0] != 1e-3 {
		t.Fatalf("first bound %g", b[0])
	}
	if b[len(b)-1] < 1 {
		t.Fatalf("last bound %g must cover the max", b[len(b)-1])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d: %v", i, b)
		}
	}
	// 3 per decade over 3 decades: ~10 bounds, not hundreds.
	if len(b) < 9 || len(b) > 12 {
		t.Fatalf("unexpected bound count %d: %v", len(b), b)
	}
}

func TestHistogramWindowedQuantiles(t *testing.T) {
	h := NewHistogram(LogBounds(1e-3, 10, 9), 10, 5)
	if got := h.Quantile(0, 0.99); got != 0 {
		t.Fatalf("empty quantile = %g, want 0", got)
	}
	// 90 fast samples and 10 slow ones at t~1.
	for i := 0; i < 90; i++ {
		h.Observe(1, 0.002)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1, 0.5)
	}
	if got := h.Count(1); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	p50, p99 := h.Quantile(1, 0.50), h.Quantile(1, 0.99)
	if p50 < 0.002 || p50 > 0.004 {
		t.Fatalf("p50 = %g, want ~2ms bucket", p50)
	}
	if p99 < 0.5 || p99 > 1 {
		t.Fatalf("p99 = %g, want ~0.5s bucket", p99)
	}
	if p95 := h.Quantile(1, 0.95); p95 < p50 || p95 > p99 {
		t.Fatalf("quantiles not monotone: p50=%g p95=%g p99=%g", p50, p95, p99)
	}
	// Fresh fast samples at t=8; at t=12 the slow batch (t=1) has aged
	// out and p99 returns under the slow bucket.
	for i := 0; i < 50; i++ {
		h.Observe(8, 0.002)
	}
	if got := h.Quantile(12, 0.99); got >= 0.5 {
		t.Fatalf("aged-out p99 = %g, want < 0.5", got)
	}
	if got := h.Count(20); got != 0 {
		t.Fatalf("Count after full expiry = %d, want 0", got)
	}
}

// TestHistogramDefaultWindow: window and slots <= 0 take the defaults,
// 60 s over 8 slots, so a sample at t=0 is gone by t=61.
func TestHistogramDefaultWindow(t *testing.T) {
	h := NewHistogram(LogBounds(1e-3, 1, 3), 0, 0)
	h.Observe(0, 0.01)
	if got := h.Count(59); got != 1 {
		t.Fatalf("Count(59) = %d, want 1", got)
	}
	if got := h.Count(61); got != 0 {
		t.Fatalf("Count(61) = %d, want 0", got)
	}
	// Overflow mass clamps to the top bound instead of +Inf.
	h.Observe(61, 50)
	if got := h.Quantile(61, 1); got != h.Bounds()[len(h.Bounds())-1] {
		t.Fatalf("overflow quantile = %g, want top bound", got)
	}
}
