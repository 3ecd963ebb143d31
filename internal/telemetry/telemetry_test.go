package telemetry

import (
	"bytes"
	"math"
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

func TestCounterWindow(t *testing.T) {
	c := NewCounter(10, 5)
	c.Add(0, 1)
	c.Add(1, 2)
	c.Add(9, 4)
	if got := c.Sum(9); got != 7 {
		t.Fatalf("Sum(9) = %g, want 7", got)
	}
	// At t=12 the t=0..1 samples have aged out of the 10s window.
	if got := c.Sum(12); got != 4 {
		t.Fatalf("Sum(12) = %g, want 4", got)
	}
	if got := c.Rate(12); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("Rate(12) = %g, want 0.4", got)
	}
	// Far beyond the window everything is stale, including after a long
	// idle gap that wraps the ring many times over.
	if got := c.Sum(1e6); got != 0 {
		t.Fatalf("Sum(1e6) = %g, want 0", got)
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

// TestHistogramDefaultWindow: window and slots <= 0 take NewCounter's
// defaults, 60 s over 8 slots, so a sample at t=0 is gone by t=61.
func TestHistogramDefaultWindow(t *testing.T) {
	h := NewHistogram(LogBounds(1e-3, 1, 3), 0, 0)
	c := NewCounter(0, 0)
	h.Observe(0, 0.01)
	c.Add(0, 1)
	if got := h.Count(59); got != 1 {
		t.Fatalf("Count(59) = %d, want 1", got)
	}
	if hc, cs := h.Count(61), c.Sum(61); hc != 0 || cs != 0 {
		t.Fatalf("at t=61 Count = %d and Sum = %g, want both 0", hc, cs)
	}
	// Overflow mass clamps to the top bound instead of +Inf.
	h.Observe(61, 50)
	if got := h.Quantile(61, 1); got != h.Bounds()[len(h.Bounds())-1] {
		t.Fatalf("overflow quantile = %g, want top bound", got)
	}
}

// TestLadderTransitions pins the full escalation path 0→1→2 under
// sustained overload and the debounce on both directions.
func TestLadderTransitions(t *testing.T) {
	l := &Ladder{MaxLevel: 2, EscalateAfter: 3, RecoverAfter: 2}
	for i := 0; i < 2; i++ {
		if got := l.Eval(true); got != 0 {
			t.Fatalf("tick %d: level %d, want 0 (needs 3 consecutive)", i, got)
		}
	}
	if got := l.Eval(true); got != 1 {
		t.Fatalf("level %d after 3 bad ticks, want 1", got)
	}
	// A single good tick resets the bad streak without recovering.
	if got := l.Eval(false); got != 1 {
		t.Fatalf("level %d after 1 good tick, want 1 (needs 2)", got)
	}
	for i := 0; i < 3; i++ {
		l.Eval(true)
	}
	if got := l.Level(); got != 2 {
		t.Fatalf("level %d after renewed overload, want 2", got)
	}
	// Saturates at MaxLevel.
	for i := 0; i < 10; i++ {
		l.Eval(true)
	}
	if got := l.Level(); got != 2 {
		t.Fatalf("level %d, must saturate at 2", got)
	}
}

// TestLadderHysteresisRecovery pins the descent: each rung needs its own
// RecoverAfter streak, so full recovery from level 2 takes 2×RecoverAfter
// healthy ticks.
func TestLadderHysteresisRecovery(t *testing.T) {
	l := &Ladder{MaxLevel: 2, EscalateAfter: 1, RecoverAfter: 3}
	l.Eval(true)
	l.Eval(true)
	if l.Level() != 2 {
		t.Fatalf("setup level %d, want 2", l.Level())
	}
	want := []int{2, 2, 1, 1, 1, 0, 0}
	for i, w := range want {
		if got := l.Eval(false); got != w {
			t.Fatalf("good tick %d: level %d, want %d", i, got, w)
		}
	}
	// An overload mid-recovery resets the good streak (without itself
	// escalating — it is a lone bad tick under EscalateAfter 2).
	l2 := &Ladder{MaxLevel: 2, EscalateAfter: 2, RecoverAfter: 3}
	l2.Eval(true)
	l2.Eval(true) // level 1
	l2.Eval(false)
	l2.Eval(false)
	if got := l2.Eval(true); got != 1 {
		t.Fatalf("lone bad tick mid-recovery: level %d, want 1", got)
	}
	for i := 0; i < 2; i++ {
		if got := l2.Eval(false); got != 1 {
			t.Fatalf("good tick %d after interruption: level %d, want 1", i, got)
		}
	}
	if got := l2.Eval(false); got != 0 {
		t.Fatalf("level %d, want 0 after full streak", got)
	}
}

func TestLadderZeroValueDefaults(t *testing.T) {
	var l Ladder
	if got := l.Eval(true); got != 1 {
		t.Fatalf("zero-value ladder Eval(true) = %d, want 1", got)
	}
	if got := l.Eval(false); got != 0 {
		t.Fatalf("zero-value ladder Eval(false) = %d, want 0", got)
	}
}
