package obs

import "sync"

// Ring is a fixed-capacity Recorder retaining the most recent placement
// decisions (other event kinds are discarded) — the sink behind the
// serving daemon's /debug/decisions endpoint. Writes deep-copy the event
// and stamp Seq with a monotonic 1-based sequence number, so readers can
// tell how many decisions have scrolled past the window. Safe for
// concurrent use.
type Ring struct {
	mu    sync.Mutex
	buf   []PlacementDecision
	total uint64
}

// NewRing returns a ring keeping the last n placement decisions (n >= 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]PlacementDecision, n)}
}

// Placement implements Recorder: deep-copy the decision into the ring,
// overwriting the oldest slot once full.
func (r *Ring) Placement(d *PlacementDecision) {
	cp := copyDecision(d)
	r.mu.Lock()
	r.total++
	cp.Seq = r.total
	r.buf[int((r.total-1)%uint64(len(r.buf)))] = cp
	r.mu.Unlock()
}

// Migration implements Recorder (discarded).
func (r *Ring) Migration(*MigrationProbe) {}

// Fairness implements Recorder (discarded).
func (r *Ring) Fairness(*FairnessSnapshot) {}

// Job implements Recorder (discarded).
func (r *Ring) Job(*JobEvent) {}

// Total returns how many decisions have ever been recorded (including
// those the ring has since overwritten).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Last returns up to n retained decisions, most recent first. Each
// element's trace slices are the ring's private copies — read, don't
// mutate.
func (r *Ring) Last(n int) []PlacementDecision {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.total
	if kept > uint64(len(r.buf)) {
		kept = uint64(len(r.buf))
	}
	if n < 0 || uint64(n) > kept {
		n = int(kept)
	}
	out := make([]PlacementDecision, 0, n)
	for i := 0; i < n; i++ {
		seq := r.total - uint64(i)
		out = append(out, r.buf[int((seq-1)%uint64(len(r.buf)))])
	}
	return out
}
