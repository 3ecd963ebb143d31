package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

var errShutDown = fmt.Errorf("serve: batcher is shut down")

// Batcher is a hot-swappable engine behind one concurrency limit. Decide
// runs the engine on the calling goroutine, one call per request: a batched
// forward pass costs no less per state than a solo one (DESIGN.md §14), so
// there is nothing to coalesce. What is left is the limit — at most Workers
// calls in flight, which bounds the per-call scratch — and the count of
// callers waiting their turn.
type Batcher struct {
	engine  atomic.Pointer[Engine]
	slots   chan struct{} // counting semaphore: a token per engine call in flight
	quit    chan struct{} // closed by Close
	waiting atomic.Int64
	closing sync.Once
	metrics *Metrics
}

// BatcherConfig sizes a Batcher.
type BatcherConfig struct {
	// Workers is how many engine calls may run at once (default GOMAXPROCS).
	Workers int
	// Metrics, when set, receives every call's wait for a slot (SlotWait).
	Metrics *Metrics
}

// NewBatcher serves the given engine. It starts no goroutines.
func NewBatcher(e Engine, cfg BatcherConfig) *Batcher {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	b := &Batcher{slots: make(chan struct{}, cfg.Workers), quit: make(chan struct{}), metrics: cfg.Metrics}
	b.engine.Store(&e)
	return b
}

// Engine returns the currently served engine.
func (b *Batcher) Engine() Engine { return *b.engine.Load() }

// QueueDepth reports how many callers are waiting for an engine slot right
// now.
func (b *Batcher) QueueDepth() int { return int(b.waiting.Load()) }

// Swap atomically replaces the engine. Calls in flight finish on the engine
// they loaded; waiting and future callers get the new one. None is dropped.
func (b *Batcher) Swap(e Engine) { b.engine.Store(&e) }

// Close turns waiting and future callers away with an error, then takes
// every slot for good: it returns once the calls in flight have finished,
// and no engine call starts after it. A handler racing Close (a graceful
// shutdown's deadline expiring mid-request) gets the error, never a panic.
func (b *Batcher) Close() {
	b.closing.Do(func() {
		close(b.quit)
		for i := 0; i < cap(b.slots); i++ {
			b.slots <- struct{}{}
		}
	})
}

// Decide answers all states of one request with one engine call on the
// calling goroutine, waiting first for a free slot (or ctx, or Close). It
// also names the engine that decided, which mid-swap may not be Engine().
func (b *Batcher) Decide(ctx context.Context, states []*QueueState) ([]Decision, string, error) {
	if len(states) == 0 {
		return nil, "", nil
	}
	var err error
	start := time.Now()
	b.waiting.Add(1)
	select {
	case b.slots <- struct{}{}:
	case <-b.quit:
		err = errShutDown
	case <-ctx.Done():
		err = fmt.Errorf("serve: waiting for an engine slot: %w", ctx.Err())
	}
	b.waiting.Add(-1)
	if err != nil {
		return nil, "", err
	}
	defer func() { <-b.slots }()
	if b.metrics != nil {
		b.metrics.SlotWait.ObserveDuration(time.Since(start))
	}
	eng := b.Engine()
	out := make([]Decision, len(states))
	eng.DecideBatch(states, out)
	return out, eng.Name(), nil
}
