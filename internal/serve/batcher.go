package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// group is one submitted unit of work: all queue states of one HTTP
// request, answered together. Grouping whole requests (instead of one
// channel hop per state) keeps the per-decision synchronization cost
// constant under pipelined load.
type group struct {
	states   []*QueueState
	out      []Decision
	policy   string // name of the engine that decided the group
	enqueued time.Time
	done     chan struct{}
}

// engineBox makes the Engine interface value swappable via atomic.Pointer.
type engineBox struct{ e Engine }

// Batcher coalesces concurrent decision requests into batched engine
// calls. A fixed pool of workers pulls groups off one queue; a worker that
// dequeues a group greedily drains whatever else is already queued (up to
// MaxBatch states) into a single DecideBatch call and runs it at once.
// The batcher is work-conserving: batches form from requests queueing
// behind busy workers, never from an idle worker waiting for company — a
// batched forward pass costs no less per state than a solo one (DESIGN.md
// §14), so waiting could only add latency.
type Batcher struct {
	queue    chan *group
	quit     chan struct{}
	maxBatch int
	engine   atomic.Pointer[engineBox]

	wg     sync.WaitGroup
	closed atomic.Bool

	metrics *Metrics
}

// BatcherConfig sizes a Batcher. Zero values take defaults: workers =
// GOMAXPROCS, maxBatch = 64 states.
type BatcherConfig struct {
	Workers  int
	MaxBatch int
	// Metrics, when set, receives every engine call's batch size
	// (BatchSize) and every group's time in the queue (BatchQueue).
	Metrics *Metrics
}

// NewBatcher starts the worker pool serving the given engine.
func NewBatcher(e Engine, cfg BatcherConfig) *Batcher {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	b := &Batcher{
		queue:    make(chan *group, 4*cfg.MaxBatch),
		quit:     make(chan struct{}),
		maxBatch: cfg.MaxBatch,
		metrics:  cfg.Metrics,
	}
	b.engine.Store(&engineBox{e})
	b.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go b.worker()
	}
	return b
}

// Engine returns the currently served engine.
func (b *Batcher) Engine() Engine { return b.engine.Load().e }

// QueueDepth reports how many request groups are waiting in the batching
// queue right now — the backpressure signal the SLO monitor's high-water
// overload check reads.
func (b *Batcher) QueueDepth() int { return len(b.queue) }

// Swap atomically replaces the engine. In-flight batches finish on the
// engine they started with; queued and future work uses the new one. No
// request is dropped.
func (b *Batcher) Swap(e Engine) { b.engine.Store(&engineBox{e}) }

// Close stops the workers after draining whatever is queued. The queue
// channel is never closed, so a handler racing Close (e.g. when an HTTP
// graceful-shutdown deadline expires with requests still in flight) gets
// an error instead of a send-on-closed-channel panic.
func (b *Batcher) Close() {
	if b.closed.CompareAndSwap(false, true) {
		close(b.quit)
		b.wg.Wait()
	}
}

// Decide answers all states of one request, blocking until the batcher has
// run them (or ctx expires, leaving the work to be discarded when served).
// It also returns the name of the engine that decided the request, which
// during a hot swap can differ from the currently served engine.
func (b *Batcher) Decide(ctx context.Context, states []*QueueState) ([]Decision, string, error) {
	if len(states) == 0 {
		return nil, "", nil
	}
	if b.closed.Load() {
		return nil, "", fmt.Errorf("serve: batcher is shut down")
	}
	g := &group{states: states, out: make([]Decision, len(states)), enqueued: time.Now(), done: make(chan struct{})}
	select {
	case b.queue <- g:
	case <-b.quit:
		return nil, "", fmt.Errorf("serve: batcher is shut down")
	case <-ctx.Done():
		return nil, "", fmt.Errorf("serve: queue full: %w", ctx.Err())
	}
	select {
	case <-g.done:
		return g.out, g.policy, nil
	case <-b.quit:
		// Workers may already be gone; don't wait on abandoned work.
		select {
		case <-g.done:
			return g.out, g.policy, nil
		default:
			return nil, "", fmt.Errorf("serve: batcher is shut down")
		}
	case <-ctx.Done():
		return nil, "", ctx.Err()
	}
}

// worker is the batching loop.
func (b *Batcher) worker() {
	defer b.wg.Done()
	var (
		groups []*group
		states []*QueueState
		out    []Decision
	)
	runBatch := func(groups []*group) {
		states = states[:0]
		for _, g := range groups {
			states = append(states, g.states...)
		}
		if cap(out) < len(states) {
			out = make([]Decision, len(states))
		}
		out = out[:len(states)]
		eng := b.engine.Load().e
		if b.metrics != nil {
			start := time.Now()
			for _, g := range groups {
				b.metrics.BatchQueue.ObserveDuration(start.Sub(g.enqueued))
			}
			b.metrics.BatchSize.Observe(float64(len(states)))
		}
		eng.DecideBatch(states, out)
		i := 0
		for _, g := range groups {
			copy(g.out, out[i:i+len(g.states)])
			g.policy = eng.Name()
			i += len(g.states)
			close(g.done)
		}
	}

	for {
		var first *group
		select {
		case first = <-b.queue:
		case <-b.quit:
			// Drain and answer whatever made it into the queue.
			for {
				select {
				case g := <-b.queue:
					runBatch(append(groups[:0], g))
				default:
					return
				}
			}
		}
		groups = append(groups[:0], first)
		n := len(first.states)

		// Greedy, non-blocking drain of everything already queued.
	drain:
		for n < b.maxBatch {
			select {
			case g := <-b.queue:
				groups = append(groups, g)
				n += len(g.states)
			default:
				break drain
			}
		}
		runBatch(groups)
	}
}
