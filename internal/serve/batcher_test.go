package serve

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// gatedEngine is an Engine whose every DecideBatch call announces the
// states it was handed and then blocks until the test lets it go, so a
// test decides what is queued while a worker is busy. A state is
// identified by its Now; the answer for it is Pick = base + Now.
type gatedEngine struct {
	name    string
	base    int
	entered chan []float64 // one send per call: the Now of each state, in order
	release chan struct{}  // one receive per call; close it to open the gate for good
}

func newGatedEngine(name string, base int) *gatedEngine {
	// entered is buffered past any test's call count: a call never blocks
	// on announcing itself, only on the gate.
	return &gatedEngine{name: name, base: base, entered: make(chan []float64, 64), release: make(chan struct{})}
}

func (e *gatedEngine) Name() string { return e.name }
func (e *gatedEngine) MaxJobs() int { return 0 }
func (e *gatedEngine) DecideBatch(states []*QueueState, out []Decision) {
	tags := make([]float64, len(states))
	for i, st := range states {
		tags[i] = st.Now
	}
	e.entered <- tags
	<-e.release
	for i, st := range states {
		out[i] = Decision{Pick: e.base + int(st.Now)}
	}
}

// hang bounds every wait of these tests. Nothing is asserted about elapsed
// time; it only turns a deadlock into a failure.
const hang = 10 * time.Second

// nextCall returns the states of the engine's next DecideBatch call.
func (e *gatedEngine) nextCall(t *testing.T) []float64 {
	t.Helper()
	select {
	case tags := <-e.entered:
		return tags
	case <-time.After(hang):
		t.Fatal("no engine call arrived")
		return nil
	}
}

// noCall fails if the engine was called again.
func (e *gatedEngine) noCall(t *testing.T) {
	t.Helper()
	select {
	case tags := <-e.entered:
		t.Fatalf("unexpected engine call with states %v", tags)
	default:
	}
}

// taggedStates builds one request group whose states carry the given tags.
func taggedStates(tags ...float64) []*QueueState {
	states := make([]*QueueState, len(tags))
	for i, tag := range tags {
		states[i] = &QueueState{Now: tag}
	}
	return states
}

// answer is what one Decide call returned.
type answer struct {
	picks  []int
	policy string
	err    error
}

// decideAsync runs b.Decide(tags) on its own goroutine.
func decideAsync(ctx context.Context, b *Batcher, tags ...float64) <-chan answer {
	ch := make(chan answer, 1)
	go func() {
		decs, policy, err := b.Decide(ctx, taggedStates(tags...))
		a := answer{policy: policy, err: err}
		for _, d := range decs {
			a.picks = append(a.picks, d.Pick)
		}
		ch <- a
	}()
	return ch
}

func await(t *testing.T, ch <-chan answer) answer {
	t.Helper()
	select {
	case a := <-ch:
		return a
	case <-time.After(hang):
		t.Fatal("Decide did not return")
		return answer{}
	}
}

// enqueue starts one Decide per group, in order: each is in the queue
// before the next starts, so the worker finds them in this order.
func enqueue(t *testing.T, b *Batcher, groups ...[]float64) []<-chan answer {
	t.Helper()
	base := b.QueueDepth()
	out := make([]<-chan answer, len(groups))
	deadline := time.Now().Add(hang)
	for i, tags := range groups {
		out[i] = decideAsync(context.Background(), b, tags...)
		for b.QueueDepth() != base+i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("group %d never reached the queue", i)
			}
			runtime.Gosched()
		}
	}
	return out
}

func wantAnswer(t *testing.T, got answer, policy string, picks ...int) {
	t.Helper()
	if got.err != nil || got.policy != policy || !reflect.DeepEqual(got.picks, picks) {
		t.Fatalf("Decide = picks %v policy %q err %v, want picks %v policy %q", got.picks, got.policy, got.err, picks, policy)
	}
}

// TestBatcherLoneRequestRunsAtOnce: a request that arrives at an idle
// batcher reaches the engine as a batch of its own states, with no second
// request ever arriving to release it.
func TestBatcherLoneRequestRunsAtOnce(t *testing.T) {
	eng := newGatedEngine("A", 100)
	b := NewBatcher(eng, BatcherConfig{Workers: 1})
	defer b.Close()

	lone := decideAsync(context.Background(), b, 1, 2)
	if got := eng.nextCall(t); !reflect.DeepEqual(got, []float64{1, 2}) {
		t.Fatalf("engine call carried states %v, want the lone request's [1 2]", got)
	}
	eng.release <- struct{}{}
	wantAnswer(t, await(t, lone), "A", 101, 102)
	eng.noCall(t)
}

// TestBatcherCoalescesBehindBusyWorker: everything that queues while the
// only worker is inside an engine call goes out as one further call, the
// groups' states in arrival order, each group answered with its own rows.
func TestBatcherCoalescesBehindBusyWorker(t *testing.T) {
	eng := newGatedEngine("A", 100)
	m := NewMetrics()
	b := NewBatcher(eng, BatcherConfig{Workers: 1, Metrics: m})
	defer b.Close()

	first := decideAsync(context.Background(), b, 1)
	eng.nextCall(t) // the worker is now blocked inside call 1
	queued := enqueue(t, b, []float64{2}, []float64{3, 4}, []float64{5}, []float64{6, 7, 8}, []float64{9})

	eng.release <- struct{}{}
	wantAnswer(t, await(t, first), "A", 101)
	if got, want := eng.nextCall(t), []float64{2, 3, 4, 5, 6, 7, 8, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("call 2 carried states %v, want all five queued groups %v", got, want)
	}
	eng.release <- struct{}{}
	wantAnswer(t, await(t, queued[0]), "A", 102)
	wantAnswer(t, await(t, queued[1]), "A", 103, 104)
	wantAnswer(t, await(t, queued[2]), "A", 105)
	wantAnswer(t, await(t, queued[3]), "A", 106, 107, 108)
	wantAnswer(t, await(t, queued[4]), "A", 109)
	eng.noCall(t)

	if calls, groups := m.BatchSize.Count(), m.BatchQueue.Count(); calls != 2 || groups != 6 {
		t.Fatalf("metrics saw %d engine calls and %d queued groups, want 2 and 6", calls, groups)
	}
	if got := m.BatchSize.Sum(); got != 9 {
		t.Fatalf("batch sizes sum to %g states, want 9", got)
	}
}

// TestBatcherMaxBatchSplitsBacklog: a backlog over MaxBatch states is cut
// into several engine calls at group boundaries.
func TestBatcherMaxBatchSplitsBacklog(t *testing.T) {
	eng := newGatedEngine("A", 100)
	b := NewBatcher(eng, BatcherConfig{Workers: 1, MaxBatch: 4})
	defer b.Close()

	first := decideAsync(context.Background(), b, 1)
	eng.nextCall(t)
	queued := enqueue(t, b, []float64{2, 3}, []float64{4, 5}, []float64{6, 7})

	close(eng.release)
	wantAnswer(t, await(t, first), "A", 101)
	if got, want := eng.nextCall(t), []float64{2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("call 2 carried states %v, want %v (MaxBatch 4)", got, want)
	}
	if got, want := eng.nextCall(t), []float64{6, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("call 3 carried states %v, want the remainder %v", got, want)
	}
	wantAnswer(t, await(t, queued[0]), "A", 102, 103)
	wantAnswer(t, await(t, queued[1]), "A", 104, 105)
	wantAnswer(t, await(t, queued[2]), "A", 106, 107)
}

// TestBatcherSwapMidFlight: a batch in flight finishes on the engine it
// started with; work still queued at the Swap is decided — and named — by
// the new engine.
func TestBatcherSwapMidFlight(t *testing.T) {
	oldEng, newEng := newGatedEngine("old", 100), newGatedEngine("new", 200)
	b := NewBatcher(oldEng, BatcherConfig{Workers: 1})
	defer b.Close()

	inFlight := decideAsync(context.Background(), b, 1, 2)
	oldEng.nextCall(t)
	queued := enqueue(t, b, []float64{3}, []float64{4, 5})
	b.Swap(newEng)
	if b.Engine() != Engine(newEng) {
		t.Fatal("Engine() does not report the swapped-in engine")
	}

	close(newEng.release)
	close(oldEng.release)
	wantAnswer(t, await(t, inFlight), "old", 101, 102)
	wantAnswer(t, await(t, queued[0]), "new", 203)
	wantAnswer(t, await(t, queued[1]), "new", 204, 205)
	if got, want := newEng.nextCall(t), []float64{3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("new engine's call carried states %v, want %v", got, want)
	}
	oldEng.noCall(t)
}

// TestBatcherCloseAnswersQueuedWork: Close returns only after every group
// already queued has been through the engine; no caller hangs, and a
// caller that got rows got its own; later Decide calls error.
func TestBatcherCloseAnswersQueuedWork(t *testing.T) {
	eng := newGatedEngine("A", 100)
	b := NewBatcher(eng, BatcherConfig{Workers: 1})

	first := decideAsync(context.Background(), b, 1)
	eng.nextCall(t)
	queued := enqueue(t, b, []float64{2}, []float64{3, 4}, []float64{5})

	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	close(eng.release)
	select {
	case <-closed:
	case <-time.After(hang):
		t.Fatal("Close did not return")
	}

	var decided []float64
	for len(eng.entered) > 0 {
		decided = append(decided, <-eng.entered...)
	}
	if want := []float64{2, 3, 4, 5}; !reflect.DeepEqual(decided, want) {
		t.Fatalf("engine decided states %v after call 1, want every queued state %v", decided, want)
	}
	// A caller racing Close may be told the batcher shut down instead of
	// being handed its (computed) rows; it must never get another group's.
	callers := append([]<-chan answer{first}, queued...)
	for i, want := range [][]int{{101}, {102}, {103, 104}, {105}} {
		if got := await(t, callers[i]); got.err == nil {
			wantAnswer(t, got, "A", want...)
		}
	}
	if _, _, err := b.Decide(context.Background(), taggedStates(9)); err == nil {
		t.Fatal("Decide after Close should error")
	}
}

// TestBatcherCancelledContext: a caller whose context ends stops waiting —
// for its answer, or for room in a full queue — while the worker carries
// on, serves later requests and exits on Close.
func TestBatcherCancelledContext(t *testing.T) {
	eng := newGatedEngine("A", 100)
	b := NewBatcher(eng, BatcherConfig{Workers: 1, MaxBatch: 1}) // queue capacity 4

	ctx, cancel := context.WithCancel(context.Background())
	abandoned := decideAsync(ctx, b, 1)
	eng.nextCall(t) // the worker is inside the abandoned request's call
	cancel()
	if got := await(t, abandoned); !errors.Is(got.err, context.Canceled) {
		t.Fatalf("cancelled Decide returned err %v, want context.Canceled", got.err)
	}

	queued := enqueue(t, b, []float64{2}, []float64{3}, []float64{4}, []float64{5})
	if got := await(t, decideAsync(ctx, b, 6)); !errors.Is(got.err, context.Canceled) {
		t.Fatalf("Decide on a full queue with a dead context returned err %v, want context.Canceled", got.err)
	}

	close(eng.release)
	for i, ch := range queued {
		wantAnswer(t, await(t, ch), "A", 102+i)
	}
	wantAnswer(t, await(t, decideAsync(context.Background(), b, 7)), "A", 107)
	b.Close() // returns only once the worker has exited
}
