package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rlsched/internal/sched"
)

// gatedEngine is an Engine whose every DecideBatch call announces the
// states it was handed and then blocks until the test lets it go, so a
// test decides who is waiting while the slots are taken. A state is
// identified by its Now; the answer for it is Pick = base + Now.
type gatedEngine struct {
	name    string
	base    int
	entered chan []float64 // one send per call: the Now of each state, in order
	release chan struct{}  // one receive per call; close it to open the gate for good

	inFlight, peak atomic.Int32 // calls inside DecideBatch now, and the most ever
}

func newGatedEngine(name string, base int) *gatedEngine {
	// entered is buffered past any test's call count: a call never blocks
	// on announcing itself, only on the gate.
	return &gatedEngine{name: name, base: base, entered: make(chan []float64, 64), release: make(chan struct{})}
}

func (e *gatedEngine) Name() string { return e.name }
func (e *gatedEngine) MaxJobs() int { return 0 }
func (e *gatedEngine) DecideBatch(states []*QueueState, out []Decision) {
	n := e.inFlight.Add(1)
	defer e.inFlight.Add(-1)
	for p := e.peak.Load(); n > p && !e.peak.CompareAndSwap(p, n); p = e.peak.Load() {
	}
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

// taggedStates builds one request whose states carry the given tags.
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

// parkedInDecide counts the goroutines blocked in Decide's select, waiting
// for an engine slot, by reading every goroutine's stack.
func parkedInDecide() int {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	parked := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		header, _, _ := bytes.Cut(g, []byte("\n"))
		if bytes.Contains(header, []byte(" [select")) && bytes.Contains(g, []byte("serve.(*Batcher).Decide(")) {
			parked++
		}
	}
	return parked
}

// awaitDepth waits until exactly n callers are waiting for a slot.
func awaitDepth(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(hang); parkedInDecide() != n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d callers wait for a slot, never %d", parkedInDecide(), n)
		}
	}
}

func wantAnswer(t *testing.T, got answer, policy string, picks ...int) {
	t.Helper()
	if got.err != nil || got.policy != policy || !reflect.DeepEqual(got.picks, picks) {
		t.Fatalf("Decide = picks %v policy %q err %v, want picks %v policy %q", got.picks, got.policy, got.err, picks, policy)
	}
}

// TestBatcherLoneDecideRunsOnCaller: a lone Decide is one engine call of
// exactly its own states, made on the goroutine that called Decide.
func TestBatcherLoneDecideRunsOnCaller(t *testing.T) {
	eng := newGatedEngine("A", 100)
	close(eng.release)
	var stack []byte
	b := NewBatcher(hookEngine{eng, func() {
		buf := make([]byte, 16<<10)
		stack = buf[:runtime.Stack(buf, false)]
	}}, BatcherConfig{Workers: 1})
	defer b.Close()

	decs, policy, err := b.Decide(context.Background(), taggedStates(1, 2))
	if err != nil || policy != "A" || len(decs) != 2 || decs[0].Pick != 101 || decs[1].Pick != 102 {
		t.Fatalf("Decide = %v %q %v, want picks 101 102 by A", decs, policy, err)
	}
	if got := eng.nextCall(t); !reflect.DeepEqual(got, []float64{1, 2}) {
		t.Fatalf("engine call carried states %v, want the request's own [1 2]", got)
	}
	eng.noCall(t)
	if !bytes.Contains(stack, []byte("TestBatcherLoneDecideRunsOnCaller")) {
		t.Fatalf("the engine did not run on the calling goroutine; its stack:\n%s", stack)
	}
}

// hookEngine calls before at the top of every DecideBatch, on the goroutine
// that makes the call.
type hookEngine struct {
	Engine
	before func()
}

func (e hookEngine) DecideBatch(states []*QueueState, out []Decision) {
	e.before()
	e.Engine.DecideBatch(states, out)
}

// TestBatcherLimitsConcurrentCalls: with Workers k and N > k callers, k
// engine calls run, N-k callers wait (awaitDepth), and each finished call
// admits exactly one waiter — never more than k at once.
func TestBatcherLimitsConcurrentCalls(t *testing.T) {
	const k, n = 3, 8
	eng := newGatedEngine("A", 100)
	m := NewMetrics()
	b := NewBatcher(eng, BatcherConfig{Workers: k, Metrics: m})
	defer b.Close()

	callers := make([]<-chan answer, n)
	for i := range callers {
		callers[i] = decideAsync(context.Background(), b, float64(i))
	}
	for i := 0; i < k; i++ {
		eng.nextCall(t)
	}
	for waiting := n - k; waiting > 0; waiting-- {
		awaitDepth(t, waiting)
		eng.noCall(t) // all k slots are taken
		eng.release <- struct{}{}
		eng.nextCall(t) // the freed slot admits one waiter
	}
	awaitDepth(t, 0)
	close(eng.release)
	for i, ch := range callers {
		wantAnswer(t, await(t, ch), "A", 100+i)
	}
	if peak := eng.peak.Load(); peak != k {
		t.Fatalf("at most %d engine calls ran at once, want exactly Workers = %d", peak, k)
	}
	if got := m.SlotWait.count.Load(); got != n {
		t.Fatalf("SlotWait saw %d slot waits, want one per call = %d", got, n)
	}
}

// TestBatcherCancelledWaiter: a caller whose context ends while it waits
// for a slot returns without an engine call, and gives back no slot — it
// never held one — so the next caller still has to wait.
func TestBatcherCancelledWaiter(t *testing.T) {
	eng := newGatedEngine("A", 100)
	b := NewBatcher(eng, BatcherConfig{Workers: 1})
	defer b.Close()

	holder := decideAsync(context.Background(), b, 1)
	eng.nextCall(t)
	ctx, cancel := context.WithCancel(context.Background())
	waiter := decideAsync(ctx, b, 2)
	awaitDepth(t, 1)
	cancel()
	if got := await(t, waiter); !errors.Is(got.err, context.Canceled) {
		t.Fatalf("cancelled waiter returned err %v, want context.Canceled", got.err)
	}
	awaitDepth(t, 0)

	next := decideAsync(context.Background(), b, 3)
	awaitDepth(t, 1)
	eng.noCall(t) // the one slot is still the holder's
	eng.release <- struct{}{}
	wantAnswer(t, await(t, holder), "A", 101)
	if got := eng.nextCall(t); !reflect.DeepEqual(got, []float64{3}) {
		t.Fatalf("engine call carried states %v, want the next caller's [3]", got)
	}
	eng.release <- struct{}{}
	wantAnswer(t, await(t, next), "A", 103)
	eng.noCall(t) // the cancelled request never reached the engine
}

// TestBatcherSwapMidFlight: a call in flight finishes on the engine it
// loaded; a caller still waiting at the Swap is decided — and named — by
// the new engine.
func TestBatcherSwapMidFlight(t *testing.T) {
	oldEng, newEng := newGatedEngine("old", 100), newGatedEngine("new", 200)
	b := NewBatcher(oldEng, BatcherConfig{Workers: 1})
	defer b.Close()

	inFlight := decideAsync(context.Background(), b, 1, 2)
	oldEng.nextCall(t)
	waiting := decideAsync(context.Background(), b, 3)
	awaitDepth(t, 1)
	b.Swap(newEng)
	if b.Engine() != Engine(newEng) {
		t.Fatal("Engine() does not report the swapped-in engine")
	}

	close(newEng.release)
	close(oldEng.release)
	wantAnswer(t, await(t, inFlight), "old", 101, 102)
	wantAnswer(t, await(t, waiting), "new", 203)
	oldEng.noCall(t)
}

// TestBatcherClose: Close turns waiting callers away, returns only once
// the call in flight has finished (and answered), and no engine call
// starts after it.
func TestBatcherClose(t *testing.T) {
	eng := newGatedEngine("A", 100)
	b := NewBatcher(eng, BatcherConfig{Workers: 1})

	inFlight := decideAsync(context.Background(), b, 1)
	eng.nextCall(t)
	waiting := decideAsync(context.Background(), b, 2)
	awaitDepth(t, 1)

	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	if got := await(t, waiting); !errors.Is(got.err, errShutDown) {
		t.Fatalf("waiting caller got err %v at Close, want errShutDown", got.err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with an engine call still in flight")
	default:
	}
	eng.release <- struct{}{}
	wantAnswer(t, await(t, inFlight), "A", 101)
	select {
	case <-closed:
	case <-time.After(hang):
		t.Fatal("Close did not return")
	}
	if _, _, err := b.Decide(context.Background(), taggedStates(9)); !errors.Is(err, errShutDown) {
		t.Fatalf("Decide after Close returned err %v, want errShutDown", err)
	}
	b.Close() // idempotent
	eng.noCall(t)
}

// TestBatcherCloseRacesDecide (run under -race): callers racing Close get
// their own answer or the shut-down error, and once Close has returned the
// engine is never entered again.
func TestBatcherCloseRacesDecide(t *testing.T) {
	var calls atomic.Int64
	b := NewBatcher(hookEngine{NewHeuristicEngine(sched.FCFS()), func() { calls.Add(1) }}, BatcherConfig{Workers: 2})

	states := testStates(t, 1, 4) // only read, so shared
	var wg sync.WaitGroup
	started := make(chan struct{}, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				decs, policy, err := b.Decide(context.Background(), states)
				if errors.Is(err, errShutDown) {
					return
				}
				if err != nil || policy != "FCFS" || len(decs) != 1 {
					t.Errorf("Decide racing Close = %v %q %v", decs, policy, err)
					return
				}
				if i == 0 {
					started <- struct{}{}
				}
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-started
	}
	b.Close()
	atClose := calls.Load()
	wg.Wait()
	if got := calls.Load(); got != atClose {
		t.Fatalf("%d engine calls started after Close returned", got-atClose)
	}
}

// TestServerStartsNoGoroutines: engine calls run on their callers, so a
// fleet of batchers costs no goroutines to build and leaves none behind.
func TestServerStartsNoGoroutines(t *testing.T) {
	cfg := Config{}
	for i := 0; i < 8; i++ {
		cfg.Shards = append(cfg.Shards, ShardConfig{Name: fmt.Sprint("c", i), Procs: 64, PolicyName: "SJF"})
	}
	before := runtime.NumGoroutine()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	running := runtime.NumGoroutine()
	srv.Close()
	if after := runtime.NumGoroutine(); running > before || after > before {
		t.Fatalf("goroutines: %d before NewServer, %d while serving, %d after Close; want no growth", before, running, after)
	}
}
