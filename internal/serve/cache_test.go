package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestDecisionCacheDecide: identical /v1/decide requests hit the cache
// and answer byte-identically to the engine path; a /reload invalidates
// everything even when the swapped-in policy is the same.
func TestDecisionCacheDecide(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		PolicyName:    "SJF",
		DecisionCache: 8,
	})
	_, plain := newTestServer(t, Config{PolicyName: "SJF"})

	body := []byte(`{"now":10,"free_procs":8,"total_procs":64,` +
		`"jobs":[[0,600,4],[-30,60,2],[-60,3600,32]],"scores":true}`)
	code, first := postJSON(t, ts.URL+"/v1/decide", body)
	if code != http.StatusOK {
		t.Fatalf("decide: %d %s", code, first)
	}
	if h, m := srv.Metrics().CacheHits.Load(), srv.Metrics().CacheMisses.Load(); h != 0 || m != 1 {
		t.Fatalf("cold cache hits/misses = %d/%d, want 0/1", h, m)
	}
	code, second := postJSON(t, ts.URL+"/v1/decide", body)
	if code != http.StatusOK || !bytes.Equal(first, second) {
		t.Errorf("cached answer differs:\n%s\n%s", first, second)
	}
	if h := srv.Metrics().CacheHits.Load(); h != 1 {
		t.Errorf("hits = %d after identical re-post, want 1", h)
	}
	// Parity with the cache-disabled daemon, hit and miss alike.
	if _, uncached := postJSON(t, plain.URL+"/v1/decide", body); !bytes.Equal(first, uncached) {
		t.Errorf("cache changed the answer:\n%s\n%s", first, uncached)
	}

	// Reload (same policy, new generation): the old entries are dead.
	if code, resp := postJSON(t, ts.URL+"/reload", []byte(`{"policy":"SJF"}`)); code != http.StatusOK {
		t.Fatalf("reload: %d %s", code, resp)
	}
	misses := srv.Metrics().CacheMisses.Load()
	if code, third := postJSON(t, ts.URL+"/v1/decide", body); code != http.StatusOK || !bytes.Equal(first, third) {
		t.Errorf("post-reload answer differs: %d", code)
	}
	if m := srv.Metrics().CacheMisses.Load(); m != misses+1 {
		t.Errorf("reload did not invalidate: misses %d -> %d", misses, m)
	}

	// A different queue state is a different key.
	other := []byte(`{"now":11,"free_procs":8,"total_procs":64,` +
		`"jobs":[[0,600,4],[-30,60,2],[-60,3600,32]],"scores":true}`)
	misses = srv.Metrics().CacheMisses.Load()
	if code, _ := postJSON(t, ts.URL+"/v1/decide", other); code != http.StatusOK {
		t.Fatal("other decide failed")
	}
	if m := srv.Metrics().CacheMisses.Load(); m != misses+1 {
		t.Errorf("changed state served from cache: misses %d -> %d", misses, m)
	}

	// The cache families appear on /metrics.
	hr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	buf := make([]byte, 32*1024)
	for {
		n, err := hr.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	hr.Body.Close()
	if out := sb.String(); !strings.Contains(out, "rlserv_decision_cache_hits_total") ||
		!strings.Contains(out, "rlserv_decision_cache_misses_total") {
		t.Errorf("cache families missing from /metrics:\n%s", out)
	}
}

// TestDecisionCachePlace: the /place engine scorer shares the cache — a
// repeated placement against an unchanged fleet stops paying for engine
// scoring, and the answer never changes.
func TestDecisionCachePlace(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		DecisionCache: 64,
		Shards: []ShardConfig{
			{Name: "a", Procs: 64, PolicyName: "SJF"},
			{Name: "b", Procs: 64, PolicyName: "F1"},
		},
	})
	body := placeBody(t, `[0, 600, 4]`,
		clusterState("a", 32, 64, `[-30,60,2],[-60,3600,16]`),
		clusterState("b", 64, 64, ""))
	code, first := postJSON(t, ts.URL+"/place", body)
	if code != http.StatusOK {
		t.Fatalf("place: %d %s", code, first)
	}
	if h := srv.Metrics().CacheHits.Load(); h != 0 {
		t.Fatalf("cold place produced %d hits", h)
	}
	code, second := postJSON(t, ts.URL+"/place", body)
	if code != http.StatusOK || !bytes.Equal(first, second) {
		t.Errorf("cached placement differs:\n%s\n%s", first, second)
	}
	// Both shard scorings were answered from the cache.
	if h := srv.Metrics().CacheHits.Load(); h != 2 {
		t.Errorf("repeat place hits = %d, want 2", h)
	}
}

// TestDecisionCacheEviction: the FIFO ring retires the oldest inserted
// key once capacity is reached.
func TestDecisionCacheEviction(t *testing.T) {
	c := newDecisionCache(2, NewMetrics())
	c.put("k1", cacheEntry{policy: "a"})
	c.put("k2", cacheEntry{policy: "b"})
	c.put("k3", cacheEntry{policy: "c"}) // evicts k1
	if _, ok := c.get("k1"); ok {
		t.Error("k1 survived past capacity")
	}
	if e, ok := c.get("k2"); !ok || e.policy != "b" {
		t.Error("k2 evicted early")
	}
	if e, ok := c.get("k3"); !ok || e.policy != "c" {
		t.Error("k3 missing")
	}
	c.put("k4", cacheEntry{policy: "d"}) // evicts k2
	if _, ok := c.get("k2"); ok {
		t.Error("k2 survived past capacity")
	}
}

// reloadInsideScore is an Engine whose first MaxJobs call — which the
// /place engine scorer makes after it has loaded the shard's engine and
// before it probes the cache — runs a hook: the test's /reload of that
// very shard, landed deterministically in the middle of one scoring.
type reloadInsideScore struct {
	Engine
	once sync.Once
	hook func()
}

func (e *reloadInsideScore) MaxJobs() int {
	e.once.Do(e.hook)
	return e.Engine.MaxJobs()
}

// TestPlaceReloadCacheRace: a shard /reload that lands while /place is
// scoring that shard must not leave the old engine's decision cached as the
// new engine's. The scoring in flight may still answer with the old engine;
// the next identical /place must be scored by the new one.
func TestPlaceReloadCacheRace(t *testing.T) {
	sjf, err := LoadEngine("", "SJF")
	if err != nil {
		t.Fatal(err)
	}
	var ts *httptest.Server
	racing := &reloadInsideScore{Engine: sjf, hook: func() {
		if code, out := postJSON(t, ts.URL+"/reload", []byte(`{"cluster":"a","policy":"LJF"}`)); code != http.StatusOK {
			t.Errorf("reload inside Score: %d %s", code, out)
		}
	}}
	var srv *Server
	srv, ts = newTestServer(t, Config{
		DecisionCache: 64,
		Shards: []ShardConfig{
			{Name: "a", Procs: 64, Engine: racing},
			{Name: "b", Procs: 64, PolicyName: "FCFS"},
		},
	})
	// What a daemon that served LJF on shard a all along answers.
	_, ljf := newTestServer(t, Config{
		Shards: []ShardConfig{
			{Name: "a", Procs: 64, PolicyName: "LJF"},
			{Name: "b", Procs: 64, PolicyName: "FCFS"},
		},
	})

	// SJF and LJF give the arriving 600 s job different odds of running next
	// in shard a's queue; b, serving FCFS throughout, is the yardstick.
	body := placeBody(t, `[0,600,4]`,
		clusterState("a", 32, 64, `[-30,60,2],[-60,36000,16]`),
		clusterState("b", 32, 64, `[-30,60,2],[-60,36000,16]`))
	code, during := postJSON(t, ts.URL+"/place", body)
	if code != http.StatusOK {
		t.Fatalf("place: %d %s", code, during)
	}
	if got := srv.shards[0].batcher.Engine().Name(); got != "LJF" {
		t.Fatalf("shard a serves %q after the first /place, want the reloaded LJF", got)
	}
	_, want := postJSON(t, ljf.URL+"/place", body)
	if bytes.Equal(during, want) {
		t.Fatal("SJF and LJF place this request identically: the test cannot tell the engines apart")
	}
	hits := srv.Metrics().CacheHits.Load()
	code, after := postJSON(t, ts.URL+"/place", body)
	if code != http.StatusOK || !bytes.Equal(after, want) {
		t.Errorf("the /place after the reload was not scored by the new engine:\n got  %s\n want %s", after, want)
	}
	// Shard b was scored after the reload, so its entry is live; shard a's
	// was computed by the engine the reload replaced and must miss.
	if h := srv.Metrics().CacheHits.Load() - hits; h != 1 {
		t.Errorf("second /place took %d cache hits, want 1 (shard b only)", h)
	}
}
