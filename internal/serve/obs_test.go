package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"rlsched/internal/obs"
)

// getJSON GETs a URL and returns the status code and body.
func getJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// explainResp is placeResp plus the ?explain=1 trace.
type explainResp struct {
	placeResp
	Explain *obs.Explain `json:"explain"`
}

// TestPlaceExplain: ?explain=1 appends the full per-plugin score table
// without changing the decision, and the plain response carries no trace.
func TestPlaceExplain(t *testing.T) {
	_, ts := newFleetServer(t, "")
	body := placeBody(t, `[0,60,96]`,
		clusterState("large", 100, 256, `[0,3600,32]`),
		clusterState("mid", 128, 128, ""),
		clusterState("small", 64, 64, ""))

	code, plain := postJSON(t, ts.URL+"/place", body)
	if code != http.StatusOK {
		t.Fatalf("place: %d %s", code, plain)
	}
	code, explained := postJSON(t, ts.URL+"/place?explain=1", body)
	if code != http.StatusOK {
		t.Fatalf("place?explain=1: %d %s", code, explained)
	}

	var base placeResp
	if err := json.Unmarshal(plain, &base); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), `"explain"`) {
		t.Fatal("plain response must not carry an explain trace")
	}
	var ex explainResp
	if err := json.Unmarshal(explained, &ex); err != nil {
		t.Fatalf("%v in %s", err, explained)
	}
	// Same decision, same scores — the trace is passive.
	if ex.Cluster != base.Cluster || ex.Shard != base.Shard {
		t.Fatalf("explain changed the decision: %q/%d vs %q/%d",
			ex.Cluster, ex.Shard, base.Cluster, base.Shard)
	}
	if len(ex.Scores) != len(base.Scores) {
		t.Fatalf("explain changed the scores: %v vs %v", ex.Scores, base.Scores)
	}
	if ex.Explain == nil || len(ex.Explain.Candidates) != 3 {
		t.Fatalf("explain trace missing or wrong size: %s", explained)
	}
	// The 96-proc job fits large and mid but not small-64: the trace must
	// say which filter rejected it and score the feasible pair per plugin.
	for _, c := range ex.Explain.Candidates {
		switch c.Name {
		case "small":
			if c.Feasible || c.FilteredBy == "" {
				t.Fatalf("small-64 must be filtered with a named filter: %+v", c)
			}
		default:
			if !c.Feasible || len(c.Plugins) == 0 {
				t.Fatalf("feasible cluster %q must carry plugin scores: %+v", c.Name, c)
			}
			for _, p := range c.Plugins {
				if p.Norm < 0 || p.Norm > 1 {
					t.Fatalf("plugin %q norm %g out of [0,1]", p.Plugin, p.Norm)
				}
			}
		}
	}
}

// TestDebugDecisions: every /place decision lands in the ring, newest
// first with monotonic sequence numbers; n clamps; the endpoint 404s
// when the ring is disabled or outside fleet mode.
func TestDebugDecisions(t *testing.T) {
	_, ts := newFleetServer(t, "")
	bodies := [][]byte{
		placeBody(t, `[0,3600,200]`,
			clusterState("large", 256, 256, ""),
			clusterState("mid", 128, 128, "")),
		placeBody(t, `[0,60,4]`,
			clusterState("large", 0, 256, `[0,30000,128]`),
			clusterState("small", 64, 64, "")),
		placeBody(t, `[0,600,32]`,
			clusterState("mid", 128, 128, ""),
			clusterState("small", 64, 64, "")),
	}
	for i, b := range bodies {
		if code, out := postJSON(t, ts.URL+"/place", b); code != http.StatusOK {
			t.Fatalf("place %d: %d %s", i, code, out)
		}
	}

	var log struct {
		Total     uint64                  `json:"total"`
		Decisions []obs.PlacementDecision `json:"decisions"`
	}
	code, out := getJSON(t, ts.URL+"/debug/decisions?n=2")
	if code != http.StatusOK {
		t.Fatalf("debug/decisions: %d %s", code, out)
	}
	if err := json.Unmarshal(out, &log); err != nil {
		t.Fatalf("%v in %s", err, out)
	}
	if log.Total != 3 || len(log.Decisions) != 2 {
		t.Fatalf("total=%d len=%d, want 3/2", log.Total, len(log.Decisions))
	}
	if log.Decisions[0].Seq != 3 || log.Decisions[1].Seq != 2 {
		t.Fatalf("seqs %d,%d, want newest-first 3,2", log.Decisions[0].Seq, log.Decisions[1].Seq)
	}
	for _, d := range log.Decisions {
		if d.Router == "" || d.Cluster == "" || len(d.Candidates) == 0 {
			t.Fatalf("decision missing trace fields: %+v", d)
		}
	}
	// Default n and n=0 both return what's retained here.
	for _, q := range []string{"", "?n=0", "?n=99"} {
		code, out = getJSON(t, ts.URL+"/debug/decisions"+q)
		if code != http.StatusOK {
			t.Fatalf("debug/decisions%s: %d %s", q, code, out)
		}
		if err := json.Unmarshal(out, &log); err != nil {
			t.Fatal(err)
		}
		if len(log.Decisions) != 3 {
			t.Fatalf("debug/decisions%s returned %d decisions, want 3", q, len(log.Decisions))
		}
	}
	if code, _ = getJSON(t, ts.URL+"/debug/decisions?n=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad n = %d, want 400", code)
	}

	// Outside fleet mode there is no ring; a negative DecisionLog disables
	// it explicitly.
	_, plain := newTestServer(t, Config{PolicyName: "SJF"})
	if code, _ = getJSON(t, plain.URL+"/debug/decisions"); code != http.StatusNotFound {
		t.Fatalf("/debug/decisions outside fleet mode = %d, want 404", code)
	}
	_, off := newTestServer(t, Config{
		DecisionLog: -1,
		Shards:      []ShardConfig{{Name: "a", Procs: 8, PolicyName: "SJF"}},
	})
	if code, _ = getJSON(t, off.URL+"/debug/decisions"); code != http.StatusNotFound {
		t.Fatalf("/debug/decisions with DecisionLog=-1 = %d, want 404", code)
	}
}

// TestPprofOptIn: the profiling surface exists only when asked for.
func TestPprofOptIn(t *testing.T) {
	_, off := newTestServer(t, Config{PolicyName: "SJF"})
	if code, _ := getJSON(t, off.URL+"/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("pprof without -pprof = %d, want 404", code)
	}
	_, on := newTestServer(t, Config{PolicyName: "SJF", Pprof: true})
	code, out := getJSON(t, on.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(string(out), "goroutine") {
		t.Fatalf("pprof index: %d %.80s", code, out)
	}
	if code, _ := getJSON(t, on.URL+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("pprof cmdline = %d, want 200", code)
	}
}

// TestMetricsHelpAndType: every exported family carries both a # HELP and
// a # TYPE header, every sample belongs to a declared family, and the
// build-info/uptime gauges are present. Exercised on the fullest surface:
// fleet mode with migration and fairness enabled, after traffic on every
// endpoint.
func TestMetricsHelpAndType(t *testing.T) {
	_, ts := newTestServer(t, Config{
		PlaceRouter:   "least-loaded",
		Migrate:       true,
		MigrateMargin: 0.25,
		FairWeight:    1,
		CheckpointDir: t.TempDir(),
		DecisionCache: 32,
		// A generous budget keeps the ladder at level 0; enabling the
		// monitor puts the SLO families on the surface under test.
		SLO: SLOConfig{P99Budget: time.Second},
		Shards: []ShardConfig{
			{Name: "large", Procs: 256, PolicyName: "SJF"},
			{Name: "small", Procs: 64, PolicyName: "F1"},
		},
	})
	place := placeBody(t, `[0,60,4]`,
		clusterState("large", 256, 256, ""),
		clusterState("small", 64, 64, ""))
	if code, out := postJSON(t, ts.URL+"/place", place); code != http.StatusOK {
		t.Fatalf("place: %d %s", code, out)
	}
	mig := migrateBody(t, `[-600,600,32]`, "large",
		clusterState("large", 0, 256, `[0,30000,128]`),
		clusterState("small", 64, 64, ""))
	if code, out := postJSON(t, ts.URL+"/migrate", mig); code != http.StatusOK {
		t.Fatalf("migrate: %d %s", code, out)
	}

	code, raw := getJSON(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	help := map[string]bool{}
	typed := map[string]bool{}
	var samples []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" {
			continue
		}
		if f := strings.Fields(line); strings.HasPrefix(line, "# HELP ") {
			help[f[2]] = true
		} else if strings.HasPrefix(line, "# TYPE ") {
			typed[f[2]] = true
		} else if strings.HasPrefix(line, "#") {
			t.Errorf("unknown comment line %q", line)
		} else {
			samples = append(samples, f[0])
		}
	}
	for name := range typed {
		if !help[name] {
			t.Errorf("family %s has # TYPE but no # HELP", name)
		}
	}
	for name := range help {
		if !typed[name] {
			t.Errorf("family %s has # HELP but no # TYPE", name)
		}
	}
	for _, s := range samples {
		base := s
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if t := strings.TrimSuffix(base, suf); t != base && typed[t] {
				base = t
				break
			}
		}
		if !typed[base] {
			t.Errorf("sample %q belongs to no declared family", s)
		}
	}
	for _, want := range []string{
		"rlserv_build_info{go_version=",
		"rlserv_uptime_seconds ",
		"rlserv_migrate_latency_seconds_count 1",
		`rlserv_fairness_score{stat="jain"}`,
		"rlserv_wal_healthy 1",
		`rlserv_engine_slot_wait_seconds_bucket{le="1e-06"}`, // the µs floor
		"rlserv_degradation_level 0",
		"rlserv_slo_breaches_total ",
		`rlserv_request_latency_seconds{path="/place",quantile="0.99"}`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	for _, gone := range []string{"rlserv_parse_fallback_total", "rlserv_batch_queue_seconds"} {
		if strings.Contains(string(raw), gone) {
			t.Errorf("metrics output still has %q", gone)
		}
	}
}

// TestConcurrentExplainDecisionsReload hammers /place?explain=1 and
// /debug/decisions from many goroutines while a shard's engine hot-swaps
// mid-load. Under -race this is the proof the explain path, the decision
// ring and shard reload share no unsynchronized state.
func TestConcurrentExplainDecisionsReload(t *testing.T) {
	srv, ts := newFleetServer(t, "")
	placeBodies := [][]byte{
		placeBody(t, `[0,60,4]`,
			clusterState("large", 100, 256, `[0,3600,32],[-60,600,8]`),
			clusterState("mid", 64, 128, `[0,900,16]`),
			clusterState("small", 0, 64, "")),
		placeBody(t, `[0,7200,160]`,
			clusterState("large", 256, 256, ""),
			clusterState("mid", 128, 128, "")),
	}

	const clients = 6
	const perClient = 50
	var wg sync.WaitGroup
	errs := make(chan string, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				var code int
				var out []byte
				if i%3 == 2 {
					code, out = getJSON(t, ts.URL+"/debug/decisions?n=8")
				} else {
					code, out = postJSON(t, ts.URL+"/place?explain=1", placeBodies[(c+i)%len(placeBodies)])
				}
				if code != http.StatusOK {
					errs <- fmt.Sprintf("client %d req %d: status %d: %s", c, i, code, out)
					return
				}
			}
		}(c)
	}

	reloads := [][]byte{
		[]byte(`{"cluster":"mid","policy":"F1"}`),
		[]byte(`{"cluster":"mid","policy":"SJF"}`),
	}
	for i := 0; i < 10; i++ {
		code, out := postJSON(t, ts.URL+"/reload", reloads[i%len(reloads)])
		if code != http.StatusOK {
			t.Fatalf("shard reload %d failed: %d %s", i, code, out)
		}
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := srv.Metrics().ErrorsTotal.Load(); got != 0 {
		t.Fatalf("errors_total = %d, want 0", got)
	}
	// Every successful placement must have been logged.
	code, out := getJSON(t, ts.URL+"/debug/decisions?n=1")
	if code != http.StatusOK {
		t.Fatalf("debug/decisions after load: %d %s", code, out)
	}
	var log struct {
		Total uint64 `json:"total"`
	}
	if err := json.Unmarshal(out, &log); err != nil {
		t.Fatal(err)
	}
	if log.Total != srv.Metrics().PlaceTotal.Load() || log.Total == 0 {
		t.Fatalf("ring total %d != placements %d (or zero)", log.Total, srv.Metrics().PlaceTotal.Load())
	}
}
