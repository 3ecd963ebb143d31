package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// newFleetServer builds a three-shard heterogeneous fleet daemon: a big
// cluster served by a kernel model, two smaller ones by heuristics.
func newFleetServer(t *testing.T, router string) (*Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "kernel", 32)
	return newTestServer(t, Config{
		PlaceRouter: router,
		Shards: []ShardConfig{
			{Name: "large", Procs: 256, ModelPath: path},
			{Name: "mid", Procs: 128, PolicyName: "SJF"},
			{Name: "small", Procs: 64, PolicyName: "F1"},
		},
	})
}

// placeBody builds a /place request: one job and a state per cluster.
func placeBody(t *testing.T, jobRow string, clusters ...string) []byte {
	t.Helper()
	return []byte(fmt.Sprintf(`{"job":%s,"clusters":[%s]}`, jobRow, strings.Join(clusters, ",")))
}

func clusterState(name string, free, total int, jobs string) string {
	return fmt.Sprintf(`{"name":%q,"now":0,"free_procs":%d,"total_procs":%d,"jobs":[%s]}`,
		name, free, total, jobs)
}

type placeResp struct {
	Cluster string             `json:"cluster"`
	Shard   int                `json:"shard"`
	Router  string             `json:"router"`
	Scores  map[string]float64 `json:"scores"`
}

// TestPlaceEndpoint: capacity filtering, routing, determinism and the
// response shape of the placement endpoint.
func TestPlaceEndpoint(t *testing.T) {
	srv, ts := newFleetServer(t, "")

	// A 200-proc job fits only the large cluster, whatever the scores.
	body := placeBody(t, `[0,3600,200]`,
		clusterState("large", 256, 256, ""),
		clusterState("mid", 128, 128, ""),
		clusterState("small", 64, 64, ""))
	code, out := postJSON(t, ts.URL+"/place", body)
	if code != http.StatusOK {
		t.Fatalf("place: %d %s", code, out)
	}
	var resp placeResp
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatalf("%v in %s", err, out)
	}
	if resp.Cluster != "large" || resp.Shard != 0 {
		t.Fatalf("wide job placed on %q (shard %d), want large/0", resp.Cluster, resp.Shard)
	}
	if resp.Router != "engine-scored" {
		t.Fatalf("router = %q, want engine-scored", resp.Router)
	}
	if _, ok := resp.Scores["mid"]; ok {
		t.Fatal("infeasible clusters must not carry scores")
	}
	if _, ok := resp.Scores["large"]; !ok {
		t.Fatal("the feasible cluster must carry a score")
	}

	// A small job with a busy large cluster and an idle small one: every
	// cluster is feasible, all three scored, and the answer is stable.
	body = placeBody(t, `[0,60,4]`,
		clusterState("large", 0, 256, `[0,30000,128],[0,30000,128]`),
		clusterState("mid", 16, 128, `[0,7200,64]`),
		clusterState("small", 64, 64, ""))
	code, out = postJSON(t, ts.URL+"/place", body)
	if code != http.StatusOK {
		t.Fatalf("place: %d %s", code, out)
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Scores) != 3 {
		t.Fatalf("scores = %v, want all three clusters", resp.Scores)
	}
	for i := 0; i < 3; i++ {
		_, again := postJSON(t, ts.URL+"/place", body)
		if !bytes.Equal(out, again) {
			t.Fatalf("placement not deterministic:\n%s\n%s", out, again)
		}
	}

	if got := srv.Metrics().PlaceTotal.Load(); got != 5 {
		t.Fatalf("place_total = %d, want 5", got)
	}
}

// TestPlaceRouterVariants: the load-based pipelines must be selectable
// and route a small job to the idle cluster (least-loaded) vs the tight
// fit (binpack).
func TestPlaceRouterVariants(t *testing.T) {
	clusters := []string{
		clusterState("large", 200, 256, ""),
		clusterState("mid", 8, 128, ""),
		clusterState("small", 64, 64, `[0,3600,32]`),
	}
	body := placeBody(t, `[0,60,8]`, clusters...)

	_, tsSpread := newFleetServer(t, "least-loaded")
	code, out := postJSON(t, tsSpread.URL+"/place", body)
	if code != 200 {
		t.Fatalf("least-loaded: %d %s", code, out)
	}
	var resp placeResp
	json.Unmarshal(out, &resp)
	if resp.Cluster == "small" {
		t.Fatalf("least-loaded picked the queued cluster: %s", out)
	}

	_, tsPack := newFleetServer(t, "binpack")
	code, out = postJSON(t, tsPack.URL+"/place", body)
	if code != 200 {
		t.Fatalf("binpack: %d %s", code, out)
	}
	json.Unmarshal(out, &resp)
	if resp.Cluster != "mid" {
		t.Fatalf("binpack picked %q, want the tight 8-free mid fit", resp.Cluster)
	}
}

// TestPlaceValidation: every malformed placement request is rejected with
// a 4xx, and /place without fleet mode is a 404.
func TestPlaceValidation(t *testing.T) {
	_, ts := newFleetServer(t, "")
	ok := clusterState("large", 256, 256, "")
	bad := []struct {
		body []byte
		code int
	}{
		{[]byte(`not json`), 400},
		{placeBody(t, `[0,60,4]`), 400},                                             // no clusters
		{placeBody(t, `[0,0,4]`, ok), 400},                                          // zero runtime
		{placeBody(t, `[0,60,0]`, ok), 400},                                         // zero procs
		{placeBody(t, `[0,60,4]`, clusterState("nope", 1, 1, "")), 400},             // unknown cluster
		{placeBody(t, `[0,60,4]`, clusterState("large", 10, 999, "")), 400},         // procs mismatch
		{placeBody(t, `[0,60,4]`, clusterState("large", 300, 256, "")), 400},        // free > total
		{placeBody(t, `[0,60,4]`, ok, ok), 400},                                     // duplicate
		{placeBody(t, `[0,60,4]`, clusterState("large", 256, 256, `[0,0,1]`)), 400}, // bad queued job
		{placeBody(t, `[0,60,500]`, ok), 422},                                       // fits nowhere
	}
	for i, tc := range bad {
		code, out := postJSON(t, ts.URL+"/place", tc.body)
		if code != tc.code {
			t.Errorf("bad place %d: got %d (%s), want %d", i, code, out, tc.code)
		}
	}
	resp, err := http.Get(ts.URL + "/place")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /place = %d, want 405", resp.StatusCode)
	}

	_, plain := newTestServer(t, Config{PolicyName: "SJF"})
	code, _ := postJSON(t, plain.URL+"/place", placeBody(t, `[0,60,4]`, ok))
	if code != http.StatusNotFound {
		t.Errorf("/place outside fleet mode = %d, want 404", code)
	}
}

// newMigrateServer is newFleetServer with the /migrate endpoint enabled.
func newMigrateServer(t *testing.T, margin float64) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServer(t, Config{
		PlaceRouter:   "least-loaded",
		Migrate:       true,
		MigrateMargin: margin,
		Shards: []ShardConfig{
			{Name: "large", Procs: 256, PolicyName: "SJF"},
			{Name: "mid", Procs: 128, PolicyName: "SJF"},
			{Name: "small", Procs: 64, PolicyName: "F1"},
		},
	})
}

func migrateBody(t *testing.T, jobRow, from string, clusters ...string) []byte {
	t.Helper()
	return []byte(fmt.Sprintf(`{"job":%s,"from":%q,"clusters":[%s]}`,
		jobRow, from, strings.Join(clusters, ",")))
}

type migrateResp struct {
	Migrate bool               `json:"migrate"`
	Cluster string             `json:"cluster"`
	From    string             `json:"from"`
	Margin  float64            `json:"margin"`
	Router  string             `json:"router"`
	Scores  map[string]float64 `json:"scores"`
}

// TestMigrateEndpoint: a stranded job on a loaded cluster is recommended
// onto a drained one; a fresh destination that is merely "a bit lighter"
// (or not drained) is not worth the disruption; counters track both.
func TestMigrateEndpoint(t *testing.T) {
	srv, ts := newMigrateServer(t, 0.25)

	// large is buried, small is idle: clear rescue.
	rescue := migrateBody(t, `[-600,600,32]`, "large",
		clusterState("large", 0, 256, `[0,30000,128],[0,30000,128]`),
		clusterState("mid", 0, 128, `[0,30000,64]`),
		clusterState("small", 64, 64, ""))
	code, out := postJSON(t, ts.URL+"/migrate", rescue)
	if code != http.StatusOK {
		t.Fatalf("migrate: %d %s", code, out)
	}
	var resp migrateResp
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatalf("%v in %s", err, out)
	}
	if !resp.Migrate || resp.Cluster != "small" || resp.From != "large" {
		t.Fatalf("stranded job not rescued: %s", out)
	}
	if resp.Margin <= 0.25 {
		t.Fatalf("rescue margin %g must clear the hysteresis", resp.Margin)
	}
	if resp.Router != "least-loaded" {
		t.Fatalf("router = %q, want least-loaded", resp.Router)
	}

	// The best alternative is busy too (not drained): stay put even
	// though its score is higher.
	stay := migrateBody(t, `[-600,600,32]`, "large",
		clusterState("large", 0, 256, `[0,30000,128],[0,30000,128]`),
		clusterState("mid", 64, 128, `[0,30000,64]`),
		clusterState("small", 0, 64, `[0,9000,64]`))
	code, out = postJSON(t, ts.URL+"/migrate", stay)
	if code != http.StatusOK {
		t.Fatalf("migrate: %d %s", code, out)
	}
	json.Unmarshal(out, &resp)
	if resp.Migrate {
		t.Fatalf("moved onto an undrained cluster: %s", out)
	}
	if resp.Cluster != "large" {
		t.Fatalf("stay-put answer names %q, want the incumbent", resp.Cluster)
	}

	if got := srv.Metrics().MigrateChecksTotal.Load(); got != 2 {
		t.Fatalf("migrate_checks_total = %d, want 2", got)
	}
	counts := srv.Metrics().migrateCounts
	if counts[0].Load() != 0 || counts[1].Load() != 0 || counts[2].Load() != 1 {
		t.Fatalf("per-cluster migration counts = %d %d %d, want 0 0 1", counts[0].Load(), counts[1].Load(), counts[2].Load())
	}

	// Counters surface in /metrics.
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	raw, _ := io.ReadAll(r.Body)
	for _, want := range []string{
		"rlserv_migrate_checks_total 2",
		"rlserv_migrate_latency_seconds_count 2",
		"rlserv_migrate_latency_seconds_bucket",
		`rlserv_migrations_total{cluster="small"} 1`,
		`rlserv_migrations_total{cluster="large"} 0`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestMigrateValidation: malformed migrate requests 4xx; the endpoint is
// 404 without -migrate and outside fleet mode; -migrate without shards
// fails at startup.
func TestMigrateValidation(t *testing.T) {
	_, ts := newMigrateServer(t, 0)
	ok := clusterState("large", 256, 256, "")
	bad := []struct {
		body []byte
		code int
	}{
		{[]byte(`not json`), 400},
		{migrateBody(t, `[0,60,4]`, "large"), 400},                                   // no clusters
		{migrateBody(t, `[0,0,4]`, "large", ok), 400},                                // zero runtime
		{migrateBody(t, `[0,60,4]`, "nope", ok), 400},                                // unknown incumbent
		{migrateBody(t, `[0,60,4]`, "mid", ok), 400},                                 // incumbent state missing
		{migrateBody(t, `[0,60,4]`, "large", clusterState("bad", 1, 1, "")), 400},    // unknown cluster
		{migrateBody(t, `[0,60,4]`, "large", clusterState("large", 9, 99, "")), 400}, // procs mismatch
	}
	for i, tc := range bad {
		code, out := postJSON(t, ts.URL+"/migrate", tc.body)
		if code != tc.code {
			t.Errorf("bad migrate %d: got %d (%s), want %d", i, code, out, tc.code)
		}
	}
	r, err := http.Get(ts.URL + "/migrate")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /migrate = %d, want 405", r.StatusCode)
	}

	// Fleet mode without -migrate: 404.
	_, plain := newFleetServer(t, "")
	code, _ := postJSON(t, plain.URL+"/migrate", migrateBody(t, `[0,60,4]`, "large", ok))
	if code != http.StatusNotFound {
		t.Errorf("/migrate without -migrate = %d, want 404", code)
	}

	// -migrate needs shards, and the margin must be sane (a NaN margin
	// would answer migrate:false forever).
	for _, cfg := range []Config{
		{PolicyName: "SJF", Migrate: true},
		{Migrate: true, MigrateMargin: -0.5,
			Shards: []ShardConfig{{Name: "a", Procs: 8, PolicyName: "SJF"}}},
		{Migrate: true, MigrateMargin: math.NaN(),
			Shards: []ShardConfig{{Name: "a", Procs: 8, PolicyName: "SJF"}}},
	} {
		if srv, err := NewServer(cfg); err == nil {
			srv.Close()
			t.Errorf("config %+v must fail at startup", cfg)
		}
	}
}

// TestFleetConfigValidation: misconfigurations must fail at startup, not
// surface later as puzzling 404s, and must not leak running shard
// batchers.
func TestFleetConfigValidation(t *testing.T) {
	bad := []Config{
		{PolicyName: "SJF", PlaceRouter: "binpack"}, // router without shards
		{Shards: []ShardConfig{{Name: "a", Procs: 8, PolicyName: "SJF"}}, PlaceRouter: "binpakc"},
		{Shards: []ShardConfig{{Procs: 8, PolicyName: "SJF"}}},                                                        // unnamed shard
		{Shards: []ShardConfig{{Name: "a", PolicyName: "SJF"}}},                                                       // no procs
		{Shards: []ShardConfig{{Name: "a", Procs: 8, PolicyName: "SJF"}, {Name: "a", Procs: 8, PolicyName: "F1"}}},    // duplicate
		{Shards: []ShardConfig{{Name: "a", Procs: 8, PolicyName: "SJF"}, {Name: "b", Procs: 8, PolicyName: "bogus"}}}, // bad engine
		{Shards: []ShardConfig{{Name: "a", Procs: 8, PolicyName: "SJF"}}, FairWeight: 1, FairWindow: -3},              // negative window
		{Shards: []ShardConfig{{Name: "a", Procs: 8, PolicyName: "SJF"}}, FairWindow: 10},                             // window without weight
	}
	for i, cfg := range bad {
		if srv, err := NewServer(cfg); err == nil {
			srv.Close()
			t.Errorf("config %d must fail at startup", i)
		}
	}
}

// TestDecideShardRouting: /v1/decide?cluster=NAME answers with that
// shard's policy; bare /v1/decide serves the first shard in a fleet-only
// daemon.
func TestDecideShardRouting(t *testing.T) {
	_, ts := newFleetServer(t, "")
	st := testStates(t, 1, 8)[0]
	body := EncodeStates([]*QueueState{st})

	var resp struct {
		Policy string `json:"policy"`
	}
	code, out := postJSON(t, ts.URL+"/v1/decide?cluster=mid", body)
	if code != 200 {
		t.Fatalf("decide on mid: %d %s", code, out)
	}
	json.Unmarshal(out, &resp)
	if resp.Policy != "SJF" {
		t.Fatalf("mid shard answered with %q, want SJF", resp.Policy)
	}
	code, out = postJSON(t, ts.URL+"/v1/decide", body)
	if code != 200 {
		t.Fatalf("bare decide: %d %s", code, out)
	}
	json.Unmarshal(out, &resp)
	if resp.Policy != "kernel" {
		t.Fatalf("bare decide answered with %q, want the first shard's kernel", resp.Policy)
	}
	code, _ = postJSON(t, ts.URL+"/v1/decide?cluster=nope", body)
	if code != http.StatusNotFound {
		t.Fatalf("unknown cluster = %d, want 404", code)
	}
}

// TestReloadSpecs: what /reload accepts and refuses, base engine and shard
// alike — and a refused reload leaves the old engine serving.
func TestReloadSpecs(t *testing.T) {
	srv, ts := newFleetServer(t, "") // fleet-only: no -model path to re-read
	overCap := []byte(`{"cluster":"mid","policy":"F1"}` + strings.Repeat(" ", maxSpecBytes))
	for _, c := range []struct {
		name string
		body []byte
		code int
		want string
	}{
		{"over the cap, though its first MiB parses", overCap, http.StatusRequestEntityTooLarge, "body over"},
		{"not JSON", []byte(`{"policy":`), http.StatusBadRequest, "bad /reload spec"},
		{"unknown cluster", []byte(`{"cluster":"nope","policy":"F1"}`), http.StatusNotFound, "unknown cluster"},
		{"bare shard reload", []byte(`{"cluster":"mid"}`), http.StatusBadRequest, "need a model path or a heuristic name"},
		{"bare base reload without -model", nil, http.StatusBadRequest, "need a model path or a heuristic name"},
		{"unknown heuristic", []byte(`{"cluster":"mid","policy":"bogus"}`), http.StatusBadRequest, "unknown heuristic"},
		{"shard swap", []byte(`{"cluster":"mid","policy":"F1"}`), http.StatusOK, `{"cluster":"mid","policy":"F1"}`},
		{"base swap", []byte(`{"policy":"LJF"}`), http.StatusOK, `{"policy":"LJF"}`},
	} {
		code, out := postJSON(t, ts.URL+"/reload", c.body)
		if code != c.code || !strings.Contains(string(out), c.want) {
			t.Errorf("%s: got %d %s, want %d mentioning %q", c.name, code, out, c.code, c.want)
		}
	}
	// The base engine of a fleet-only daemon is its first shard's.
	var got []string
	for _, sh := range srv.shards {
		got = append(got, sh.batcher.Engine().Name())
	}
	if !reflect.DeepEqual(got, []string{"LJF", "F1", "F1"}) {
		t.Errorf("engines after the reloads: %v, want [LJF F1 F1]", got)
	}
	if got := srv.Metrics().ReloadsTotal.Load(); got != 2 {
		t.Errorf("reloads_total = %d, want the 2 accepted", got)
	}
}

// TestFleetMetricsExported: placement counters and the placement-latency
// histogram appear in /metrics in the existing Prometheus style.
func TestFleetMetricsExported(t *testing.T) {
	_, ts := newFleetServer(t, "")
	body := placeBody(t, `[0,3600,200]`,
		clusterState("large", 256, 256, ""),
		clusterState("mid", 128, 128, ""),
		clusterState("small", 64, 64, ""))
	for i := 0; i < 3; i++ {
		if code, out := postJSON(t, ts.URL+"/place", body); code != 200 {
			t.Fatalf("place: %d %s", code, out)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`rlserv_placements_total{cluster="large"} 3`,
		`rlserv_placements_total{cluster="mid"} 0`,
		"rlserv_place_latency_seconds_bucket",
		"rlserv_place_latency_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestConcurrentPlaceDecideReload hammers /place and per-shard /v1/decide
// from many goroutines while one fleet shard's engine hot-swaps mid-load.
// Under -race this is the proof the placement path, the shard batchers and
// shard reload share no unsynchronized state; zero requests may fail.
func TestConcurrentPlaceDecideReload(t *testing.T) {
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
	states := testStates(t, 8, 16)
	decideBodies := make([][]byte, len(states))
	for i := range states {
		decideBodies[i] = EncodeStates(states[i : i+1])
	}
	targets := []string{"/v1/decide", "/v1/decide?cluster=mid", "/v1/decide?cluster=small"}

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
				if i%2 == 0 {
					code, out = postJSON(t, ts.URL+"/place", placeBodies[(c+i)%len(placeBodies)])
				} else {
					code, out = postJSON(t, ts.URL+targets[(c+i)%len(targets)], decideBodies[(c+i)%len(decideBodies)])
				}
				if code != http.StatusOK {
					errs <- fmt.Sprintf("client %d req %d: status %d: %s", c, i, code, out)
					return
				}
			}
		}(c)
	}

	// Swap the mid shard between SJF and F1 while the load runs — the
	// shard keeps answering and the placement scorer keeps reading
	// whichever engine is current.
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
	if got := srv.Metrics().ReloadsTotal.Load(); got != 10 {
		t.Fatalf("reloads_total = %d, want 10", got)
	}
	if got := srv.Metrics().ErrorsTotal.Load(); got != 0 {
		t.Fatalf("errors_total = %d, want 0", got)
	}
	total := uint64(0)
	for i := range srv.Metrics().placeCounts {
		total += srv.Metrics().placeCounts[i].Load()
	}
	if total != srv.Metrics().PlaceTotal.Load() || total == 0 {
		t.Fatalf("per-cluster placements %d != total %d (or zero)",
			total, srv.Metrics().PlaceTotal.Load())
	}
	// Shard reloads must not touch the base engine or other shards.
	if code, out := postJSON(t, ts.URL+"/v1/decide", decideBodies[0]); code != 200 ||
		!bytes.Contains(out, []byte(`"policy":"kernel"`)) {
		t.Fatalf("base engine changed: %d %s", code, out)
	}
}
