package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rlsched/internal/obs"
)

// TestMigrateReason: /migrate shows the shared verdict — every response
// names the obs.Reason* fleet.MoveVerdict returned.
func TestMigrateReason(t *testing.T) {
	_, ts := newMigrateServer(t, 0.25)
	buried := clusterState("large", 0, 256, `[0,30000,128],[0,30000,128]`)
	cases := []struct {
		name   string
		body   []byte
		reason string
	}{
		{"rescue onto an idle cluster", migrateBody(t, `[-600,600,32]`, "large",
			buried, clusterState("small", 64, 64, "")), obs.ReasonMoved},
		{"best alternative is busy", migrateBody(t, `[-600,600,32]`, "large",
			buried, clusterState("mid", 64, 128, `[0,30000,64]`)), obs.ReasonNotDrained},
		{"incumbent is the best pick", migrateBody(t, `[-600,600,32]`, "small",
			buried, clusterState("small", 64, 64, "")), obs.ReasonIncumbent},
		{"lead below the margin", migrateBody(t, `[-600,600,32]`, "mid",
			clusterState("mid", 0, 128, `[0,1000,64]`),
			clusterState("small", 64, 64, `[0,900,32]`),
			buried), obs.ReasonHysteresis},
		{"fits nowhere", migrateBody(t, `[-600,600,512]`, "large",
			buried, clusterState("small", 64, 64, "")), obs.ReasonInfeasible},
	}
	for _, tc := range cases {
		code, out := postJSON(t, ts.URL+"/migrate", tc.body)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.name, code, out)
		}
		var resp struct {
			migrateResp
			Reason string `json:"reason"`
		}
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatalf("%s: %v in %s", tc.name, err, out)
		}
		if resp.Reason != tc.reason || resp.Migrate != (tc.reason == obs.ReasonMoved) {
			t.Errorf("%s: want reason %q, got %s", tc.name, tc.reason, out)
		}
	}
}

// TestCordonIsAFilterVerdict: a cordoned shard is still a candidate, and
// the taint filter's rejection is visible in ?explain=1 and
// /debug/decisions instead of the cluster silently disappearing.
func TestCordonIsAFilterVerdict(t *testing.T) {
	_, ts := newFleetServer(t, "binpack")
	if code, out := postJSON(t, ts.URL+"/drain", []byte(`{"cluster":"mid"}`)); code != http.StatusOK {
		t.Fatalf("drain: %d %s", code, out)
	}
	// "from" is /migrate's field: on /place it must not lift the cordon the
	// way it does for a /migrate request's own cluster.
	mid := clusterState("mid", 8, 128, "") // the tightest fit, were it open
	if code, out := postJSON(t, ts.URL+"/place", migrateBody(t, `[0,60,8]`, "mid", mid)); code != http.StatusUnprocessableEntity {
		t.Fatalf("place with only the cordoned shard posted and from naming it: %d %s, want 422", code, out)
	}
	body := migrateBody(t, `[0,60,8]`, "mid",
		clusterState("large", 256, 256, ""), mid, clusterState("small", 64, 64, ""))
	code, out := postJSON(t, ts.URL+"/place?explain=1", body)
	if code != http.StatusOK {
		t.Fatalf("place: %d %s", code, out)
	}
	var resp explainResp
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatalf("%v in %s", err, out)
	}
	if resp.Cluster == "mid" {
		t.Fatalf("placed on the cordoned shard: %s", out)
	}
	if _, scored := resp.Scores["mid"]; scored {
		t.Errorf("cordoned shard carries a score: %s", out)
	}
	var log struct {
		Decisions []obs.PlacementDecision `json:"decisions"`
	}
	code, ring := getJSON(t, ts.URL+"/debug/decisions?n=1")
	if code != http.StatusOK {
		t.Fatalf("debug/decisions: %d %s", code, ring)
	}
	if err := json.Unmarshal(ring, &log); err != nil || len(log.Decisions) != 1 {
		t.Fatalf("debug/decisions: %v in %s", err, ring)
	}
	for name, cands := range map[string][]obs.CandidateTrace{
		"explain": resp.Explain.Candidates, "debug/decisions": log.Decisions[0].Candidates,
	} {
		if len(cands) != 3 {
			t.Fatalf("%s lists %d candidates, want all 3 posted: %+v", name, len(cands), cands)
		}
		for _, c := range cands {
			if c.Name == "mid" && (c.Feasible || c.FilteredBy != "taint") {
				t.Errorf("%s: cordoned shard not marked filtered by the taint plugin: %+v", name, c)
			}
			if c.Name != "mid" && !c.Feasible {
				t.Errorf("%s: open shard %q filtered: %+v", name, c.Name, c)
			}
		}
	}
}

// TestRunningWork: the optional running_work moves the load-based scorers
// exactly like a busy simulated cluster does, defaults to 0 (the answer a
// caller that does not track it always got), and is validated.
func TestRunningWork(t *testing.T) {
	_, ts := newFleetServer(t, "least-loaded")
	state := func(name string, total int, running string) string {
		return fmt.Sprintf(`{"name":%q,"free_procs":0,"total_procs":%d,"jobs":[]%s}`, name, total, running)
	}
	for _, tc := range []struct {
		large, mid string
		code       int
		want       string
	}{
		{``, ``, 200, "large"}, // both look idle: the lowest index wins the tie
		{`,"running_work":512`, `,"running_work":0`, 200, "mid"},      // 2 s/proc vs 0
		{`,"running_work":512`, `,"running_work":1000`, 200, "large"}, // 2 s/proc vs 7.8
		{``, `,"running_work":-1`, 400, ""},
		{``, `,"running_work":1e999`, 400, ""},
		{``, `,"running_work":"lots"`, 400, ""},
	} {
		code, out := postJSON(t, ts.URL+"/place", placeBody(t, `[0,60,8]`,
			state("large", 256, tc.large), state("mid", 128, tc.mid)))
		if code != tc.code {
			t.Fatalf("large%s mid%s: %d %s, want %d", tc.large, tc.mid, code, out, tc.code)
		}
		if code == http.StatusOK && !strings.Contains(string(out), `"cluster":"`+tc.want+`"`) {
			t.Errorf("large%s mid%s: want %s, got %s", tc.large, tc.mid, tc.want, out)
		}
	}
}

// newBenchShapedServer serves the fleet benchShapedPlaceBody posts to:
// shards s0..s{n-1} of 64 processors each serving a kernel network (so every
// posted field reaches a score), engine router, fairness tracking, /migrate
// and the decision cache on.
func newBenchShapedServer(t *testing.T, n int) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Migrate: true, FairWeight: 1, DecisionCache: 64}
	model := writeSnapshot(t, t.TempDir(), "kernel", 32)
	for c := 0; c < n; c++ {
		cfg.Shards = append(cfg.Shards, ShardConfig{Name: fmt.Sprintf("s%d", c), Procs: 64, ModelPath: model})
	}
	return newTestServer(t, cfg)
}

// TestPlaceSpellingsAgree: the wire format is a grammar, not a byte
// layout. The bench-shaped canonical body and its respellings — JSON
// whitespace, keys in another order, the same numbers written another
// way — are answered byte for byte the same, ?explain=1 and /migrate
// included.
func TestPlaceSpellingsAgree(t *testing.T) {
	canonical := benchShapedPlaceBody(t, 3, 16, 17)
	paths := []string{"/place", "/place?explain=1", "/migrate"}
	ask := func(body []byte) (answers [][]byte) {
		_, ts := newBenchShapedServer(t, 3)
		for _, path := range paths {
			code, out := postJSON(t, ts.URL+path, append([]byte(`{"from":"s1",`), body[1:]...))
			if code != http.StatusOK {
				t.Fatalf("%s: %d %s", path, code, out)
			}
			answers = append(answers, out)
		}
		return answers
	}
	want := ask(canonical)
	identity := []byte(`"client":"c0","batch_seq":17,`)
	for name, body := range map[string][]byte{
		"whitespace": bytes.ReplaceAll(bytes.ReplaceAll(canonical, []byte(","), []byte(",\n  ")), []byte(":"), []byte(" : ")),
		"key order": append(append(bytes.Replace(canonical[:len(canonical)-1], identity, nil, 1), ',', '\n'),
			append(identity[:len(identity)-1:len(identity)-1], '}')...),
		"number spelling": bytes.Replace(canonical, []byte(`"job":[0,600,4,17]`), []byte(`"job":[0.0,6.0e2,4.0,1.7E+1]`), 1),
	} {
		if bytes.Equal(body, canonical) {
			t.Fatalf("%s: variant equals the canonical body", name)
		}
		got := ask(body)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s, %s: answers differ\ncanonical %s\nrespelled %s", name, paths[i], want[i], got[i])
			}
		}
	}
}

// TestPlaceBufferAliasing: the parsed request lives in a pooled buffer the
// next request overwrites, so nothing that outlives a handler may point
// into it. Two different bodies back to back: the first one's
// /debug/decisions entry and decision-cache entries must be unchanged by
// the second.
func TestPlaceBufferAliasing(t *testing.T) {
	srv, ts := newBenchShapedServer(t, 3)
	ringEntry := func() string { // the oldest retained decision: Seq 1
		t.Helper()
		var log struct {
			Decisions []json.RawMessage `json:"decisions"`
		}
		code, out := getJSON(t, ts.URL+"/debug/decisions?n=0")
		if code != http.StatusOK {
			t.Fatalf("debug/decisions: %d %s", code, out)
		}
		if err := json.Unmarshal(out, &log); err != nil || len(log.Decisions) == 0 {
			t.Fatalf("debug/decisions: %v in %s", err, out)
		}
		return string(log.Decisions[len(log.Decisions)-1])
	}
	cacheEntries := func() map[string]cacheEntry {
		srv.cache.mu.Lock()
		defer srv.cache.mu.Unlock()
		out := map[string]cacheEntry{}
		for k, e := range srv.cache.entries {
			e.dec.Scores = append([]float64(nil), e.dec.Scores...)
			out[strings.Clone(k)] = e
		}
		return out
	}

	code, answer := postJSON(t, ts.URL+"/place", benchShapedPlaceBody(t, 3, 16, 17))
	if code != http.StatusOK {
		t.Fatalf("first place: %d %s", code, answer)
	}
	decision, entries := ringEntry(), cacheEntries()
	if len(entries) != 3 {
		t.Fatalf("first place cached %d engine decisions, want one per shard", len(entries))
	}
	if code, out := postJSON(t, ts.URL+"/place", benchShapedPlaceBody(t, 3, 16, 18)); code != http.StatusOK {
		t.Fatalf("second place: %d %s", code, out)
	} else if bytes.Equal(out, answer) {
		t.Fatalf("the second body must be a different question, got the same answer %s", out)
	}
	if got := ringEntry(); got != decision {
		t.Errorf("decision ring entry changed under the next request:\nbefore %s\nafter  %s", decision, got)
	}
	now := cacheEntries()
	for k, e := range entries {
		if got, ok := now[k]; !ok || !reflect.DeepEqual(got, e) {
			t.Errorf("decision cache entry changed under the next request: %+v, was %+v", got, e)
		}
	}
}

// placementFuzzSeeds is the shared seed corpus of FuzzPlaceRequest and
// FuzzMigrateRequest (checked in under testdata/fuzz by
// TestWriteFuzzCorpus): the hostile shapes a /place or /migrate body takes.
// valid-array-job and valid-object-job are well-formed placements whose
// object-form rows the scanner refuses; their -compact twins reach a 200.
func placementFuzzSeeds() map[string][]byte {
	a := func(extra string) string {
		return `{"name":"a","free_procs":8,"total_procs":64,"jobs":[[0,600,4,3,11]]` + extra + `}`
	}
	b := `{"name":"b","now":5,"free_procs":64,"total_procs":64,"queue_len":3,"jobs":[[-30,3600,4,2,7]]}`
	bObject := `{"name":"b","now":5,"free_procs":64,"total_procs":64,"queue_len":3,"jobs":[{"id":7,"submit_time":-30,"requested_time":3600,"requested_procs":4,"user_id":2}]}`
	rows := strings.TrimSuffix(strings.Repeat(`[3,10,600],`, 2000), ",")
	return map[string][]byte{
		"valid-array-job":          []byte(`{"job":[0,60,4,3],"from":"a","clusters":[` + a(`,"completed":[[7,9000,60],{"user_id":3,"wait":10,"run_time":600}]`) + `,` + bObject + `]}`),
		"valid-array-job-compact":  []byte(`{"job":[0,60,4,3],"from":"a","clusters":[` + a(`,"completed":[[7,9000,60],[3,10,600]]`) + `,` + b + `]}`),
		"valid-object-job":         []byte(`{"job":{"id":9,"submit_time":1,"requested_time":60,"requested_procs":4,"user_id":5},"from":"b","client":"c0","batch_seq":1,"clusters":[` + a(`,"running_work":1200.5`) + `,` + bObject + `]}`),
		"valid-object-job-compact": []byte(`{"job":[1,60,4,5,9],"from":"b","client":"c0","batch_seq":1,"clusters":[` + a(`,"running_work":1200.5`) + `,` + b + `]}`),
		"duplicate-cluster":        []byte(`{"job":[0,60,4],"from":"a","clusters":[` + a("") + `,` + a("") + `]}`),
		"unknown-cluster":          []byte(`{"job":[0,60,4],"from":"a","clusters":[` + a("") + `,{"name":"zz","free_procs":1,"total_procs":1,"jobs":[]}]}`),
		"from-missing":             []byte(`{"job":[0,60,4],"from":"b","clusters":[` + a("") + `]}`),
		"negative-wait":            []byte(`{"job":[0,60,4],"from":"a","clusters":[` + a(`,"completed":[[7,-1,60]]`) + `]}`),
		"seq-without-client":       []byte(`{"job":[0,60,4],"from":"a","batch_seq":4,"clusters":[` + a(`,"completed":[[7,5,60]]`) + `]}`),
		"thousands-completed":      []byte(`{"job":[0,60,4],"from":"a","client":"c1","batch_seq":2,"clusters":[` + a(`,"completed":[`+rows+`]`) + `]}`),
		"running-work-range":       []byte(`{"job":[0,60,4],"from":"a","clusters":[` + a(`,"running_work":-3`) + `,` + b + `]}`),
		"running-work-huge":        []byte(`{"job":[0,60,4],"from":"a","clusters":[` + a(`,"running_work":1e999`) + `]}`),
		"fits-nowhere":             []byte(`{"job":[0,60,4096],"from":"a","clusters":[` + a(`,"completed":[[7,5,60]]`) + `]}`),
		"not-json":                 []byte(`{"job":[0,60,4],"clusters":[`),
		"empty":                    {},
	}
}

// fuzzPlacement drives arbitrary bodies through the real handler of a
// fairness-tracking fleet daemon (engine router, /migrate on, one shard
// cordoned): no panic, no 5xx, and any non-200 leaves the fairness tracker
// exactly as it was — a rejected request must never half-fold its batch.
func fuzzPlacement(f *testing.F, path string) {
	for _, seed := range placementFuzzSeeds() {
		f.Add(seed)
	}
	srv := newPlacementFuzzServer(f)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		before := fmt.Sprintf("%+v", srv.fairness.ExportState())
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(body))))
		if w.Code >= 500 {
			t.Fatalf("%s answered %d: %s", path, w.Code, w.Body)
		}
		if after := fmt.Sprintf("%+v", srv.fairness.ExportState()); w.Code != http.StatusOK && after != before {
			t.Fatalf("%s answered %d but the fairness tracker changed:\n%s\n%s", path, w.Code, before, after)
		}
	})
}

// newPlacementFuzzServer is the daemon fuzzPlacement drives.
func newPlacementFuzzServer(t testing.TB) *Server {
	srv, err := NewServer(Config{
		Migrate:    true,
		FairWeight: 1,
		Shards: []ShardConfig{
			{Name: "a", Procs: 64, PolicyName: "SJF"},
			{Name: "b", Procs: 64, PolicyName: "F1"},
			{Name: "c", Procs: 64, PolicyName: "FCFS"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	drain := httptest.NewRecorder()
	srv.Handler().ServeHTTP(drain, httptest.NewRequest(http.MethodPost, "/drain", strings.NewReader(`{"cluster":"c"}`)))
	if drain.Code != http.StatusOK {
		t.Fatalf("drain: %d %s", drain.Code, drain.Body)
	}
	return srv
}

// TestPlacementSeedsReachTheCore: the compact twins of the object-form
// valid-* seeds get past the scanner to a 200 on both endpoints, so the
// fuzz targets start from bodies that reach the placement core; the
// object-form originals get a 400.
func TestPlacementSeedsReachTheCore(t *testing.T) {
	h := newPlacementFuzzServer(t).Handler()
	seeds := placementFuzzSeeds()
	for _, name := range []string{"valid-array-job", "valid-object-job"} {
		for _, path := range []string{"/place", "/migrate"} {
			for suffix, want := range map[string]int{"": http.StatusBadRequest, "-compact": http.StatusOK} {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(seeds[name+suffix])))
				if w.Code != want {
					t.Errorf("%s %s: %d %s, want %d", path, name+suffix, w.Code, w.Body, want)
				}
			}
		}
	}
}

func FuzzPlaceRequest(f *testing.F)   { fuzzPlacement(f, "/place") }
func FuzzMigrateRequest(f *testing.F) { fuzzPlacement(f, "/migrate") }

// writePlacementFuzzCorpus is TestWriteFuzzCorpus's share for the two
// placement fuzz targets.
func writePlacementFuzzCorpus(t *testing.T) {
	t.Helper()
	for _, target := range []string{"FuzzPlaceRequest", "FuzzMigrateRequest"} {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range placementFuzzSeeds() {
			content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
