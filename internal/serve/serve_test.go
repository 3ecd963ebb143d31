package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rlsched/internal/nn"
	"rlsched/internal/policy"
	"rlsched/internal/sched"
	"rlsched/internal/sim"
)

// writeSnapshot trains nothing: a randomly initialized policy/value pair is
// a perfectly good serving model for round-trip tests.
func writeSnapshot(t *testing.T, dir, kind string, maxObs int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	pol, err := nn.NewPolicy(rng, kind, maxObs, sim.JobFeatures)
	if err != nil {
		t.Fatal(err)
	}
	val := nn.NewValueNet(rng, maxObs, sim.JobFeatures, nil)
	path := filepath.Join(dir, kind+".json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := nn.Snap(pol, val, nil).Write(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func testStates(t *testing.T, n, queueJobs int) []*QueueState {
	t.Helper()
	states, err := SyntheticStates("Lublin-1", n, queueJobs, 42)
	if err != nil {
		t.Fatal(err)
	}
	return states
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
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

// TestSnapshotRoundTripThroughLoader proves a snapshot written by the
// training path and loaded by the serve loader picks exactly the jobs the
// offline NetScheduler picks.
func TestSnapshotRoundTripThroughLoader(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range []string{"kernel", "mlp-v2"} {
		path := writeSnapshot(t, dir, kind, 32)
		eng, err := LoadEngine(path, "")
		if err != nil {
			t.Fatal(err)
		}
		if eng.Name() != kind {
			t.Fatalf("loaded engine is %q, want %q", eng.Name(), kind)
		}

		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := nn.ReadSnapshot(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		pol, _, err := snap.Materialize(rand.New(rand.NewSource(0)))
		if err != nil {
			t.Fatal(err)
		}
		ref := policy.NewNetScheduler(pol)

		states := testStates(t, 20, 32)
		out := make([]Decision, len(states))
		eng.DecideBatch(states, out)
		for i, st := range states {
			want := ref.Pick(st.Jobs, st.Now, st.View)
			if out[i].Pick != want {
				t.Fatalf("%s state %d: serve picked %d, NetScheduler picked %d",
					kind, i, out[i].Pick, want)
			}
		}
	}
}

// TestHeuristicEngineParity proves every serveable heuristic answers
// exactly like its offline Pick, for single decisions over HTTP.
func TestHeuristicEngineParity(t *testing.T) {
	states := testStates(t, 8, 24)
	for _, h := range sched.Serveable() {
		h := h
		_, ts := newTestServer(t, Config{PolicyName: h.Name})
		for i, st := range states {
			code, out := postJSON(t, ts.URL+"/v1/decide", EncodeStates([]*QueueState{st}))
			if code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", h.Name, code, out)
			}
			var resp struct {
				Pick   int    `json:"pick"`
				Policy string `json:"policy"`
			}
			if err := json.Unmarshal(out, &resp); err != nil {
				t.Fatalf("%s: %v in %s", h.Name, err, out)
			}
			want := h.Pick(st.Jobs, st.Now, st.View)
			if resp.Pick != want || resp.Policy != h.Name {
				t.Fatalf("%s state %d: got pick=%d policy=%q, want pick=%d",
					h.Name, i, resp.Pick, resp.Policy, want)
			}
		}
	}
}

// TestFlexibleAndCompactFormatsAgree sends the same state as canonical
// compact JSON (fast parser) and as verbose object JSON (encoding/json
// fallback) and expects identical decisions.
func TestFlexibleAndCompactFormatsAgree(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "kernel", 16)
	_, ts := newTestServer(t, Config{ModelPath: path})

	st := testStates(t, 1, 16)[0]
	st.WantScores = true
	compact := EncodeStates([]*QueueState{st})

	type jobObj struct {
		ID       int     `json:"id"`
		Submit   float64 `json:"submit_time"`
		ReqTime  float64 `json:"requested_time"`
		ReqProcs int     `json:"requested_procs"`
		UserID   int     `json:"user_id"`
	}
	verbose := map[string]interface{}{
		"now":         st.Now,
		"free_procs":  st.View.FreeProcs,
		"total_procs": st.View.TotalProcs,
		"queue_len":   st.QueueLen,
		"scores":      true,
	}
	var jobs []jobObj
	for _, j := range st.Jobs {
		jobs = append(jobs, jobObj{j.ID, j.SubmitTime, j.RequestedTime, j.RequestedProcs, j.UserID})
	}
	verbose["jobs"] = jobs
	verboseBody, err := json.Marshal(verbose)
	if err != nil {
		t.Fatal(err)
	}

	code1, out1 := postJSON(t, ts.URL+"/v1/decide", compact)
	code2, out2 := postJSON(t, ts.URL+"/v1/decide", verboseBody)
	if code1 != 200 || code2 != 200 {
		t.Fatalf("status %d / %d: %s / %s", code1, code2, out1, out2)
	}
	if !bytes.Equal(out1, out2) {
		t.Fatalf("compact and verbose answers differ:\n%s\n%s", out1, out2)
	}
	if !bytes.Contains(out1, []byte(`"scores":[`)) {
		t.Fatalf("scores requested but missing: %s", out1)
	}
}

// TestBatchRequest proves the states form answers every state, in order,
// identically to individual requests.
func TestBatchRequest(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "kernel", 32)
	_, ts := newTestServer(t, Config{ModelPath: path})

	states := testStates(t, 9, 32)
	code, out := postJSON(t, ts.URL+"/v1/decide", EncodeStates(states))
	if code != 200 {
		t.Fatalf("batch status %d: %s", code, out)
	}
	var batch struct {
		Picks []int `json:"picks"`
	}
	if err := json.Unmarshal(out, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Picks) != len(states) {
		t.Fatalf("batch answered %d picks for %d states", len(batch.Picks), len(states))
	}
	for i, st := range states {
		code, out := postJSON(t, ts.URL+"/v1/decide", EncodeStates([]*QueueState{st}))
		if code != 200 {
			t.Fatalf("state %d status %d: %s", i, code, out)
		}
		var single struct {
			Pick int `json:"pick"`
		}
		if err := json.Unmarshal(out, &single); err != nil {
			t.Fatal(err)
		}
		if single.Pick != batch.Picks[i] {
			t.Fatalf("state %d: batch pick %d, single pick %d", i, batch.Picks[i], single.Pick)
		}
	}
}

// TestConcurrentDecideAndReload hammers the daemon from many goroutines
// while the model hot-swaps between a trained snapshot and heuristics.
// Run under -race this is the proof the batcher and reload path are
// data-race-free; zero requests may fail during swaps.
func TestConcurrentDecideAndReload(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "kernel", 32)
	path2 := writeSnapshot(t, dir, "mlp-v2", 32)
	srv, ts := newTestServer(t, Config{ModelPath: path})

	states := testStates(t, 16, 32)
	bodies := make([][]byte, len(states))
	for i := range states {
		bodies[i] = EncodeStates(states[i : i+1])
	}

	const clients = 8
	const perClient = 60
	var wg sync.WaitGroup
	errs := make(chan string, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				code, out := postJSON(t, ts.URL+"/v1/decide", bodies[(c+i)%len(bodies)])
				if code != http.StatusOK {
					errs <- fmt.Sprintf("client %d req %d: status %d: %s", c, i, code, out)
					return
				}
			}
		}(c)
	}

	reloads := [][]byte{
		[]byte(`{"policy":"SJF"}`),
		[]byte(`{"model":"` + path2 + `"}`),
		[]byte(`{"policy":"F1"}`),
		nil, // bare reload: re-read the original -model path
	}
	for i := 0; i < 12; i++ {
		code, out := postJSON(t, ts.URL+"/reload", reloads[i%len(reloads)])
		if code != http.StatusOK {
			t.Fatalf("reload %d failed: %d %s", i, code, out)
		}
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := srv.Metrics().ReloadsTotal.Load(); got != 12 {
		t.Fatalf("reloads_total = %d, want 12", got)
	}
	if srv.Metrics().ErrorsTotal.Load() != 0 {
		t.Fatalf("errors_total = %d, want 0", srv.Metrics().ErrorsTotal.Load())
	}
}

// TestReloadMalformedModel: a model file whose dimensions no network can
// be built with is a 400 from /reload, and the engine already loaded keeps
// answering.
func TestReloadMalformedModel(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{ModelPath: writeSnapshot(t, dir, "kernel", 32)})
	body := EncodeStates(testStates(t, 1, 32))
	rng := rand.New(rand.NewSource(3))
	pol, err := nn.NewPolicy(rng, "kernel", 32, sim.JobFeatures)
	if err != nil {
		t.Fatal(err)
	}
	val := nn.NewValueNet(rng, 32, sim.JobFeatures, nil)
	for name, edit := range map[string]func(s *nn.Snapshot){
		"features 0":        func(s *nn.Snapshot) { s.Features = 0 },
		"max_obs -1":        func(s *nn.Snapshot) { s.MaxObs = -1 },
		"value_hidden [-1]": func(s *nn.Snapshot) { s.ValueHidden = []int{-1} },
		"lenet 2x2":         func(s *nn.Snapshot) { s.PolicyKind, s.MaxObs, s.Features = "lenet", 2, 2 },
	} {
		snap := nn.Snap(pol, val, nil)
		edit(snap)
		var buf bytes.Buffer
		if err := snap.Write(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		spec, err := json.Marshal(map[string]string{"model": path})
		if err != nil {
			t.Fatal(err)
		}
		if code, out := postJSON(t, ts.URL+"/reload", spec); code != http.StatusBadRequest {
			t.Errorf("%s: /reload answered %d %s, want 400", name, code, out)
		}
		if code, out := postJSON(t, ts.URL+"/v1/decide", body); code != http.StatusOK ||
			!bytes.Contains(out, []byte(`"policy":"kernel"`)) {
			t.Errorf("%s: after the refused reload /v1/decide answered %d %s", name, code, out)
		}
	}
	if got := srv.Metrics().ReloadsTotal.Load(); got != 0 {
		t.Errorf("reloads_total = %d, want 0", got)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{PolicyName: "FCFS"})
	states := testStates(t, 4, 8)
	for i := 0; i < 3; i++ {
		if code, out := postJSON(t, ts.URL+"/v1/decide", EncodeStates(states)); code != 200 {
			t.Fatalf("decide: %d %s", code, out)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, s := range []string{
		"rlserv_decisions_total 12",
		"rlserv_requests_total 3",
		"rlserv_model_info{policy=\"FCFS\"} 1",
		"rlserv_decision_latency_seconds_bucket",
		"rlserv_batch_queue_seconds_count 3",
	} {
		if !strings.Contains(text, s) {
			t.Errorf("metrics output missing %q:\n%s", s, text)
		}
	}
}

func TestDecideValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{PolicyName: "SJF"})
	bad := [][]byte{
		[]byte(`not json`),
		[]byte(`{}`),
		[]byte(`{"now":0,"free_procs":4,"total_procs":8,"jobs":[]}`),
		[]byte(`{"now":0,"free_procs":4,"total_procs":0,"jobs":[[0,60,2]]}`),
		[]byte(`{"now":0,"free_procs":9,"total_procs":8,"jobs":[[0,60,2]]}`),
		[]byte(`{"now":0,"free_procs":4,"total_procs":8,"jobs":[[0,60,0]]}`),
		[]byte(`{"now":0,"free_procs":4,"total_procs":8,"jobs":[[0,0,2]]}`),
	}
	for i, body := range bad {
		code, _ := postJSON(t, ts.URL+"/v1/decide", body)
		if code != http.StatusBadRequest {
			t.Errorf("bad body %d got status %d, want 400", i, code)
		}
	}
	// GET is not a decision.
	resp, err := http.Get(ts.URL + "/v1/decide")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/decide = %d, want 405", resp.StatusCode)
	}
}

// TestQueueLenCutoff proves queues longer than the policy window are cut
// off in FCFS order, mirroring the simulator's MAX_OBSV_SIZE behaviour.
func TestQueueLenCutoff(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "kernel", 8)
	eng, err := LoadEngine(path, "")
	if err != nil {
		t.Fatal(err)
	}
	st := testStates(t, 1, 20)[0] // 20 jobs, window is 8
	out := make([]Decision, 1)
	eng.DecideBatch([]*QueueState{st}, out)
	if out[0].Pick < 0 || out[0].Pick >= 8 {
		t.Fatalf("pick %d outside the 8-job window", out[0].Pick)
	}
}

// TestMaxStatesPerRequest proves the batch-size guard rejects oversized
// requests instead of forcing an unbounded forward pass.
func TestMaxStatesPerRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{
		PolicyName: "SJF", MaxStatesPerRequest: 4,
	})
	states := testStates(t, 5, 2)
	code, out := postJSON(t, ts.URL+"/v1/decide", EncodeStates(states))
	if code != http.StatusBadRequest || !bytes.Contains(out, []byte("limit 4")) {
		t.Fatalf("oversized batch got %d %s, want 400 naming the limit", code, out)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/decide", EncodeStates(states[:4])); code != http.StatusOK {
		t.Fatalf("at-limit batch got %d, want 200", code)
	}
}

// TestDecideAfterClose proves a shut-down batcher reports an error instead
// of panicking on a closed queue.
func TestDecideAfterClose(t *testing.T) {
	eng := NewHeuristicEngine(sched.SJF())
	b := NewBatcher(eng, BatcherConfig{Workers: 1})
	states := testStates(t, 1, 4)
	if _, _, err := b.Decide(context.Background(), states); err != nil {
		t.Fatalf("decide before close: %v", err)
	}
	b.Close()
	if _, _, err := b.Decide(context.Background(), states); err == nil {
		t.Fatal("decide after close should error")
	}
}

// TestPolicyEngineSyncFrom: refreshing weights in place from a trained
// same-architecture policy must change the engine's scores to the donor's.
func TestPolicyEngineSyncFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net := nn.NewKernelNet(rng, sim.DefaultMaxObserve, sim.JobFeatures, nil)
	donor := nn.NewKernelNet(rng, sim.DefaultMaxObserve, sim.JobFeatures, nil)
	eng, err := NewPolicyEngine(net)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewPolicyEngine(donor)
	if err != nil {
		t.Fatal(err)
	}
	states, err := SyntheticStates("Lublin-1", 4, 32, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range states {
		st.WantScores = true
	}
	before := make([]Decision, len(states))
	eng.DecideBatch(states, before)
	if err := eng.SyncFrom(donor); err != nil {
		t.Fatal(err)
	}
	after := make([]Decision, len(states))
	eng.DecideBatch(states, after)
	wantOut := make([]Decision, len(states))
	want.DecideBatch(states, wantOut)
	changed := false
	for i := range after {
		if after[i].Pick != wantOut[i].Pick {
			t.Fatalf("state %d: pick %d after sync, donor engine picks %d", i, after[i].Pick, wantOut[i].Pick)
		}
		for j := range after[i].Scores {
			if after[i].Scores[j] != wantOut[i].Scores[j] {
				t.Fatalf("state %d score %d differs from donor after SyncFrom", i, j)
			}
			if after[i].Scores[j] != before[i].Scores[j] {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("SyncFrom left every score unchanged; weights were not refreshed")
	}
	// Architecture mismatch must surface as an error.
	small := nn.NewKernelNet(rng, sim.DefaultMaxObserve, sim.JobFeatures, []int{4})
	if err := eng.SyncFrom(small); err == nil {
		t.Fatal("SyncFrom across architectures must error")
	}
}
