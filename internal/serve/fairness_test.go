package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// newFairServer runs a two-shard fleet daemon with the per-user fairness
// plugin on the /place pipeline.
func newFairServer(t *testing.T, fairWeight float64) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServer(t, Config{
		PlaceRouter: "least-loaded",
		FairWeight:  fairWeight,
		Shards: []ShardConfig{
			{Name: "a", Procs: 64, PolicyName: "SJF"},
			{Name: "b", Procs: 64, PolicyName: "F1"},
		},
	})
}

// fairClusterState is clusterState plus a completed-jobs feed.
func fairClusterState(name string, free, total int, completed string) string {
	return fmt.Sprintf(`{"name":%q,"now":0,"free_procs":%d,"total_procs":%d,"jobs":[],"completed":[%s]}`,
		name, free, total, completed)
}

type fairPlaceResp struct {
	Cluster  string `json:"cluster"`
	Fairness *struct {
		UserMean  float64 `json:"user_mean_bsld"`
		UserJobs  int     `json:"user_jobs"`
		FleetMean float64 `json:"fleet_mean_bsld"`
	} `json:"fairness"`
	Scores map[string]float64 `json:"scores"`
}

// feedHistory posts one /place round whose only purpose is to load the
// tracker: user 7 fared terribly on "a" and fine on "b", user 3 fine.
func feedHistory(t *testing.T, url string) {
	t.Helper()
	body := placeBody(t, `[0, 600, 1, 3]`,
		fairClusterState("a", 64, 64, `[7, 9000, 60], [7, 9100, 60], [3, 10, 600]`),
		fairClusterState("b", 64, 64, `[7, 5, 60], [7, 6, 60], [3, 12, 600]`))
	code, resp := postJSON(t, url+"/place", body)
	if code != http.StatusOK {
		t.Fatalf("history feed failed: %d %s", code, resp)
	}
}

// TestPlaceFairnessSteering: with identical idle clusters the baseline
// ties toward the lowest index ("a"); once the tracker has seen user 7
// starved on "a" and served on "b", their next job must be steered to "b",
// while a user with no bad history keeps the tie-break. The response must
// expose the tracked per-user state.
func TestPlaceFairnessSteering(t *testing.T) {
	_, ts := newFairServer(t, 2)
	feedHistory(t, ts.URL)

	place := func(jobRow string) fairPlaceResp {
		t.Helper()
		code, resp := postJSON(t, ts.URL+"/place", placeBody(t, jobRow,
			fairClusterState("a", 64, 64, ""),
			fairClusterState("b", 64, 64, "")))
		if code != http.StatusOK {
			t.Fatalf("place failed: %d %s", code, resp)
		}
		var pr fairPlaceResp
		if err := json.Unmarshal(resp, &pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}

	deprived := place(`[0, 600, 16, 7]`)
	if deprived.Cluster != "b" {
		t.Errorf("deprived user 7 placed on %q, want the cluster that has not been starving them (b)", deprived.Cluster)
	}
	if deprived.Fairness == nil {
		t.Fatal("fairness state missing from /place response")
	}
	if deprived.Fairness.UserJobs != 4 {
		t.Errorf("user 7 tracked jobs = %d, want 4", deprived.Fairness.UserJobs)
	}
	if !(deprived.Fairness.UserMean > deprived.Fairness.FleetMean) {
		t.Errorf("user 7 mean %.2f must exceed fleet mean %.2f",
			deprived.Fairness.UserMean, deprived.Fairness.FleetMean)
	}

	neutral := place(`[0, 600, 16, 3]`)
	if neutral.Cluster != "a" {
		t.Errorf("well-served user 3 placed on %q, want the plain tie-break (a)", neutral.Cluster)
	}

	// Without the fairness weight the same history must change nothing.
	_, plain := newFairServer(t, 0)
	code, resp := postJSON(t, plain.URL+"/place", placeBody(t, `[0, 600, 16, 7]`,
		fairClusterState("a", 64, 64, `[7, 9000, 60], [7, 9100, 60]`),
		fairClusterState("b", 64, 64, "")))
	if code != http.StatusOK {
		t.Fatalf("plain place failed: %d %s", code, resp)
	}
	var pr fairPlaceResp
	if err := json.Unmarshal(resp, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Cluster != "a" {
		t.Errorf("fairness-disabled daemon placed on %q, want tie-break (a)", pr.Cluster)
	}
	if pr.Fairness != nil {
		t.Error("fairness-disabled daemon must not report fairness state")
	}
}

// TestFairnessMetricsView: rlserv_fairness_score must appear in /metrics
// once fairness is enabled, and reflect the tracked users.
func TestFairnessMetricsView(t *testing.T) {
	_, ts := newFairServer(t, 1)

	get := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}

	before := get()
	if !strings.Contains(before, `rlserv_fairness_score{stat="users"} 0`) {
		t.Errorf("empty tracker must report 0 users:\n%s", before)
	}
	if !strings.Contains(before, `rlserv_fairness_score{stat="jain"} 1`) {
		t.Errorf("empty tracker must report Jain 1:\n%s", before)
	}

	feedHistory(t, ts.URL)
	after := get()
	if !strings.Contains(after, `rlserv_fairness_score{stat="users"} 2`) {
		t.Errorf("tracker must report 2 users after the feed:\n%s", after)
	}
	if strings.Contains(after, `rlserv_fairness_score{stat="jain"} 1`+"\n") {
		t.Errorf("Jain must drop below 1 once user 7 is starved:\n%s", after)
	}
	if !strings.Contains(after, `rlserv_fairness_score{stat="max_user_bsld"}`) ||
		!strings.Contains(after, `rlserv_fairness_score{stat="max_mean_ratio"}`) {
		t.Errorf("fairness view incomplete:\n%s", after)
	}

	// A daemon without the fairness weight must not export the view.
	_, plain := newFairServer(t, 0)
	resp, err := http.Get(plain.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "rlserv_fairness_score") {
		t.Error("fairness-disabled daemon must not export rlserv_fairness_score")
	}
}

// TestFairnessValidation covers the configuration and request guards.
func TestFairnessValidation(t *testing.T) {
	if _, err := NewServer(Config{FairWeight: 1, PolicyName: "SJF"}); err == nil {
		t.Error("fairness without fleet shards must be rejected")
	}
	if _, err := NewServer(Config{
		FairWeight: -1,
		Shards:     []ShardConfig{{Name: "a", Procs: 8, PolicyName: "SJF"}},
	}); err == nil {
		t.Error("negative fairness weight must be rejected")
	}

	_, ts := newFairServer(t, 1)
	for _, completed := range []string{
		`[7, -5, 60]`, // negative wait
		`[7, 5, -60]`, // negative run
		`{"user_id": 7, "wait": 10, "run_time": 60}`, // object form: outside the wire format
	} {
		code, _ := postJSON(t, ts.URL+"/place", placeBody(t, `[0, 600, 1, 7]`,
			fairClusterState("a", 64, 64, completed),
			fairClusterState("b", 64, 64, "")))
		if code != http.StatusBadRequest {
			t.Errorf("completed %s answered %d, want 400", completed, code)
		}
	}
	// A short compact row is outside the wire format.
	code, _ := postJSON(t, ts.URL+"/place", placeBody(t, `[0, 600, 1, 7]`,
		fairClusterState("a", 64, 64, `[7, 5]`),
		fairClusterState("b", 64, 64, "")))
	if code != http.StatusBadRequest {
		t.Errorf("short completed row answered %d, want 400", code)
	}

	// A rejected request must fold NOTHING into the tracker — a client
	// that repairs and re-posts its whole completed batch would otherwise
	// double-count the valid records.
	code, _ = postJSON(t, ts.URL+"/place", placeBody(t, `[0, 600, 1, 7]`,
		fairClusterState("a", 64, 64, `[7, 9000, 60], [7, 9100, 60]`),
		fairClusterState("b", 64, 64, `[7, 5, -1]`)))
	if code != http.StatusBadRequest {
		t.Fatalf("mixed-validity batch answered %d, want 400", code)
	}
	// Same for an infeasible job (422): the batch is valid, but the
	// request as a whole is rejected before any record is folded.
	code, _ = postJSON(t, ts.URL+"/place", placeBody(t, `[0, 600, 512, 7]`,
		fairClusterState("a", 64, 64, `[7, 9000, 60], [7, 9100, 60]`),
		fairClusterState("b", 64, 64, "")))
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible job answered %d, want 422", code)
	}
	code, resp := postJSON(t, ts.URL+"/place", placeBody(t, `[0, 600, 1, 7]`,
		fairClusterState("a", 64, 64, ""),
		fairClusterState("b", 64, 64, "")))
	if code != http.StatusOK {
		t.Fatalf("follow-up place failed: %d %s", code, resp)
	}
	var pr fairPlaceResp
	if err := json.Unmarshal(resp, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Fairness == nil || pr.Fairness.UserJobs != 0 {
		t.Fatalf("rejected batch leaked into the tracker: %+v", pr.Fairness)
	}
}
