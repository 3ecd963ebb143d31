package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rlsched/internal/fleet"
)

// placeBodySeq is placeBody plus the completion batch's dedup identity.
func placeBodySeq(t *testing.T, jobRow, client string, seq int64, clusters ...string) []byte {
	t.Helper()
	return []byte(fmt.Sprintf(`{"job":%s,"client":%q,"batch_seq":%d,"clusters":[%s]}`,
		jobRow, client, seq, strings.Join(clusters, ",")))
}

// userJobs asks /place for user uid's tracked state with an empty batch.
func userJobs(t *testing.T, url string, uid int) (mean float64, jobs int) {
	t.Helper()
	code, resp := postJSON(t, url+"/place", placeBody(t, fmt.Sprintf(`[0, 600, 1, %d]`, uid),
		fairClusterState("a", 64, 64, ""),
		fairClusterState("b", 64, 64, "")))
	if code != http.StatusOK {
		t.Fatalf("probe place failed: %d %s", code, resp)
	}
	var pr fairPlaceResp
	if err := json.Unmarshal(resp, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Fairness == nil {
		t.Fatal("fairness state missing from probe response")
	}
	return pr.Fairness.UserMean, pr.Fairness.UserJobs
}

// TestPlaceBatchSeqDedup is the retry regression: re-posting the same
// completion batch (same client, same batch_seq) must change the fairness
// tracker NOT AT ALL — the retry is acknowledged, flagged as deduped, and
// nothing is re-observed. A higher seq from the same client applies.
func TestPlaceBatchSeqDedup(t *testing.T) {
	srv, ts := newFairServer(t, 2)

	batch := func(seq int64) []byte {
		return placeBodySeq(t, `[0, 600, 1, 3]`, "clusterd-a", seq,
			fairClusterState("a", 64, 64, `[7, 9000, 60], [7, 9100, 60]`),
			fairClusterState("b", 64, 64, `[3, 12, 600]`))
	}
	code, resp := postJSON(t, ts.URL+"/place", batch(1))
	if code != http.StatusOK {
		t.Fatalf("first batch failed: %d %s", code, resp)
	}
	if strings.Contains(string(resp), `"deduped"`) {
		t.Fatalf("fresh batch flagged as deduped: %s", resp)
	}
	meanBefore, jobsBefore := userJobs(t, ts.URL, 7)
	if jobsBefore != 2 {
		t.Fatalf("user 7 tracked jobs = %d after the batch, want 2", jobsBefore)
	}

	// The retry: byte-identical body, same seq. Placement still answers.
	code, resp = postJSON(t, ts.URL+"/place", batch(1))
	if code != http.StatusOK {
		t.Fatalf("retried batch failed: %d %s", code, resp)
	}
	if !strings.Contains(string(resp), `"deduped":true`) {
		t.Errorf("retry not flagged: %s", resp)
	}
	if mean, jobs := userJobs(t, ts.URL, 7); mean != meanBefore || jobs != jobsBefore {
		t.Errorf("retry changed the tracker: mean %g->%g jobs %d->%d",
			meanBefore, mean, jobsBefore, jobs)
	}
	// A stale seq (lower than the highest absorbed) is a replay too.
	if code, resp = postJSON(t, ts.URL+"/place", batch(0)); !strings.Contains(string(resp), `"deduped":true`) {
		t.Errorf("stale seq not deduped: %d %s", code, resp)
	}
	if srv.Metrics().PlaceDedupTotal.Load() != 2 {
		t.Errorf("dedup counter = %d, want 2", srv.Metrics().PlaceDedupTotal.Load())
	}

	// The next real batch (seq 2) applies.
	code, resp = postJSON(t, ts.URL+"/place", placeBodySeq(t, `[0, 600, 1, 3]`, "clusterd-a", 2,
		fairClusterState("a", 64, 64, `[7, 5, 60]`),
		fairClusterState("b", 64, 64, "")))
	if code != http.StatusOK {
		t.Fatalf("second batch failed: %d %s", code, resp)
	}
	if _, jobs := userJobs(t, ts.URL, 7); jobs != 3 {
		t.Errorf("user 7 tracked jobs = %d after seq 2, want 3", jobs)
	}
	// Distinct clients dedup independently.
	code, _ = postJSON(t, ts.URL+"/place", placeBodySeq(t, `[0, 600, 1, 3]`, "clusterd-b", 1,
		fairClusterState("a", 64, 64, `[7, 5, 60]`),
		fairClusterState("b", 64, 64, "")))
	if code != http.StatusOK {
		t.Fatal("other client's seq 1 must not collide")
	}
	if _, jobs := userJobs(t, ts.URL, 7); jobs != 4 {
		t.Errorf("user 7 tracked jobs = %d after second client, want 4", jobs)
	}

	// Shape guards: a seq without a client, or a negative seq, is a 400.
	bad := []byte(`{"job":[0,600,1,3],"batch_seq":1,"clusters":[` +
		fairClusterState("a", 64, 64, "") + `,` + fairClusterState("b", 64, 64, "") + `]}`)
	if code, _ := postJSON(t, ts.URL+"/place", bad); code != http.StatusBadRequest {
		t.Errorf("batch_seq without client answered %d, want 400", code)
	}
	if code, _ := postJSON(t, ts.URL+"/place", placeBodySeq(t, `[0,600,1,3]`, "c", -1,
		fairClusterState("a", 64, 64, ""), fairClusterState("b", 64, 64, ""))); code != http.StatusBadRequest {
		t.Errorf("negative batch_seq answered %d, want 400", code)
	}
}

// durableConfig is the two-shard fairness fleet with a checkpoint
// directory and no periodic loop (tests trigger snapshots explicitly).
func durableConfig(dir string) Config {
	return Config{
		PlaceRouter:   "least-loaded",
		FairWeight:    2,
		CheckpointDir: dir,
		Shards: []ShardConfig{
			{Name: "a", Procs: 64, PolicyName: "SJF"},
			{Name: "b", Procs: 64, PolicyName: "F1"},
		},
	}
}

// copyDir copies a checkpoint directory's files — the disk image a
// kill -9 would leave, captured while the source daemon is still running
// (nothing it buffers after its last fsync can be in the copy).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashRestore: a daemon killed without warning must come back with
// the fairness tracker, the dedup table and the drain set exactly as of
// the last acked batch — including batches acked AFTER the last snapshot
// (the WAL's half of the contract), and including the dedup of a client
// that retries across the crash.
func TestCrashRestore(t *testing.T) {
	dir := t.TempDir()
	srvA, tsA := newTestServer(t, durableConfig(dir))

	post := func(url string, body []byte) {
		t.Helper()
		if code, resp := postJSON(t, url+"/place", body); code != http.StatusOK {
			t.Fatalf("place failed: %d %s", code, resp)
		}
	}
	post(tsA.URL, placeBodySeq(t, `[0, 600, 1, 3]`, "feed", 1,
		fairClusterState("a", 64, 64, `[7, 9000, 60], [7, 9100, 60]`),
		fairClusterState("b", 64, 64, `[3, 12, 600]`)))
	// Snapshot now; everything after lives only in the WAL.
	if err := srvA.durable.checkpoint(); err != nil {
		t.Fatal(err)
	}
	post(tsA.URL, placeBodySeq(t, `[0, 600, 1, 3]`, "feed", 2,
		fairClusterState("a", 64, 64, `[7, 8000, 60]`),
		fairClusterState("b", 64, 64, `[3, 11, 500], [9, 5, 50]`)))
	if code, resp := postJSON(t, tsA.URL+"/drain", []byte(`{"cluster":"a"}`)); code != http.StatusOK {
		t.Fatalf("drain failed: %d %s", code, resp)
	}
	post(tsA.URL, placeBodySeq(t, `[0, 600, 1, 3]`, "feed", 3,
		fairClusterState("a", 64, 64, `[7, 7000, 60]`),
		fairClusterState("b", 64, 64, "")))

	// kill -9: copy the directory out from under the live daemon.
	dir2 := t.TempDir()
	copyDir(t, dir, dir2)
	srvB, tsB := newTestServer(t, durableConfig(dir2))

	want := srvA.fairness.ExportState()
	got := srvB.fairness.ExportState()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("restored tracker differs:\n was %+v\n now %+v", want, got)
	}

	// The crashed-over retry: the client re-sends seq 3 to the new daemon.
	code, resp := postJSON(t, tsB.URL+"/place", placeBodySeq(t, `[0, 600, 1, 3]`, "feed", 3,
		fairClusterState("a", 64, 64, `[7, 7000, 60]`),
		fairClusterState("b", 64, 64, "")))
	if code != http.StatusOK || !strings.Contains(string(resp), `"deduped":true`) {
		t.Errorf("cross-crash retry not deduped: %d %s", code, resp)
	}

	// The drain survived: not ready, and placement avoids "a".
	hr, err := http.Get(tsB.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("restored daemon /readyz = %d, want 503 (shard a drained)", hr.StatusCode)
	}
	code, resp = postJSON(t, tsB.URL+"/place", placeBody(t, `[0, 600, 1, 3]`,
		fairClusterState("a", 64, 64, ""),
		fairClusterState("b", 8, 64, "")))
	if code != http.StatusOK || !strings.Contains(string(resp), `"cluster":"b"`) {
		t.Errorf("restored daemon placed onto the drained shard: %d %s", code, resp)
	}

	// A graceful close writes a final snapshot; a third daemon restores
	// from it alone (its WAL segment is empty) to the same state.
	srvB.Close()
	srvC, _ := newTestServer(t, durableConfig(dir2))
	if got := srvC.fairness.ExportState(); !reflect.DeepEqual(want, got) {
		t.Errorf("snapshot-only restore differs:\n was %+v\n now %+v", want, got)
	}
}

// bareDurability is the layer without a disk or a server: a fresh
// two-cluster tracker for replay tests and fuzzing.
func bareDurability() *durability {
	names := []string{"a", "b"}
	return &durability{
		durableDeps: durableDeps{
			fairness: fleet.NewFairnessScorer(fleet.FairnessConfig{}),
			clusterIndex: func(name string) int {
				for i, n := range names {
					if n == name {
						return i
					}
				}
				return -1
			},
			clusterName: func(idx int) string {
				if idx < 0 || idx >= len(names) {
					return ""
				}
				return names[idx]
			},
		},
		lastSeq: map[string]int64{},
		drained: map[string]bool{},
	}
}

// walTestBatches builds a varied record stream through the real commit
// path and returns the WAL bytes plus the per-record walCluster batches.
func walTestBatches(t testing.TB) (data []byte, batches [][]walCluster) {
	t.Helper()
	batches = [][]walCluster{
		{{Name: "a", Done: []wireDone{{UserID: 7, Wait: 9000, Run: 60}, {UserID: 7, Wait: 9100, Run: 60}}}},
		{{Name: "b", Done: []wireDone{{UserID: 3, Wait: 12, Run: 600}}}},
		{{Name: "a", Done: []wireDone{{UserID: 9, Wait: 5, Run: 50}}},
			{Name: "b", Done: []wireDone{{UserID: 7, Wait: 5, Run: 60}, {UserID: 3, Wait: 11, Run: 500}}}},
		{{Name: "a", Done: []wireDone{{UserID: 3, Wait: 30, Run: 300}}}},
	}
	var buf []byte
	for i, b := range batches {
		seq := int64(i + 1)
		var err error
		buf, err = appendWALRecord(buf, &walRecord{Kind: "batch", Client: "c", Seq: &seq, Clusters: b})
		if err != nil {
			t.Fatal(err)
		}
	}
	return buf, batches
}

// replayReference feeds the first k batches straight into a fresh tracker
// — what a clean (never-crashed) run over the acked prefix looks like.
func replayReference(batches [][]walCluster, k int, clusterIndex func(string) int) fleet.FairnessState {
	f := fleet.NewFairnessScorer(fleet.FairnessConfig{})
	for _, b := range batches[:k] {
		for _, wc := range b {
			idx := clusterIndex(wc.Name)
			for i := range wc.Done {
				dj := wc.Done[i].toJob()
				f.Observe(idx, &dj)
			}
		}
	}
	return f.ExportState()
}

// TestWALTruncationProperty: truncate the WAL at EVERY byte offset and
// assert the full restore path (directory scan, decode, replay) never
// panics and lands exactly on the clean-run state over the complete
// records the truncated file retains — a torn final record is dropped,
// all-or-nothing, at every possible tear point.
func TestWALTruncationProperty(t *testing.T) {
	data, batches := walTestBatches(t)
	bare := bareDurability()

	dir := t.TempDir()
	seg := segPath(dir, 1)
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(seg, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, consumed := decodeWALRecords(data[:cut])
		if consumed > cut {
			t.Fatalf("cut %d: consumed %d beyond input", cut, consumed)
		}
		d, err := newDurability(dir, 0, durableDeps{
			fairness:     fleet.NewFairnessScorer(fleet.FairnessConfig{}),
			clusterIndex: bare.clusterIndex,
			clusterName:  bare.clusterName,
		})
		if err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		want := replayReference(batches, len(recs), bare.clusterIndex)
		if got := d.fairness.ExportState(); !reflect.DeepEqual(want, got) {
			t.Fatalf("cut %d (%d complete records): restored state differs:\n was %+v\n now %+v",
				cut, len(recs), want, got)
		}
		d.close()
		// Restore rotates to a fresh segment; reset the directory so the
		// next cut sees only its own truncated file.
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	// Sanity: the full stream decodes to every batch.
	if recs, _ := decodeWALRecords(data); len(recs) != len(batches) {
		t.Fatalf("full stream decoded %d records, want %d", len(recs), len(batches))
	}
}

// TestSnapshotGuards: a corrupt snapshot refuses to start (silently
// dropping every user's history is worse than failing loudly), and the
// config surface rejects durability without the tracker it persists.
func TestSnapshotGuards(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(durableConfig(dir)); err == nil {
		t.Error("corrupt snapshot must refuse to start")
	}
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, snapshotName), []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(durableConfig(dir2)); err == nil {
		t.Error("unknown snapshot version must refuse to start")
	}

	if _, err := NewServer(Config{
		PolicyName:    "SJF",
		CheckpointDir: t.TempDir(),
	}); err == nil {
		t.Error("-checkpoint-dir without -fair-weight must be rejected")
	}
	if _, err := NewServer(Config{PolicyName: "SJF", DecisionCache: -1}); err == nil {
		t.Error("negative decision cache size must be rejected")
	}
}

// TestDrainEndpoint: the cordon state machine — placement and migration
// exclude a drained shard, /readyz flips, per-shard decisions keep
// serving, the fairness per-cluster shares are retired, and the whole
// thing is idempotent.
func TestDrainEndpoint(t *testing.T) {
	srv, ts := newFairServer(t, 2)

	// Baseline: idle tie-break picks "a".
	code, resp := postJSON(t, ts.URL+"/place", placeBody(t, `[0, 600, 1, 3]`,
		fairClusterState("a", 64, 64, ""),
		fairClusterState("b", 64, 64, "")))
	if code != http.StatusOK || !strings.Contains(string(resp), `"cluster":"a"`) {
		t.Fatalf("baseline place: %d %s", code, resp)
	}

	code, resp = postJSON(t, ts.URL+"/drain", []byte(`{"cluster":"a"}`))
	if code != http.StatusOK || !strings.Contains(string(resp), `"already":false`) {
		t.Fatalf("drain: %d %s", code, resp)
	}
	code, resp = postJSON(t, ts.URL+"/drain", []byte(`{"cluster":"a"}`))
	if code != http.StatusOK || !strings.Contains(string(resp), `"already":true`) {
		t.Errorf("second drain not idempotent: %d %s", code, resp)
	}
	if code, _ := postJSON(t, ts.URL+"/drain", []byte(`{"cluster":"nope"}`)); code != http.StatusNotFound {
		t.Errorf("unknown cluster drain answered %d, want 404", code)
	}
	// A body over the cap is refused as such, not parsed from its first MiB
	// (which here names a real shard).
	overCap := `{"cluster":"b"}` + strings.Repeat(" ", maxSpecBytes)
	if code, _ := postJSON(t, ts.URL+"/drain", []byte(overCap)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("over-cap drain answered %d, want 413", code)
	}
	if code, _ := postJSON(t, ts.URL+"/drain", nil); code != http.StatusBadRequest {
		t.Errorf("empty drain answered %d, want 400", code)
	}

	// Placement now lands on "b" even though "a" would win the tie-break,
	// and the response's score table no longer mentions "a".
	code, resp = postJSON(t, ts.URL+"/place", placeBody(t, `[0, 600, 1, 3]`,
		fairClusterState("a", 64, 64, ""),
		fairClusterState("b", 8, 64, "")))
	if code != http.StatusOK || !strings.Contains(string(resp), `"cluster":"b"`) {
		t.Errorf("drained shard still placeable: %d %s", code, resp)
	}
	var pr fairPlaceResp
	if err := json.Unmarshal(resp, &pr); err != nil {
		t.Fatal(err)
	}
	if _, ok := pr.Scores["a"]; ok {
		t.Errorf("drained shard still scored: %v", pr.Scores)
	}
	// Draining every posted cluster leaves the job unplaceable.
	code, _ = postJSON(t, ts.URL+"/place", placeBody(t, `[0, 600, 1, 3]`,
		fairClusterState("a", 64, 64, "")))
	if code != http.StatusUnprocessableEntity {
		t.Errorf("all-drained place answered %d, want 422", code)
	}

	// /readyz reports the fleet below strength; /healthz stays alive.
	hr, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz = %d with a drained shard, want 503", hr.StatusCode)
	}
	hr, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d with a drained shard, want 200", hr.StatusCode)
	}

	// The drained shard's own decision endpoint keeps answering: jobs
	// already queued there still need an order.
	code, _ = postJSON(t, ts.URL+"/v1/decide?cluster=a",
		[]byte(`{"now":0,"free_procs":64,"total_procs":64,"jobs":[[0,60,1]]}`))
	if code != http.StatusOK {
		t.Errorf("drained shard /v1/decide answered %d, want 200", code)
	}

	// Fairness per-cluster shares for "a" were retired (ClusterRetirer):
	// the exported state holds no cluster-0 entries.
	st := srv.fairness.ExportState()
	for _, u := range st.Users {
		for _, c := range u.Clusters {
			if c.Cluster == 0 {
				t.Errorf("user %d still holds a share on the retired cluster", u.UserID)
			}
		}
	}

	// The drained gauge flips in /metrics.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mr.Body)
	mr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if body := string(raw); !strings.Contains(body, `rlserv_shard_drained{cluster="a"} 1`) ||
		!strings.Contains(body, `rlserv_shard_drained{cluster="b"} 0`) {
		t.Errorf("drained gauge wrong:\n%s", body)
	}
}

// TestMigrateDrained: /migrate must keep recommending moves OFF a
// cordoned member while refusing it as a destination.
func TestMigrateDrained(t *testing.T) {
	_, ts := newTestServer(t, Config{
		PlaceRouter:   "least-loaded",
		Migrate:       true,
		MigrateMargin: 0,
		FairWeight:    1,
		Shards: []ShardConfig{
			{Name: "a", Procs: 64, PolicyName: "SJF"},
			{Name: "b", Procs: 64, PolicyName: "F1"},
		},
	})
	if code, resp := postJSON(t, ts.URL+"/drain", []byte(`{"cluster":"a"}`)); code != http.StatusOK {
		t.Fatalf("drain: %d %s", code, resp)
	}
	// A job stranded on drained "a" with idle "b" available: move.
	body := []byte(`{"job":[-600,600,8],"from":"a","clusters":[` +
		fairClusterState("a", 0, 64, "") + `,` + fairClusterState("b", 64, 64, "") + `]}`)
	code, resp := postJSON(t, ts.URL+"/migrate", body)
	if code != http.StatusOK || !strings.Contains(string(resp), `"migrate":true`) ||
		!strings.Contains(string(resp), `"cluster":"b"`) {
		t.Errorf("migration off the drained shard refused: %d %s", code, resp)
	}
	// The reverse direction: "a" is never a destination while drained.
	body = []byte(`{"job":[-600,600,8],"from":"b","clusters":[` +
		fairClusterState("a", 64, 64, "") + `,` + fairClusterState("b", 0, 64, "") + `]}`)
	code, resp = postJSON(t, ts.URL+"/migrate", body)
	if code != http.StatusOK || strings.Contains(string(resp), `"migrate":true`) {
		t.Errorf("drained shard recommended as destination: %d %s", code, resp)
	}
}

// TestPoisonedWALIsVisible: an append failure makes the daemon refuse
// completion batches (500) until a checkpoint rotates the segment — and
// that state must show from outside: /readyz 503 naming the WAL error,
// rlserv_wal_healthy 0. The tracker holds exactly the acked prefix, here
// and after a restart on the same directory.
func TestPoisonedWALIsVisible(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, durableConfig(dir))
	batch := func(seq int64) []byte {
		return placeBodySeq(t, `[0, 600, 1, 3]`, "feed", seq,
			fairClusterState("a", 64, 64, `[7, 9000, 60]`),
			fairClusterState("b", 64, 64, `[3, 12, 600]`))
	}
	probe := func(wantReady int, wantGauge string) {
		t.Helper()
		code, out := getJSON(t, ts.URL+"/readyz")
		if code != wantReady || (code != http.StatusOK && !strings.Contains(string(out), "wal")) {
			t.Errorf("/readyz = %d %q, want %d (naming the WAL when not ready)", code, out, wantReady)
		}
		if _, page := getJSON(t, ts.URL+"/metrics"); !strings.Contains(string(page), wantGauge) {
			t.Errorf("/metrics lacks %q", wantGauge)
		}
	}

	if code, out := postJSON(t, ts.URL+"/place", batch(1)); code != http.StatusOK {
		t.Fatalf("healthy batch: %d %s", code, out)
	}
	probe(http.StatusOK, "rlserv_wal_healthy 1\n")
	acked := srv.fairness.ExportState()

	// The disk fault: the segment's descriptor goes away under the daemon.
	srv.durable.mu.Lock()
	srv.durable.wal.Close()
	srv.durable.mu.Unlock()
	for seq := int64(2); seq <= 3; seq++ { // sticky: every later batch too
		if code, out := postJSON(t, ts.URL+"/place", batch(seq)); code != http.StatusInternalServerError {
			t.Fatalf("batch %d on a poisoned WAL: %d %s, want 500", seq, code, out)
		}
	}
	probe(http.StatusServiceUnavailable, "rlserv_wal_healthy 0\n")
	if got := srv.fairness.ExportState(); !reflect.DeepEqual(acked, got) {
		t.Errorf("refused batches reached the tracker:\n acked %+v\n now   %+v", acked, got)
	}
	dir2 := t.TempDir()
	copyDir(t, dir, dir2)
	restored, _ := newTestServer(t, durableConfig(dir2))
	if got := restored.fairness.ExportState(); !reflect.DeepEqual(acked, got) {
		t.Errorf("restart restored more than the acked prefix:\n acked %+v\n now   %+v", acked, got)
	}

	// A checkpoint opens a fresh segment: healthy again, and the client's
	// retry of the refused batch is absorbed exactly once.
	if err := srv.durable.checkpoint(); err != nil {
		t.Fatal(err)
	}
	probe(http.StatusOK, "rlserv_wal_healthy 1\n")
	if code, out := postJSON(t, ts.URL+"/place", batch(2)); code != http.StatusOK || strings.Contains(string(out), "deduped") {
		t.Errorf("retry after recovery: %d %s, want a fresh 200", code, out)
	}
}

// TestFailedRotationKeepsJournaling: a checkpoint that cannot open the
// next WAL segment fails, and the daemon keeps journaling to the segment
// it has. /readyz and rlserv_wal_healthy say healthy, and that is the
// truth: the next batch is acked and survives a restart.
func TestFailedRotationKeepsJournaling(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, durableConfig(dir))
	srv.durable.mu.Lock()
	blocker := segPath(dir, srv.durable.seg+1)
	srv.durable.mu.Unlock()
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := srv.durable.checkpoint(); err == nil {
		t.Fatal("checkpoint rotated onto a directory")
	}
	if code, out := getJSON(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Errorf("/readyz after the failed rotation = %d %q, want 200", code, out)
	}
	if _, page := getJSON(t, ts.URL+"/metrics"); !strings.Contains(string(page), "rlserv_wal_healthy 1\n") {
		t.Error("rlserv_wal_healthy is not 1 after the failed rotation")
	}
	code, out := postJSON(t, ts.URL+"/place", placeBodySeq(t, `[0, 600, 1, 3]`, "feed", 1,
		fairClusterState("a", 64, 64, `[7, 9000, 60]`),
		fairClusterState("b", 64, 64, `[3, 12, 600]`)))
	if code != http.StatusOK {
		t.Fatalf("batch after the failed rotation: %d %s, want 200", code, out)
	}
	acked := srv.fairness.ExportState()

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	dir2 := t.TempDir()
	copyDir(t, dir, dir2)
	restored, _ := newTestServer(t, durableConfig(dir2))
	if got := restored.fairness.ExportState(); !reflect.DeepEqual(acked, got) {
		t.Errorf("restart lost the batch journaled after the failed rotation:\n acked %+v\n now   %+v", acked, got)
	}
}

// TestConcurrentDrainAnswersOnce: racing drains of one shard agree — one
// answers "already":false, the rest true — with or without a durable
// tracker behind them, and a durable daemon journals the cordon once. Each
// case runs on several fresh daemons, since one race may happen to
// serialize.
func TestConcurrentDrainAnswersOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func() Config
	}{
		{"durable", func() Config { return durableConfig(t.TempDir()) }},
		{"non-durable", func() Config {
			return Config{PlaceRouter: "least-loaded", Shards: []ShardConfig{
				{Name: "a", Procs: 64, PolicyName: "SJF"},
				{Name: "b", Procs: 64, PolicyName: "F1"},
			}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for round := 0; round < 5; round++ {
				cfg := tc.cfg()
				srv, ts := newTestServer(t, cfg)
				answers := make([]string, 16)
				start := make(chan struct{})
				var wg sync.WaitGroup
				for i := range answers {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						<-start
						resp, err := http.Post(ts.URL+"/drain", "application/json", strings.NewReader(`{"cluster":"a"}`))
						if err != nil {
							t.Error(err)
							return
						}
						defer resp.Body.Close()
						body, err := io.ReadAll(resp.Body)
						if err != nil || resp.StatusCode != http.StatusOK {
							t.Errorf("drain %d: %d %s %v", i, resp.StatusCode, body, err)
						}
						answers[i] = string(body)
					}(i)
				}
				close(start)
				wg.Wait()
				fresh := 0
				for _, a := range answers {
					if strings.Contains(a, `"already":false`) {
						fresh++
					}
				}
				if fresh != 1 {
					t.Errorf("round %d: %d of %d racing drains answered already:false, want 1", round, fresh, len(answers))
				}
				if !srv.shards[0].cordoned.Load() {
					t.Errorf("round %d: shard a not cordoned", round)
				}
				if got := srv.Metrics().WALRecordsTotal.Load(); cfg.CheckpointDir != "" && got != 1 {
					t.Errorf("round %d: racing drains wrote %d WAL records, want 1", round, got)
				}
			}
		})
	}
}

// TestReplayMatchesLive is the model-based property behind the one
// transition. Seeded random histories commit batches (clients "", c0 and
// c1, whose seqs repeat and go backwards; 0–2 clusters from a, b and the
// unknown z) and drains, checkpoint, and restart from a copy of the
// directory, continuing on the restored layer. Every restore, and the one
// after the final graceful close, must equal the live tracker, dedup table
// and drained set. A reference model predicts each commit's verdict, the
// tracker, and how many commits wrote a WAL record.
func TestReplayMatchesLive(t *testing.T) {
	bare := bareDurability()
	clusters := []string{"a", "b", "z"}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		metrics := NewMetrics()
		open := func(dir string) *durability {
			t.Helper()
			d, err := newDurability(dir, 0, durableDeps{
				fairness:     fleet.NewFairnessScorer(fleet.FairnessConfig{}),
				clusterIndex: bare.clusterIndex,
				clusterName:  bare.clusterName,
				metrics:      metrics,
			})
			if err != nil {
				t.Fatalf("seed %d: restore: %v", seed, err)
			}
			return d
		}
		// The model: what every commit should have done, kept without
		// durability's code.
		ref := fleet.NewFairnessScorer(fleet.FairnessConfig{})
		lastSeq, drained := map[string]int64{}, map[string]bool{}
		var records, dedups uint64
		check := func(step int, what string, live, restored *durability) {
			t.Helper()
			want := ref.ExportState()
			for _, d := range []*durability{live, restored} {
				if got := d.fairness.ExportState(); !reflect.DeepEqual(want, got) {
					t.Fatalf("seed %d step %d %s: tracker differs:\n want %+v\n got  %+v", seed, step, what, want, got)
				}
				if !reflect.DeepEqual(lastSeq, d.lastSeq) || !reflect.DeepEqual(drained, d.drained) {
					t.Fatalf("seed %d step %d %s: lastSeq %v drained %v, want %v %v",
						seed, step, what, d.lastSeq, d.drained, lastSeq, drained)
				}
			}
			if got := metrics.WALRecordsTotal.Load(); got != records {
				t.Fatalf("seed %d step %d %s: %d WAL records, want %d", seed, step, what, got, records)
			}
			if got := metrics.PlaceDedupTotal.Load(); got != dedups {
				t.Fatalf("seed %d step %d %s: %d deduped batches, want %d", seed, step, what, got, dedups)
			}
		}

		dir := t.TempDir()
		live := open(dir)
		for step := 0; step < 150; step++ {
			var rec walRecord
			var absorbed bool
			switch r := rng.Intn(20); {
			case r < 13:
				rec.Kind = "batch"
				if client := []string{"", "c0", "c1"}[rng.Intn(3)]; client != "" {
					last, ok := lastSeq[client]
					seq := max(0, last+int64(rng.Intn(5))-2)
					rec.Client, rec.Seq = client, &seq
					absorbed = ok && seq <= last
				}
				for _, c := range rng.Perm(len(clusters))[:rng.Intn(3)] {
					wc := walCluster{Name: clusters[c]}
					for k := 1 + rng.Intn(2); k > 0; k-- {
						wc.Done = append(wc.Done, wireDone{UserID: rng.Intn(5),
							Wait: float64(rng.Intn(3600)), Run: float64(1 + rng.Intn(7200))})
					}
					rec.Clusters = append(rec.Clusters, wc)
				}
			case r < 15:
				rec.Kind, rec.Cluster = "drain", clusters[rng.Intn(2)]
				absorbed = drained[rec.Cluster]
			case r < 17:
				if err := live.checkpoint(); err != nil {
					t.Fatalf("seed %d step %d: checkpoint: %v", seed, step, err)
				}
				continue
			default:
				dir2 := t.TempDir()
				copyDir(t, dir, dir2)
				restored := open(dir2)
				check(step, "restart", live, restored)
				live.close()
				live, dir = restored, dir2
				continue
			}

			applied, err := live.commit(&rec)
			if err != nil {
				t.Fatalf("seed %d step %d: commit: %v", seed, step, err)
			}
			if applied == absorbed {
				t.Fatalf("seed %d step %d: commit %+v applied=%t, model says absorbed=%t", seed, step, rec, applied, absorbed)
			}
			switch {
			case absorbed:
				if rec.Kind == "batch" {
					dedups++
				}
			case rec.Kind == "drain":
				records++
				drained[rec.Cluster] = true
				ref.RetireCluster(bare.clusterIndex(rec.Cluster))
			default:
				if rec.Seq != nil || len(rec.Clusters) > 0 {
					records++
				}
				if rec.Seq != nil {
					lastSeq[rec.Client] = *rec.Seq
				}
				for _, wc := range rec.Clusters {
					if idx := bare.clusterIndex(wc.Name); idx >= 0 {
						for i := range wc.Done {
							dj := wc.Done[i].toJob()
							ref.Observe(idx, &dj)
						}
					}
				}
			}
		}
		live.close()
		restored := open(dir)
		check(150, "after close", live, restored)
		restored.close()
	}
}
