package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay throws arbitrary bytes at the WAL decoder and replays
// whatever decodes into a fresh tracker: the decoder must never panic,
// never consume past its input, and only ever hand back records that
// survive the length + CRC + JSON gauntlet — which the replay path must
// then absorb without corrupting the tracker (Report stays callable).
func FuzzWALReplay(f *testing.F) {
	data, _ := walTestBatches(f)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(data[:len(data)-1])
	f.Add([]byte{})
	f.Add([]byte("not a wal"))
	drain, err := appendWALRecord(nil, &walRecord{Kind: "drain", Cluster: "a"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(drain)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, consumed := decodeWALRecords(data)
		if consumed > len(data) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		d := bareDurability()
		for i := range recs {
			d.applyRecord(&recs[i])
		}
		d.fairness.Report()
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpora under
// testdata/fuzz from the real encoders. Gated behind an env var so a
// normal test run never rewrites repository files:
//
//	RLSCHED_WRITE_CORPUS=1 go test ./internal/serve/ -run TestWriteFuzzCorpus
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("RLSCHED_WRITE_CORPUS") == "" {
		t.Skip("set RLSCHED_WRITE_CORPUS=1 to regenerate the fuzz seed corpora")
	}
	write := func(target, name string, data []byte) {
		t.Helper()
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, _ := walTestBatches(t)
	write("FuzzWALReplay", "batch-stream", data)
	write("FuzzWALReplay", "torn-tail", data[:len(data)-7])
	drain, err := appendWALRecord(nil, &walRecord{Kind: "drain", Cluster: "a"})
	if err != nil {
		t.Fatal(err)
	}
	write("FuzzWALReplay", "drain-record", drain)

	d := bareDurability()
	seq := int64(1)
	if _, err := d.commit(&walRecord{Kind: "batch", Client: "c", Seq: &seq, Clusters: []walCluster{
		{Name: "a", Done: []wireDone{{UserID: 7, Wait: 9000, Run: 60}}},
	}}); err != nil {
		t.Fatal(err)
	}
	d.drained["b"] = true
	d.mu.Lock()
	snap, err := json.Marshal(d.snapshotLocked())
	d.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	write("FuzzSnapshotRestore", "live-snapshot", snap)
	write("FuzzSnapshotRestore", "empty-v1", []byte(`{"version":1}`))
	writePlacementFuzzCorpus(t)
}

// FuzzSnapshotRestore throws arbitrary bytes at the snapshot decoder:
// invalid payloads must error (never panic), and anything that decodes
// must import into a fresh tracker that stays usable.
func FuzzSnapshotRestore(f *testing.F) {
	d := bareDurability()
	seq := int64(1)
	if _, err := d.commit(&walRecord{Kind: "batch", Client: "c", Seq: &seq, Clusters: []walCluster{
		{Name: "a", Done: []wireDone{{UserID: 7, Wait: 9000, Run: 60}}},
		{Name: "b", Done: []wireDone{{UserID: 3, Wait: 12, Run: 600}}},
	}}); err != nil {
		f.Fatal(err)
	}
	d.drained["b"] = true
	d.mu.Lock()
	seed, err := json.Marshal(d.snapshotLocked())
	d.mu.Unlock()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte(`{"version":1,"users":[{"user_id":-1,"sum":1e308,"n":-3,"clusters":[{"cluster":"a"}]}]}`))
	f.Add([]byte("{"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		d := bareDurability()
		d.importSnapshot(snap)
		d.fairness.Report()
	})
}
