package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rlsched/internal/fleet"
)

// Durability layer for rlservd fleet mode (DESIGN.md §13). The fairness
// tracker is the daemon's only irreplaceable state: every other answer is
// recomputable from the request, but a user's share history exists nowhere
// else. With -checkpoint-dir set the daemon makes that state crash-proof
// with the classic snapshot + write-ahead-log pair:
//
//   - every acknowledged /place completion batch (and every /drain) is
//     appended to the current WAL segment and fsynced BEFORE it is folded
//     into the tracker — an acked batch is on disk by definition;
//   - every -checkpoint-interval the tracker is exported, written to a
//     temp file and atomically renamed over checkpoint.json; the WAL
//     rotates to a fresh segment first (opened before the old one closes,
//     so a failed open keeps journaling where it was), and the snapshot
//     names the first segment whose records it does NOT contain;
//   - on restart the snapshot is imported and the live segments are
//     replayed, restoring the tracker to the last acked batch the disk
//     retained in full. A torn final record (kill -9 mid-append) is
//     dropped by the codec, never half-applied.
//
// State has one transition, applyRecord: replay runs it per record, and a
// live commit is absorbed check → append → applyRecord under one mutex.
//
// The same struct owns the per-client batch_seq dedup table and the
// drained-shard set even when no directory is configured — exactly-once
// semantics against client retries do not require a disk.

// durableDeps are the server facilities durability needs, passed
// explicitly so tests can drive the layer without a full Server.
type durableDeps struct {
	// fairness is the tracker being made durable (never nil).
	fairness *fleet.FairnessScorer
	// clusterIndex resolves a cluster name to its shard index (-1 when
	// unknown — records for members that no longer exist are dropped).
	clusterIndex func(name string) int
	// clusterName is the inverse, for exporting per-cluster shares.
	clusterName func(idx int) string
	// markDrained applies a cordon to the serving state.
	markDrained func(idx int)
	// metrics counts WAL appends, checkpoints and deduplicated batches
	// (nil in unit tests).
	metrics *Metrics
}

// durability owns the WAL, the checkpoint loop, the dedup table and the
// drained set. Every commit (absorbed check, WAL append, applyRecord)
// happens under one mutex, so the WAL's record order IS the order the
// tracker observed — the invariant replay correctness rests on.
type durability struct {
	durableDeps
	dir      string
	interval time.Duration

	mu      sync.Mutex
	lastSeq map[string]int64
	drained map[string]bool
	wal     *os.File
	walBuf  []byte
	walErr  error // sticky: a failed append poisons the segment
	seg     uint64

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	ticking  bool
}

// snapshotFile is the checkpoint.json payload: the exported tracker (with
// per-cluster shares keyed by cluster NAME, so a restart under a changed
// shard topology keeps what still applies), the dedup table, the drained
// set, and the first WAL segment the snapshot does not cover.
type snapshotFile struct {
	Version  int              `json:"version"`
	FirstSeg uint64           `json:"first_seg"`
	Events   uint64           `json:"events"`
	GSum     float64          `json:"g_sum"`
	GN       float64          `json:"g_n"`
	Users    []snapUser       `json:"users,omitempty"`
	LastSeq  map[string]int64 `json:"last_seq,omitempty"`
	Drained  []string         `json:"drained,omitempty"`
}

// snapUser is one user's exported share in a snapshot.
type snapUser struct {
	UserID   int         `json:"user_id"`
	Sum      float64     `json:"sum"`
	N        float64     `json:"n"`
	Raw      int64       `json:"raw"`
	Clusters []snapShare `json:"clusters,omitempty"`
}

// snapShare is one user's share on one named cluster.
type snapShare struct {
	Cluster string  `json:"cluster"`
	Sum     float64 `json:"sum"`
	N       float64 `json:"n"`
}

const (
	snapshotName    = "checkpoint.json"
	snapshotVersion = 1
)

func segPath(dir string, seg uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", seg))
}

// newDurability builds the layer and, when dir is set, restores any
// previous state from it, opens a fresh WAL segment and starts the
// checkpoint ticker.
func newDurability(dir string, interval time.Duration, deps durableDeps) (*durability, error) {
	d := &durability{
		durableDeps: deps,
		dir:         dir,
		interval:    interval,
		lastSeq:     map[string]int64{},
		drained:     map[string]bool{},
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	if dir == "" {
		return d, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: checkpoint dir: %w", err)
	}
	if err := d.restore(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(segPath(dir, d.seg), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: open wal: %w", err)
	}
	d.wal = f
	if interval > 0 {
		d.ticking = true
		go func() {
			defer close(d.done)
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := d.checkpoint(); err != nil {
						fmt.Fprintf(os.Stderr, "rlservd: checkpoint: %v\n", err)
					}
				case <-d.stop:
					return
				}
			}
		}()
	}
	return d, nil
}

// decodeSnapshot parses and validates a checkpoint.json payload.
// Arbitrary input never panics (fuzzed by FuzzSnapshotRestore).
func decodeSnapshot(data []byte) (*snapshotFile, error) {
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("serve: snapshot decode: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("serve: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	return &snap, nil
}

// restore loads the snapshot (if any), prunes segments it already covers,
// and replays the rest through applyRecord. Called once, before
// the daemon serves, so no locking is needed yet.
func (d *durability) restore() error {
	data, err := os.ReadFile(filepath.Join(d.dir, snapshotName))
	switch {
	case os.IsNotExist(err):
		// Fresh directory: nothing to restore.
	case err != nil:
		return fmt.Errorf("serve: read snapshot: %w", err)
	default:
		snap, err := decodeSnapshot(data)
		if err != nil {
			// A snapshot is renamed into place atomically; failing to parse
			// one means real corruption. Refuse to start rather than
			// silently discard every user's history.
			return err
		}
		d.importSnapshot(snap)
	}

	segs, err := filepath.Glob(filepath.Join(d.dir, "wal-*.log"))
	if err != nil {
		return err
	}
	sort.Strings(segs) // zero-padded names: lexicographic == numeric
	maxSeen := d.seg
	for _, path := range segs {
		var n uint64
		if _, err := fmt.Sscanf(filepath.Base(path), "wal-%d.log", &n); err != nil {
			continue
		}
		if n < d.seg {
			// Covered by the snapshot; left over from a crash between the
			// snapshot rename and the old-segment cleanup.
			os.Remove(path)
			continue
		}
		if n > maxSeen {
			maxSeen = n
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("serve: read wal segment: %w", err)
		}
		recs, consumed := decodeWALRecords(raw)
		if consumed < len(raw) {
			fmt.Fprintf(os.Stderr, "rlservd: wal %s: dropped torn tail (%d of %d bytes)\n",
				filepath.Base(path), len(raw)-consumed, len(raw))
		}
		for i := range recs {
			d.applyRecord(&recs[i])
		}
	}
	// Appending to a segment with a torn tail would strand every later
	// record behind undecodable bytes, so new writes always open the next
	// fresh segment.
	d.seg = maxSeen + 1
	return nil
}

// importSnapshot loads a decoded snapshot into the tracker, the dedup
// table and the drained set. Cluster shares whose name no longer resolves
// are dropped; the user's fleet-wide record is kept either way.
func (d *durability) importSnapshot(snap *snapshotFile) {
	st := fleet.FairnessState{Events: snap.Events, GSum: snap.GSum, GN: snap.GN}
	for _, su := range snap.Users {
		us := fleet.UserShareState{UserID: su.UserID, Sum: su.Sum, N: su.N, Raw: su.Raw}
		for _, cs := range su.Clusters {
			if idx := d.clusterIndex(cs.Cluster); idx >= 0 {
				us.Clusters = append(us.Clusters, fleet.ClusterShareState{Cluster: idx, Sum: cs.Sum, N: cs.N})
			}
		}
		st.Users = append(st.Users, us)
	}
	d.fairness.ImportState(st)
	for c, seq := range snap.LastSeq {
		d.lastSeq[c] = seq
	}
	for _, name := range snap.Drained {
		d.drained[name] = true
		// The snapshot's tracker state already reflects the retirement;
		// only the serving-side cordon needs re-applying.
		if idx := d.clusterIndex(name); idx >= 0 && d.markDrained != nil {
			d.markDrained(idx)
		}
	}
	d.seg = snap.FirstSeg
}

// absorbed reports whether rec is already part of the state: a batch whose
// batch_seq is not above its client's last, or a drain of a drained cluster.
func (d *durability) absorbed(rec *walRecord) bool {
	if rec.Kind == "drain" {
		return d.drained[rec.Cluster]
	}
	last, ok := d.lastSeq[rec.Client]
	return rec.Client != "" && rec.Seq != nil && ok && *rec.Seq <= last
}

// applyRecord is the one state transition. It returns false, changing
// nothing, when rec is already absorbed; otherwise it folds the batch, or
// cordons and retires the drained cluster. Fragments no live request could
// carry — unknown clusters, negative wait/run — are skipped.
func (d *durability) applyRecord(rec *walRecord) bool {
	if d.absorbed(rec) {
		return false
	}
	switch rec.Kind {
	case "batch":
		if rec.Client != "" && rec.Seq != nil {
			d.lastSeq[rec.Client] = *rec.Seq
		}
		for _, wc := range rec.Clusters {
			idx := d.clusterIndex(wc.Name)
			if idx < 0 {
				continue
			}
			for i := range wc.Done {
				if wd := &wc.Done[i]; wd.Wait >= 0 && wd.Run >= 0 {
					dj := wd.toJob()
					d.fairness.Observe(idx, &dj)
				}
			}
		}
	case "drain":
		d.drained[rec.Cluster] = true
		if idx := d.clusterIndex(rec.Cluster); idx >= 0 {
			if d.markDrained != nil {
				d.markDrained(idx)
			}
			d.fairness.RetireCluster(idx)
		}
	}
	return true
}

// commit journals one live record and applies it; applied=false, with no
// write, when it is already absorbed (a client retry, a repeated drain). A
// batch with neither completions nor a seq has nothing to journal.
func (d *durability) commit(rec *walRecord) (applied bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.absorbed(rec) {
		if rec.Kind == "batch" && d.metrics != nil {
			d.metrics.PlaceDedupTotal.Add(1)
		}
		return false, nil
	}
	if rec.Kind != "batch" || len(rec.Clusters) > 0 || rec.Seq != nil {
		if err := d.appendLocked(rec); err != nil {
			return false, err
		}
	}
	return d.applyRecord(rec), nil
}

// appendLocked encodes rec onto the current segment and fsyncs it — the
// ack barrier. A failed append poisons the segment (walErr is sticky): a
// partial record on disk would strand anything written after it, so the
// daemon stops acking batches instead of silently dropping them.
func (d *durability) appendLocked(rec *walRecord) error {
	if d.wal == nil {
		return nil
	}
	if d.walErr != nil {
		return d.walErr
	}
	buf, err := appendWALRecord(d.walBuf[:0], rec)
	if err != nil {
		return err
	}
	d.walBuf = buf[:0]
	if _, err := d.wal.Write(buf); err != nil {
		d.walErr = fmt.Errorf("serve: wal append: %w", err)
		return d.walErr
	}
	if err := d.wal.Sync(); err != nil {
		d.walErr = fmt.Errorf("serve: wal sync: %w", err)
		return d.walErr
	}
	if d.metrics != nil {
		d.metrics.WALRecordsTotal.Add(1)
	}
	return nil
}

// walHealth reports the sticky append failure poisoning the current WAL
// segment (nil when healthy); the next checkpoint's fresh segment clears it.
func (d *durability) walHealth() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.walErr
}

// snapshotLocked exports the current durable state. Callers hold d.mu, so
// the export is consistent with the WAL rotation around it.
func (d *durability) snapshotLocked() *snapshotFile {
	st := d.fairness.ExportState()
	snap := &snapshotFile{
		Version:  snapshotVersion,
		FirstSeg: d.seg,
		Events:   st.Events,
		GSum:     st.GSum,
		GN:       st.GN,
	}
	for _, us := range st.Users {
		su := snapUser{UserID: us.UserID, Sum: us.Sum, N: us.N, Raw: us.Raw}
		for _, cs := range us.Clusters {
			if name := d.clusterName(cs.Cluster); name != "" {
				su.Clusters = append(su.Clusters, snapShare{Cluster: name, Sum: cs.Sum, N: cs.N})
			}
		}
		snap.Users = append(snap.Users, su)
	}
	if len(d.lastSeq) > 0 {
		snap.LastSeq = make(map[string]int64, len(d.lastSeq))
		for c, s := range d.lastSeq {
			snap.LastSeq[c] = s
		}
	}
	for name := range d.drained {
		snap.Drained = append(snap.Drained, name)
	}
	sort.Strings(snap.Drained)
	return snap
}

// checkpoint writes one atomic snapshot: rotate the WAL to a fresh
// segment (a failed open leaves the current one in use), export the
// tracker (which by the commit ordering contains every record of the
// closed segments), write-temp-then-rename the snapshot, and only then
// delete the segments it covers. A crash at ANY point leaves a directory
// that restores to the same state: before the rename the old snapshot plus
// all segments replay everything; after it, stale segments below FirstSeg
// are ignored and cleaned up on restore.
func (d *durability) checkpoint() error {
	if d.dir == "" {
		return nil
	}
	d.mu.Lock()
	f, err := os.OpenFile(segPath(d.dir, d.seg+1), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		d.mu.Unlock()
		return fmt.Errorf("serve: rotate wal: %w", err)
	}
	if d.wal != nil {
		d.wal.Close()
	}
	d.seg++
	d.wal, d.walErr = f, nil
	snap := d.snapshotLocked()
	d.mu.Unlock()

	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("serve: snapshot encode: %w", err)
	}
	tmp := filepath.Join(d.dir, snapshotName+".tmp")
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := tf.Write(append(data, '\n')); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, snapshotName)); err != nil {
		return err
	}
	// Old segments are now redundant; trailing garbage from a crash here
	// is swept by the next restore.
	for seg := snap.FirstSeg; seg > 0; seg-- {
		if err := os.Remove(segPath(d.dir, seg-1)); err != nil {
			break // contiguous from FirstSeg-1 down; first miss ends the run
		}
	}
	if d.metrics != nil {
		d.metrics.CheckpointsTotal.Add(1)
	}
	return nil
}

// close stops the checkpoint ticker, writes a final snapshot (a graceful
// shutdown restores without replay) and releases the WAL.
func (d *durability) close() {
	d.stopOnce.Do(func() { close(d.stop) })
	if d.ticking {
		<-d.done
	}
	if d.dir != "" {
		if err := d.checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "rlservd: final checkpoint: %v\n", err)
		}
	}
	d.mu.Lock()
	if d.wal != nil {
		d.wal.Close()
		d.wal = nil
	}
	d.mu.Unlock()
}
