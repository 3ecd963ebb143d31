package serve

import (
	"math/rand"
	"strconv"
	"testing"

	"rlsched/internal/fleet"
)

// BenchmarkAppendWALRecord weighs the WAL's json.Marshal against the ack
// barrier it sits on: one place_durable-shaped batch record (8 clusters ×
// 2 completed rows) encoded alone, then encoded, appended and fsynced to
// a segment in a temp directory.
//
//	go test ./internal/serve -run NONE -bench AppendWALRecord
func BenchmarkAppendWALRecord(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	seq := int64(123456)
	rec := walRecord{Kind: "batch", Client: "c0", Seq: &seq}
	for c := 0; c < 8; c++ {
		wc := walCluster{Name: "s" + strconv.Itoa(c)}
		for k := 0; k < 2; k++ {
			wc.Done = append(wc.Done, wireDone{UserID: rng.Intn(50),
				Wait: float64(rng.Intn(3600)), Run: float64(1 + rng.Intn(7200))})
		}
		rec.Clusters = append(rec.Clusters, wc)
	}
	buf, err := appendWALRecord(nil, &rec)
	if err != nil {
		b.Fatal(err)
	}
	size := int64(len(buf))

	b.Run("encode", func(b *testing.B) {
		b.SetBytes(size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = appendWALRecord(buf[:0], &rec)
		}
	})
	b.Run("encode+append+fsync", func(b *testing.B) {
		bare := bareDurability()
		d, err := newDurability(b.TempDir(), 0, durableDeps{
			fairness:     fleet.NewFairnessScorer(fleet.FairnessConfig{}),
			clusterIndex: bare.clusterIndex,
			clusterName:  bare.clusterName,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer d.close()
		b.SetBytes(size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.mu.Lock()
			err := d.appendLocked(&rec)
			d.mu.Unlock()
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
