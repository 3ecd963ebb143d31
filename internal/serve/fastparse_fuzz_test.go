package serve

import (
	"fmt"
	"reflect"
	"testing"
)

// FuzzParseRequest is the differential harness for the scanner on
// /v1/decide bodies: on any input, neither parse tier may panic, whatever
// the scanner accepts encoding/json must accept too (so a body is never
// answered by one tier and refused by the other), and the two must then
// produce identical states. The seed corpus is checked in under
// testdata/fuzz and CI runs this target as a short smoke.
func FuzzParseRequest(f *testing.F) {
	seeds := []string{
		`{"now":0,"free_procs":96,"total_procs":128,"jobs":[[0,3600,4],[5,60,2,7],[9,30,1,2,11]]}`,
		`{"states":[{"now":1,"free_procs":8,"total_procs":8,"jobs":[[0,10,1]]},{"jobs":[[0,20,2]],"total_procs":16,"free_procs":0}]}`,
		`{"jobs":[],"total_procs":4,"free_procs":4}`,
		`{"now":-30.5,"queue_len":200,"scores":true,"total_procs":64,"free_procs":1,"jobs":[[-100,1e3,4]]}`,
		`{"jobs":[{"id":7,"submit_time":-30,"requested_time":3600,"requested_procs":4,"user_id":2}],"total_procs":128,"free_procs":96}`,
		`{"states":[]}`,
		`{}`,
		`{"now":}`,
		` { "now" : 5 , "jobs" : [ [ 1 , 2 , 3 ] ] , "total_procs" : 9 , "free_procs" : 2 } `,
		`[1,2,3]`,
		`garbage`,
		``,
		`{"free_procs":1.5,"total_procs":8,"jobs":[[0,60,2]]}`,
		`{"free_procs":1,"total_procs":1e30,"jobs":[[0,60,2]]}`,
		`{"now":+5,"free_procs":01,"total_procs":8,"jobs":[[.5,1.,1]]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fast := &reqBuf{}
		fastErr := fast.parseFast(data)
		slow := &reqBuf{}
		slowErr := slow.parseSlow(data)
		if fastErr != nil {
			return
		}
		if slowErr != nil {
			t.Fatalf("scanner accepted what encoding/json rejects: %v", slowErr)
		}
		if fast.batch != slow.batch {
			t.Fatalf("batch flag diverges: fast %v, slow %v", fast.batch, slow.batch)
		}
		diffStates(t, fast, slow)
	})
}

// diffStates fails unless two parsed forms hold the same states and jobs.
func diffStates(t *testing.T, fast, slow *reqBuf) {
	t.Helper()
	if len(fast.states) != len(slow.states) {
		t.Fatalf("state count diverges: fast %d, slow %d", len(fast.states), len(slow.states))
	}
	for i := range fast.states {
		fs, ss := &fast.states[i], &slow.states[i]
		if fs.Now != ss.Now || fs.View != ss.View || fs.QueueLen != ss.QueueLen || fs.WantScores != ss.WantScores {
			t.Fatalf("state %d header diverges: fast %+v, slow %+v", i, fs, ss)
		}
		if !reflect.DeepEqual(fs.Jobs, ss.Jobs) && len(fs.Jobs)+len(ss.Jobs) > 0 {
			t.Fatalf("state %d jobs diverge: fast %d, slow %d", i, len(fs.Jobs), len(ss.Jobs))
		}
	}
}

// benchShapedPlaceBody is a /place body the way bench/serving.go builds
// them: EncodeStates output per cluster with the name in front and
// completed rows behind (plus a running_work), the dedup identity leading. seed picks the queue
// states, and is the batch_seq and the job's user.
func benchShapedPlaceBody(t testing.TB, clusters, jobs int, seed int64) []byte {
	t.Helper()
	states, err := SyntheticStates("Lublin-1", clusters, jobs, seed)
	if err != nil {
		t.Fatal(err)
	}
	b := []byte(fmt.Sprintf(`{"client":"c0","batch_seq":%d,"job":[0,600,4,%d],"clusters":[`, seed, seed))
	for c, st := range states {
		st.Now += 7.5 * float64(c)
		st.View = ClusterViewOf(st.View.FreeProcs%65, 64)
		for _, j := range st.Jobs {
			j.RequestedProcs = min(j.RequestedProcs, 64)
		}
		enc := EncodeStates([]*QueueState{st})
		if c > 0 {
			b = append(b, ',')
		}
		b = append(b, fmt.Sprintf(`{"name":"s%d","running_work":%g,`, c, float64(c)*100.5)...)
		b = append(b, enc[1:len(enc)-1]...)
		b = append(b, fmt.Sprintf(`,"completed":[[%d,30,600],[%d,0,7200]]}`, c, c+20)...)
	}
	return append(b, `]}`...)
}

// FuzzPlaceParse is FuzzParseRequest for /place and /migrate bodies:
// whatever the scanner accepts, encoding/json accepts, with the same job,
// from, client and batch_seq, and per cluster the same name, header,
// running_work, job rows and completed rows.
func FuzzPlaceParse(f *testing.F) {
	for _, seed := range placementFuzzSeeds() {
		f.Add(seed)
	}
	f.Add(benchShapedPlaceBody(f, 8, 128, 17))
	f.Fuzz(func(t *testing.T, data []byte) {
		fast, slow := &reqBuf{}, &reqBuf{}
		fast.reset()
		slow.reset()
		slowErr := slow.parsePlaceSlow(data)
		if fast.parsePlaceFast(data) != nil {
			return
		}
		if slowErr != nil {
			t.Fatalf("scanner accepted what encoding/json rejects: %v", slowErr)
		}
		if !reflect.DeepEqual(fast.job, slow.job) || fast.from != slow.from || fast.client != slow.client {
			t.Fatalf("job/from/client diverge:\nfast %+v %q %q\nslow %+v %q %q",
				fast.job, fast.from, fast.client, slow.job, slow.from, slow.client)
		}
		if (fast.batchSeq == nil) != (slow.batchSeq == nil) || fast.batchSeq != nil && *fast.batchSeq != *slow.batchSeq {
			t.Fatalf("batch_seq diverges")
		}
		diffStates(t, fast, slow)
		if len(fast.clusters) != len(fast.states) || len(slow.clusters) != len(slow.states) {
			t.Fatalf("clusters and states out of step: fast %d/%d, slow %d/%d",
				len(fast.clusters), len(fast.states), len(slow.clusters), len(slow.states))
		}
		for i, fc := range fast.clusters {
			sc := slow.clusters[i]
			if fc.Name != sc.Name || fc.RunningWork != sc.RunningWork {
				t.Fatalf("cluster %d diverges: fast %+v, slow %+v", i, fc, sc)
			}
			if !reflect.DeepEqual(fc.Completed, sc.Completed) && len(fc.Completed)+len(sc.Completed) > 0 {
				t.Fatalf("cluster %d completed rows diverge:\nfast %+v\nslow %+v", i, fc.Completed, sc.Completed)
			}
		}
	})
}
