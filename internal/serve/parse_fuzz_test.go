package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// jsonState, jsonDecide and jsonPlace read the wire format the way
// encoding/json does, rows as plain number arrays: the reference decoder
// the scanner is fuzzed against.
type jsonState struct {
	Now         float64     `json:"now"`
	FreeProcs   int         `json:"free_procs"`
	TotalProcs  int         `json:"total_procs"`
	QueueLen    int         `json:"queue_len"`
	Scores      bool        `json:"scores"`
	Jobs        [][]float64 `json:"jobs"`
	Name        string      `json:"name"`
	RunningWork float64     `json:"running_work"`
	Completed   [][]float64 `json:"completed"`
}

type jsonDecide struct {
	jsonState
	States []jsonState `json:"states"`
}

type jsonPlace struct {
	Job      []float64   `json:"job"`
	From     string      `json:"from"`
	Client   string      `json:"client"`
	BatchSeq *int64      `json:"batch_seq"`
	Clusters []jsonState `json:"clusters"`
}

// add appends js to rb's parsed form, as a /place cluster with cluster set.
func (js *jsonState) add(rb *reqBuf, cluster bool) {
	base := len(rb.jobPtr)
	for _, row := range js.Jobs {
		v := [5]float64{3: -1}
		copy(v[:], row)
		rb.addJob(rowJob(&v))
	}
	rb.addState(QueueState{Now: js.Now, View: ClusterViewOf(js.FreeProcs, js.TotalProcs),
		QueueLen: js.QueueLen, WantScores: js.Scores}, base)
	if cluster {
		cl := placeCluster{Name: js.Name, RunningWork: js.RunningWork}
		for _, row := range js.Completed {
			cl.Completed = append(cl.Completed, wireDone{UserID: int(row[0]), Wait: row[1], Run: row[2]})
		}
		rb.clusters = append(rb.clusters, cl)
	}
}

// refusal is the shape of every scanner error: a construct and its offset.
var refusal = regexp.MustCompile(`^[^\n]+ at byte \d+$`)

// scanOrReference runs the scanner over data and, if it accepts, the
// reference decoder too. ok is false when the scanner refuses, whose error
// must then name a construct and an offset.
func scanOrReference(t *testing.T, data []byte, scan func(*reqBuf, []byte) error, ref any) (got *reqBuf, ok bool) {
	t.Helper()
	got = &reqBuf{}
	got.reset()
	if err := scan(got, data); err != nil {
		if !refusal.MatchString(err.Error()) {
			t.Fatalf("refusal %q names no construct and offset", err)
		}
		return nil, false
	}
	if err := json.Unmarshal(data, ref); err != nil {
		t.Fatalf("scanner accepted what encoding/json rejects: %v", err)
	}
	return got, true
}

// FuzzParseRequest pins the scanner on /v1/decide bodies: whatever it
// accepts, encoding/json decodes to the same parsed form; whatever it
// refuses, it refuses naming a construct and an offset; and on any body
// the endpoint answers 200 or 4xx, never a panic or a 5xx. The seed corpus
// is checked in under testdata/fuzz and CI runs this target as a short
// smoke.
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
		`{"Jobs":[[0,60,2]],"total_procs":8,"free_procs":8,"queue_len":-1000}`,
		`{"now":null,"jobs":[[0,60,2]],"jobs":[[0,60,2]],"total_procs":8,"free_procs":8}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	srv, err := NewServer(Config{ModelPath: writeSnapshot(f, f.TempDir(), "kernel", 16)})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, data []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/decide", strings.NewReader(string(data))))
		if w.Code != http.StatusOK && (w.Code < 400 || w.Code >= 500) {
			t.Fatalf("/v1/decide answered %d: %s", w.Code, w.Body)
		}
		var ref jsonDecide
		got, ok := scanOrReference(t, data, (*reqBuf).parseDecide, &ref)
		if !ok {
			return
		}
		want := &reqBuf{}
		if want.batch = len(ref.States) > 0; !want.batch {
			ref.jsonState.add(want, false)
		}
		for i := range ref.States {
			ref.States[i].add(want, false)
		}
		if got.batch != want.batch {
			t.Fatalf("batch flag diverges: scanner %v, encoding/json %v", got.batch, want.batch)
		}
		diffStates(t, got, want)
	})
}

// diffStates fails unless two parsed forms hold the same states and jobs.
func diffStates(t *testing.T, got, want *reqBuf) {
	t.Helper()
	if len(got.states) != len(want.states) {
		t.Fatalf("state count diverges: scanner %d, encoding/json %d", len(got.states), len(want.states))
	}
	for i := range got.states {
		gs, ws := &got.states[i], &want.states[i]
		if gs.Now != ws.Now || gs.View != ws.View || gs.QueueLen != ws.QueueLen || gs.WantScores != ws.WantScores {
			t.Fatalf("state %d header diverges: scanner %+v, encoding/json %+v", i, gs, ws)
		}
		if !reflect.DeepEqual(gs.Jobs, ws.Jobs) && len(gs.Jobs)+len(ws.Jobs) > 0 {
			t.Fatalf("state %d jobs diverge: scanner %d, encoding/json %d", i, len(gs.Jobs), len(ws.Jobs))
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

// FuzzPlaceParse is FuzzParseRequest's parse property for /place and
// /migrate bodies: whatever the scanner accepts, encoding/json decodes to
// the same job, from, client and batch_seq, and per cluster the same name,
// header, running_work, job rows and completed rows. FuzzPlaceRequest and
// FuzzMigrateRequest hold their endpoints to 200 or 4xx.
func FuzzPlaceParse(f *testing.F) {
	for _, seed := range placementFuzzSeeds() {
		f.Add(seed)
	}
	f.Add(benchShapedPlaceBody(f, 8, 128, 17))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref jsonPlace
		got, ok := scanOrReference(t, data, (*reqBuf).parsePlace, &ref)
		if !ok {
			return
		}
		want := &reqBuf{}
		want.reset()
		v := [5]float64{3: -1}
		copy(v[:], ref.Job)
		want.job = rowJob(&v)
		want.from, want.client, want.batchSeq = ref.From, ref.Client, ref.BatchSeq
		for i := range ref.Clusters {
			ref.Clusters[i].add(want, true)
		}
		if !reflect.DeepEqual(got.job, want.job) || got.from != want.from || got.client != want.client {
			t.Fatalf("job/from/client diverge:\nscanner       %+v %q %q\nencoding/json %+v %q %q",
				got.job, got.from, got.client, want.job, want.from, want.client)
		}
		if (got.batchSeq == nil) != (want.batchSeq == nil) || got.batchSeq != nil && *got.batchSeq != *want.batchSeq {
			t.Fatalf("batch_seq diverges")
		}
		diffStates(t, got, want)
		if len(got.clusters) != len(got.states) {
			t.Fatalf("clusters and states out of step: %d/%d", len(got.clusters), len(got.states))
		}
		for i, gc := range got.clusters {
			wc := want.clusters[i]
			if gc.Name != wc.Name || gc.RunningWork != wc.RunningWork {
				t.Fatalf("cluster %d diverges: scanner %+v, encoding/json %+v", i, gc, wc)
			}
			if !reflect.DeepEqual(gc.Completed, wc.Completed) && len(gc.Completed)+len(wc.Completed) > 0 {
				t.Fatalf("cluster %d completed rows diverge:\nscanner       %+v\nencoding/json %+v", i, gc.Completed, wc.Completed)
			}
		}
	})
}
