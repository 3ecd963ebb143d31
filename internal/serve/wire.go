package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"

	"rlsched/internal/fleet"
	"rlsched/internal/job"
	"rlsched/internal/sim"
	"rlsched/internal/trace"
)

// Wire format. A decision request is either one queue state
//
//	{"now": 0, "free_procs": 96, "total_procs": 128, "queue_len": 200,
//	 "scores": true,
//	 "jobs": [{"id": 7, "submit_time": -30, "requested_time": 3600,
//	           "requested_procs": 4, "user_id": 2}, ...]}
//
// or a batch {"states": [state, state, ...]} answered in order. Job rows
// may equivalently be compact arrays
//
//	[submit_time, requested_time, requested_procs, user_id?, id?]
//
// which is what EncodeStates emits. Every body meets the scanner
// (fastparse.go) first and encoding/json only if that bails, so every valid
// JSON request is accepted either way.

// wireJob decodes a job from either object or compact-array form.
type wireJob struct {
	ID       int     `json:"id"`
	Submit   float64 `json:"submit_time"`
	ReqTime  float64 `json:"requested_time"`
	ReqProcs int     `json:"requested_procs"`
	UserID   int     `json:"user_id"`
}

// unmarshalRowOr is the decoder wireJob and wireDone share. b is a compact
// row of numbers for w.fromRow — read by the scanner's row(), and by
// json.Unmarshal only if that bails (a null element, say) — or else an
// object for obj, a method-free twin of w's type.
func unmarshalRowOr(b []byte, w interface{ fromRow(*[5]float64, int) bool }, obj any, want string) error {
	p := fastParser{b: b}
	if p.ws(); p.i == len(b) || b[p.i] != '[' {
		return json.Unmarshal(b, obj)
	}
	var vals [5]float64
	n, ok := p.row(&vals)
	if !ok || !p.end() {
		var row []float64
		if err := json.Unmarshal(b, &row); err != nil {
			return err
		}
		n = len(row)
		copy(vals[:], row)
	}
	if !w.fromRow(&vals, n) {
		return fmt.Errorf("serve: compact %s values, got %d", want, n)
	}
	return nil
}

// UnmarshalJSON accepts {"submit_time": ...} objects and
// [submit, req_time, procs, user?, id?] arrays.
func (w *wireJob) UnmarshalJSON(b []byte) error {
	type object wireJob
	*w = wireJob{UserID: -1}
	return unmarshalRowOr(b, w, (*object)(w), "job row wants 3-5")
}

// fromRow fills w from a compact row of n values and reports whether n is
// a legal length.
func (w *wireJob) fromRow(v *[5]float64, n int) bool {
	if n < 3 || n > len(v) {
		return false
	}
	*w = wireJob{Submit: v[0], ReqTime: v[1], ReqProcs: int(v[2]), UserID: -1}
	if n > 3 {
		w.UserID = int(v[3])
	}
	if n > 4 {
		w.ID = int(v[4])
	}
	return true
}

// toJob converts the wire form to a pending job (scheduling state
// cleared) — the single point all request paths (/v1/decide and /place)
// build jobs through.
func (w *wireJob) toJob() job.Job {
	return job.Job{
		ID:             w.ID,
		SubmitTime:     w.Submit,
		RequestedTime:  w.ReqTime,
		RequestedProcs: w.ReqProcs,
		UserID:         w.UserID,
		StartTime:      -1,
		EndTime:        -1,
	}
}

// wireDone is a completed-job record posted with /place cluster states to
// feed the daemon's per-user fairness tracker (fleet mode with a fairness
// weight): either {"user_id": u, "wait": w, "run_time": r} or a compact
// [user, wait, run] array, both in seconds. The daemon folds each record
// into the posting cluster's per-user bounded-slowdown share before
// scoring the request's job.
type wireDone struct {
	UserID int     `json:"user_id"`
	Wait   float64 `json:"wait"`
	Run    float64 `json:"run_time"`
}

// UnmarshalJSON accepts {"user_id": ...} objects and [user, wait, run]
// arrays.
func (w *wireDone) UnmarshalJSON(b []byte) error {
	type object wireDone
	*w = wireDone{UserID: -1}
	return unmarshalRowOr(b, w, (*object)(w), "completed row wants 3")
}

// fromRow is wireJob.fromRow for a completed row.
func (w *wireDone) fromRow(v *[5]float64, n int) bool {
	*w = wireDone{UserID: int(v[0]), Wait: v[1], Run: v[2]}
	return n == 3
}

// toJob converts the record into a finished job the fairness tracker can
// observe: submitted at 0, started after Wait, ran for Run.
func (w *wireDone) toJob() job.Job {
	return job.Job{
		UserID:    w.UserID,
		RunTime:   w.Run,
		StartTime: w.Wait,
		EndTime:   w.Wait + w.Run,
	}
}

// wireState is one queue state on the wire.
type wireState struct {
	Now        float64   `json:"now"`
	FreeProcs  int       `json:"free_procs"`
	TotalProcs int       `json:"total_procs"`
	QueueLen   int       `json:"queue_len"`
	Scores     bool      `json:"scores"`
	Jobs       []wireJob `json:"jobs"`
}

// wireRequest is the full request: inline single state or a batch.
type wireRequest struct {
	wireState
	States []wireState `json:"states"`
}

// reqBuf holds every allocation a request needs; pooled across requests.
// Job pointers handed to engines and candidates index into the arena, and
// the WAL batch into done, so a reqBuf goes back to the pool only when its
// handler returns, and nothing that outlives the handler may keep a pointer
// into it (the decision ring and the decision cache copy what they keep).
type reqBuf struct {
	body   []byte
	resp   []byte
	arena  []job.Job
	jobPtr []*job.Job // &arena[i]; each state's Jobs is a run of it
	states []QueueState
	stPtr  []*QueueState // &states[i]
	batch  bool          // request used the states form

	// The /place and /migrate body: the job, the dedup identity, and posted
	// cluster i as its queue state, states[i], plus clusters[i]'s Name,
	// RunningWork and Completed (wireState there is the fallback's scratch).
	job          job.Job
	from, client string
	batchSeq     *int64
	clusters     []placeCluster
	done         []wireDone // backs the scanner's Completed slices

	// Handler scratch of the placement endpoints.
	seen   []uint64 // bitset over shard indices
	cands  []*fleet.Candidate
	scores []float64
	wcs    []walCluster
}

var reqBufPool = sync.Pool{New: func() interface{} {
	return &reqBuf{
		body:  make([]byte, 0, 16<<10),
		resp:  make([]byte, 0, 1<<10),
		arena: make([]job.Job, 0, 512),
	}
}}

// reset empties the parsed form — what a parse tier starts from; body and
// resp are overwritten by their next user.
func (rb *reqBuf) reset() {
	rb.arena = rb.arena[:0]
	rb.jobPtr = rb.jobPtr[:0]
	rb.states = rb.states[:0]
	rb.stPtr = rb.stPtr[:0]
	rb.batch = false
	rb.job = (&wireJob{UserID: -1}).toJob()
	rb.from, rb.client, rb.batchSeq = "", "", nil
	rb.clusters = rb.clusters[:0]
	rb.done = rb.done[:0]
}

// addJob appends one parsed job, addState the state it belongs to. When a
// later append regrows arena, jobPtr or states, earlier pointers and slices
// stay on the old array, which nothing writes again, so they remain valid
// for the rest of the request.
func (rb *reqBuf) addJob(j job.Job) {
	rb.arena = append(rb.arena, j)
	rb.jobPtr = append(rb.jobPtr, &rb.arena[len(rb.arena)-1])
}

// addState appends a parsed state whose jobs are jobPtr[base:].
func (rb *reqBuf) addState(st QueueState, base int) {
	st.Jobs = rb.jobPtr[base:len(rb.jobPtr):len(rb.jobPtr)]
	rb.states = append(rb.states, st)
	rb.stPtr = append(rb.stPtr, &rb.states[len(rb.states)-1])
}

// parseSlow is the encoding/json catch-all of /v1/decide, run on a body
// parseFast bailed on. It accepts every valid JSON request; the scanner
// accepts a subset and must agree with this path on it (pinned by the
// FuzzParseRequest differential).
func (rb *reqBuf) parseSlow(body []byte) error {
	var req wireRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	rb.batch = len(req.States) > 0
	if !rb.batch {
		rb.addWireState(&req.wireState)
		return nil
	}
	for i := range req.States {
		rb.addWireState(&req.States[i])
	}
	return nil
}

// parsePlaceSlow is parseSlow for /place and /migrate: json.Unmarshal into
// a placeRequest, copied into the form parsePlaceFast lands in.
func (rb *reqBuf) parsePlaceSlow(body []byte) error {
	var req placeRequest
	req.Job.UserID = -1
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	rb.job, rb.from, rb.client, rb.batchSeq = req.Job.toJob(), req.From, req.Client, req.BatchSeq
	rb.clusters = req.Clusters
	for i := range req.Clusters {
		rb.addWireState(&req.Clusters[i].wireState)
	}
	return nil
}

func (rb *reqBuf) addWireState(ws *wireState) {
	base := len(rb.jobPtr)
	for i := range ws.Jobs {
		rb.addJob(ws.Jobs[i].toJob())
	}
	rb.addState(QueueState{
		Now:        ws.Now,
		View:       sim.ClusterView{FreeProcs: ws.FreeProcs, TotalProcs: ws.TotalProcs},
		QueueLen:   ws.QueueLen,
		WantScores: ws.Scores,
	}, base)
}

// validate enforces the request invariants shared by both parse paths.
func (rb *reqBuf) validate() error {
	if len(rb.states) == 0 {
		return fmt.Errorf("serve: request has no states")
	}
	for i := range rb.states {
		st := &rb.states[i]
		if len(st.Jobs) == 0 {
			return fmt.Errorf("serve: state %d has no jobs", i)
		}
		if st.View.TotalProcs <= 0 {
			return fmt.Errorf("serve: state %d needs a positive total_procs", i)
		}
		if st.View.FreeProcs < 0 || st.View.FreeProcs > st.View.TotalProcs {
			return fmt.Errorf("serve: state %d free_procs out of range", i)
		}
		for k, jb := range st.Jobs {
			if jb.RequestedProcs <= 0 || jb.RequestedTime <= 0 {
				return fmt.Errorf("serve: state %d job %d needs positive requested_time and requested_procs", i, k)
			}
		}
	}
	return nil
}

// appendResponse builds the JSON response. Single-state requests answer
// {"pick": i, "job_id": id, "policy": name}; batches answer
// {"picks": [...], "policy": name}. Scores ride along when asked for.
func (rb *reqBuf) appendResponse(dst []byte, decs []Decision, policy string) []byte {
	dst = append(dst, '{')
	if !rb.batch {
		d := decs[0]
		dst = appendInt(dst, `"pick":`, d.Pick)
		if id := rb.states[0].Jobs[d.Pick].ID; id != 0 {
			dst = appendInt(dst, `,"job_id":`, id)
		}
		if d.Scores != nil {
			dst = append(dst, `,"scores":`...)
			dst = appendFloats(dst, d.Scores)
		}
	} else {
		dst = append(dst, `"picks":[`...)
		for i, d := range decs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(d.Pick), 10)
		}
		dst = append(dst, ']')
		if anyScores(decs) {
			dst = append(dst, `,"scores":[`...)
			for i, d := range decs {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = appendFloats(dst, d.Scores)
			}
			dst = append(dst, ']')
		}
	}
	return append(appendStr(dst, `,"policy":`, policy), '}', '\n')
}

// appendStr, appendInt and appendNum append one response field: key, a
// literal like `,"shard":`, then the value.
func appendStr(b []byte, key, v string) []byte { return strconv.AppendQuote(append(b, key...), v) }
func appendInt(b []byte, key string, v int) []byte {
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}
func appendNum(b []byte, key string, v float64) []byte {
	return strconv.AppendFloat(append(b, key...), v, 'g', 6, 64)
}

func anyScores(decs []Decision) bool {
	for _, d := range decs {
		if d.Scores != nil {
			return true
		}
	}
	return false
}

func appendFloats(dst []byte, vs []float64) []byte {
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, v, 'g', 6, 64)
	}
	return append(dst, ']')
}

// EncodeStates renders queue states in the canonical compact wire format
// the daemon's fast parser consumes.
func EncodeStates(states []*QueueState) []byte {
	var b []byte
	if len(states) == 1 {
		return appendState(b, states[0])
	}
	b = append(b, `{"states":[`...)
	for i, st := range states {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendState(b, st)
	}
	return append(b, ']', '}')
}

func appendState(b []byte, st *QueueState) []byte {
	b = append(b, `{"now":`...)
	b = strconv.AppendFloat(b, st.Now, 'g', -1, 64)
	b = append(b, `,"free_procs":`...)
	b = strconv.AppendInt(b, int64(st.View.FreeProcs), 10)
	b = append(b, `,"total_procs":`...)
	b = strconv.AppendInt(b, int64(st.View.TotalProcs), 10)
	if st.QueueLen > 0 {
		b = append(b, `,"queue_len":`...)
		b = strconv.AppendInt(b, int64(st.QueueLen), 10)
	}
	if st.WantScores {
		b = append(b, `,"scores":true`...)
	}
	b = append(b, `,"jobs":[`...)
	for i, j := range st.Jobs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendFloat(b, j.SubmitTime, 'g', -1, 64)
		b = append(b, ',')
		b = strconv.AppendFloat(b, j.RequestedTime, 'g', -1, 64)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(j.RequestedProcs), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(j.UserID), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(j.ID), 10)
		b = append(b, ']')
	}
	return append(b, ']', '}')
}

// fillState populates st with a synthetic queue state sampled into the
// caller's job buffer: clamped to the cluster so states stay schedulable,
// and times rounded to whole seconds (SWF precision) — shorter wire
// numbers parse measurably faster at 10k states/sec.
func fillState(st *QueueState, tr *trace.Trace, rng *rand.Rand, jobs []*job.Job, queueJobs int) {
	jobs = tr.SampleQueueInto(rng, jobs)
	for _, j := range jobs {
		if j.RequestedProcs > tr.Processors {
			j.RequestedProcs = tr.Processors
		}
		j.SubmitTime = math.Round(j.SubmitTime)
		j.RequestedTime = math.Max(1, math.Round(j.RequestedTime))
	}
	st.Jobs = jobs
	st.Now = 0
	st.View = ClusterViewOf(rng.Intn(tr.Processors+1), tr.Processors)
	st.QueueLen = queueJobs + rng.Intn(queueJobs)
}

// SyntheticStates samples n queue states of queueJobs pending jobs each
// from the preset trace, with a plausible cluster view: free processors
// drawn uniformly and now = 0 (job submit times are in the past).
func SyntheticStates(preset string, n, queueJobs int, seed int64) ([]*QueueState, error) {
	tr := trace.Preset(preset, 4*queueJobs+n, seed)
	if tr == nil {
		return nil, fmt.Errorf("serve: unknown preset %q", preset)
	}
	rng := rand.New(rand.NewSource(seed))
	states := make([]*QueueState, n)
	for i := range states {
		states[i] = &QueueState{}
		fillState(states[i], tr, rng, make([]*job.Job, queueJobs), queueJobs)
	}
	return states, nil
}

// ClusterViewOf is a tiny helper for tests constructing states.
func ClusterViewOf(free, total int) sim.ClusterView {
	return sim.ClusterView{FreeProcs: free, TotalProcs: total}
}
