package serve

import (
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

// Wire format (the scanner's grammar, fastparse.go). A decision request is
// either one queue state
//
//	{"now": 0, "free_procs": 96, "total_procs": 128, "queue_len": 200,
//	 "scores": true, "jobs": [[-30, 3600, 4, 2, 7], ...]}
//
// with each job a compact row
//
//	[submit_time, requested_time, requested_procs, user_id?, id?]
//
// (what EncodeStates emits), or a batch {"states": [state, state, ...]}
// answered in order.

// rowJob converts a compact job row to a pending job (scheduling state
// cleared) — the single point all request paths (/v1/decide and /place)
// build jobs through. v holds the row over [5]float64{3: -1}, so a row
// without user_id reads -1 and one without id reads 0.
func rowJob(v *[5]float64) job.Job {
	return job.Job{ID: int(v[4]), SubmitTime: v[0], RequestedTime: v[1], RequestedProcs: int(v[2]),
		UserID: int(v[3]), StartTime: -1, EndTime: -1}
}

// wireDone is a completed-job record posted with /place cluster states to
// feed the daemon's per-user fairness tracker (fleet mode with a fairness
// weight): a compact [user_id, wait, run_time] row, in seconds. The daemon
// folds each record into the posting cluster's per-user bounded-slowdown
// share before scoring the request's job. The JSON tags are the WAL
// record's.
type wireDone struct {
	UserID int     `json:"user_id"`
	Wait   float64 `json:"wait"`
	Run    float64 `json:"run_time"`
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

	// The /place and /migrate body: the job; from, /migrate's alone, the
	// cluster whose queue holds it, posted as if the job were already
	// withdrawn; client and batchSeq, the optional dedup identity of the
	// completed-records batch — one whose seq is not above the client's
	// highest absorbed seq is acknowledged but not re-observed, so a client
	// can retry a /place without double-counting (durable.go); and posted
	// cluster i as its queue state, states[i], plus clusters[i].
	job          job.Job
	from, client string
	batchSeq     *int64
	clusters     []placeCluster
	done         []wireDone // backs the clusters' Completed slices

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

// reset empties the parsed form — what a parse starts from; body and resp
// are overwritten by their next user.
func (rb *reqBuf) reset() {
	rb.arena = rb.arena[:0]
	rb.jobPtr = rb.jobPtr[:0]
	rb.states = rb.states[:0]
	rb.stPtr = rb.stPtr[:0]
	rb.batch = false
	rb.job = rowJob(&[5]float64{3: -1})
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

// validate enforces the /v1/decide request invariants.
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

// EncodeStates renders queue states as a /v1/decide body.
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
