package fleet

import (
	"fmt"
	"math"
	"sync"

	"rlsched/internal/job"
	"rlsched/internal/nn"
	"rlsched/internal/obs"
	"rlsched/internal/policy"
)

// The placement pipeline mirrors the two-phase predicate/priority split of
// cluster placement schedulers: Filter plugins knock out clusters that
// cannot take the job at all, then weighted Score plugins rank the
// survivors. Scores are min-max normalized to [0,1] per plugin across the
// feasible candidates before weighting, so a plugin's raw scale never
// drowns out the others; ties break toward the lowest candidate index, so
// a placement is deterministic for deterministic plugins.

// Filter is a predicate plugin: it reports whether the candidate cluster
// could feasibly run the job at all.
type Filter interface {
	Name() string
	Feasible(j *job.Job, c *Candidate) bool
}

// Scorer is a priority plugin: it scores the job against every candidate
// at once (higher is better, any scale — the pipeline normalizes).
// Batch-style scoring lets plugins that run a policy network score all
// clusters in one forward pass.
type Scorer interface {
	Name() string
	Score(j *job.Job, cands []*Candidate, out []float64)
}

// WeightedScorer attaches a pipeline weight to a Scorer.
type WeightedScorer struct {
	Scorer Scorer
	Weight float64
}

// Pipeline is a Router built from Filter and Score plugins. Placements
// are safe to run concurrently as long as every plugin is (all built-ins
// are): scratch buffers are pooled per call, never shared.
type Pipeline struct {
	name    string
	Filters []Filter
	Scorers []WeightedScorer

	pool sync.Pool // *pipelineScratch
}

type pipelineScratch struct {
	feasible []int
	cands    []*Candidate
	raw      []float64
	total    []float64
	// ident caches the ascending index sequence 0..n-1, handed out as the
	// feasible list when no candidate was filtered — the common case at
	// fleet scale, where writing a 10k-entry index list per placement is
	// pure waste. Callers must never append through it.
	ident []int
}

// identity returns the cached 0..n-1 index slice, growing it on demand.
func (sc *pipelineScratch) identity(n int) []int {
	for i := len(sc.ident); i < n; i++ {
		sc.ident = append(sc.ident, i)
	}
	return sc.ident[:n]
}

// NewPipeline assembles a placement pipeline.
func NewPipeline(name string, filters []Filter, scorers []WeightedScorer) *Pipeline {
	return &Pipeline{name: name, Filters: filters, Scorers: scorers}
}

// Name implements Router.
func (p *Pipeline) Name() string { return p.name }

// Place implements Router: filter, score, argmax.
func (p *Pipeline) Place(j *job.Job, cands []*Candidate) int {
	return p.PlaceScored(j, cands, nil)
}

// PlaceScored is Place that additionally reports the total weighted score
// per candidate into scores (len(cands); NaN marks filtered-out clusters).
// It returns -1 when no cluster is feasible.
func (p *Pipeline) PlaceScored(j *job.Job, cands []*Candidate, scores []float64) int {
	return p.place(j, cands, scores, nil)
}

// PlaceExplained is PlaceScored that additionally fills ex with the
// per-candidate evidence: every filter verdict, each score plugin's
// normalized contribution, the weighted totals and whether the winner was
// tie-broken. The decision itself is bit-identical to PlaceScored — the
// explain pass only observes values the scoring pass computes anyway.
func (p *Pipeline) PlaceExplained(j *job.Job, cands []*Candidate, scores []float64, ex *obs.Explain) int {
	return p.place(j, cands, scores, ex)
}

// Feasible reports whether any candidate passes every filter — exactly the
// condition under which Place returns a pick rather than -1. Callers with
// side effects to commit before placing (the serving daemon folds posted
// completions first) use it to reject an unplaceable job up front.
func (p *Pipeline) Feasible(j *job.Job, cands []*Candidate) bool {
	sc, _ := p.pool.Get().(*pipelineScratch)
	if sc == nil {
		sc = &pipelineScratch{}
	}
	defer p.pool.Put(sc)
	return len(p.filterPass(j, cands, sc, nil)) > 0
}

// place is the shared placement pass; ex == nil skips all tracing.
func (p *Pipeline) place(j *job.Job, cands []*Candidate, scores []float64, ex *obs.Explain) int {
	sc, _ := p.pool.Get().(*pipelineScratch)
	if sc == nil {
		sc = &pipelineScratch{}
	}
	defer p.pool.Put(sc)

	if ex != nil {
		ex.Reset(len(cands))
		for i, c := range cands {
			ex.Candidates[i].Index = c.Index
			ex.Candidates[i].Name = c.Name
		}
	}

	feasible := p.filterPass(j, cands, sc, ex)

	for i := range scores {
		scores[i] = math.NaN()
	}
	if len(feasible) == 0 {
		return -1
	}
	if len(feasible) == 1 {
		if scores != nil {
			scores[feasible[0]] = 1
		}
		if ex != nil {
			ex.Candidates[feasible[0]].Total = 1
		}
		return feasible[0]
	}

	if cap(sc.raw) < len(cands) {
		sc.raw = make([]float64, len(cands))
		sc.total = make([]float64, len(cands))
	}
	raw := sc.raw[:len(cands)]
	total := sc.total[:len(cands)]
	// A single positive-weight scorer (the shape of every built-in
	// pipeline) writes its normalized score directly instead of zeroing
	// then accumulating — one fewer fleet-wide pass, bit-exact because
	// x == 0+x and w*(sub-lo)/span is never -0 here: sub-lo cannot be -0
	// under scoreBounds' signed-zero rule, and the weight is positive.
	assign := len(p.Scorers) == 1 && p.Scorers[0].Weight > 0
	if !assign {
		for i := range total {
			total[i] = 0
		}
	}

	// Score plugins see only the feasible candidates, in candidate order.
	// When everyone survived filtering — the common case at fleet scale,
	// where capacity rarely knocks a cluster out — the candidate slice is
	// passed through as-is and the normalize loops index it directly; the
	// arithmetic (and thus every bit of every score) is identical, only the
	// feasible→candidate indirection disappears.
	allFeasible := len(feasible) == len(cands)
	feasCands := cands
	if !allFeasible {
		fc := sc.cands[:0]
		for _, i := range feasible {
			fc = append(fc, cands[i])
		}
		sc.cands = fc
		feasCands = fc
	}
	sub := raw[:len(feasible)]
	// Single positive-weight scorer with no score or trace reporting — the
	// shape of every built-in pipeline on the Run arrival path. Min-max
	// normalization by a positive weight is strictly monotone, so the
	// argmax of the normalized totals is the argmax of the raw scores and
	// the normalization passes (bounds, divide, accumulate) are skipped
	// outright. Degenerate inputs match the normalized arithmetic exactly:
	// all-equal scores leave the strict > argmax at the first feasible
	// candidate, which is what all-zero totals select; and any NaN or ±Inf
	// score (detected by v-v != 0) makes every normalized total +0 or NaN,
	// which also selects the first feasible candidate.
	if scores == nil && ex == nil && len(p.Scorers) == 1 && p.Scorers[0].Weight > 0 {
		p.Scorers[0].Scorer.Score(j, feasCands, sub)
		bv := sub[0]
		if bv-bv != 0 {
			return feasible[0]
		}
		bk := 0
		for k := 1; k < len(sub); k++ {
			v := sub[k]
			if v-v != 0 {
				return feasible[0]
			}
			if v > bv {
				bv, bk = v, k
			}
		}
		return feasible[bk]
	}
	for _, ws := range p.Scorers {
		ws.Scorer.Score(j, feasCands, sub)
		lo, hi := scoreBounds(sub)
		span := hi - lo
		if span > 0 {
			switch {
			case assign && allFeasible:
				for i := range feasible {
					total[i] = ws.Weight * (sub[i] - lo) / span
				}
			case assign:
				for k, i := range feasible {
					total[i] = ws.Weight * (sub[k] - lo) / span
				}
			case allFeasible:
				for i := range feasible {
					total[i] += ws.Weight * (sub[i] - lo) / span
				}
			default:
				for k, i := range feasible {
					total[i] += ws.Weight * (sub[k] - lo) / span
				}
			}
		} else if assign {
			// A constant (or NaN-poisoned) plugin contributes 0; the
			// direct-write path must still produce it.
			for _, i := range feasible {
				total[i] = 0
			}
		}
		// A constant plugin expresses no preference and contributes 0.
		if ex != nil {
			name := ws.Scorer.Name()
			for k, i := range feasible {
				norm := 0.0
				if span > 0 {
					norm = (sub[k] - lo) / span
				}
				c := &ex.Candidates[i]
				c.Plugins = append(c.Plugins, obs.PluginScore{
					Plugin: name, Weight: ws.Weight, Norm: norm,
				})
			}
		}
	}

	best := feasible[0]
	if allFeasible {
		for i := 1; i < len(total); i++ {
			if total[i] > total[best] {
				best = i
			}
		}
	} else {
		for _, i := range feasible[1:] {
			if total[i] > total[best] {
				best = i
			}
		}
	}
	if scores != nil {
		for _, i := range feasible {
			scores[i] = total[i]
		}
	}
	if ex != nil {
		for _, i := range feasible {
			ex.Candidates[i].Total = total[i]
		}
		for _, i := range feasible {
			if i != best && total[i] == total[best] {
				ex.TieBreak = true
				break
			}
		}
	}
	return best
}

// filterPass returns the indices of candidates that pass every filter.
// The one-capacity-filter shape every built-in pipeline uses is
// special-cased into a direct comparison loop — one interface call per
// candidate is a measurable share of a 10k-member placement — with
// verdicts identical to the generic path (which tracing runs still take,
// since they want per-filter evidence). When nothing was filtered out the
// scratch's cached identity slice is returned instead of materializing an
// index list.
func (p *Pipeline) filterPass(j *job.Job, cands []*Candidate, sc *pipelineScratch, ex *obs.Explain) []int {
	if ex == nil && len(p.Filters) == 1 {
		if _, ok := p.Filters[0].(CapacityFilter); ok {
			req := j.RequestedProcs
			k := 0
			for ; k < len(cands); k++ {
				if req > cands[k].View.TotalProcs {
					break
				}
			}
			if k == len(cands) {
				return sc.identity(k)
			}
			feasible := append(sc.feasible[:0], sc.identity(k)...)
			for i := k + 1; i < len(cands); i++ {
				if req <= cands[i].View.TotalProcs {
					feasible = append(feasible, i)
				}
			}
			sc.feasible = feasible
			return feasible
		}
	}
	feasible := sc.feasible[:0]
next:
	for i, c := range cands {
		for _, f := range p.Filters {
			if !f.Feasible(j, c) {
				if ex != nil {
					ex.Candidates[i].FilteredBy = f.Name()
				}
				continue next
			}
		}
		if ex != nil {
			ex.Candidates[i].Feasible = true
		}
		feasible = append(feasible, i)
	}
	sc.feasible = feasible
	return feasible
}

// ClockFree is the optional capability of placement plugins — and of whole
// Routers — that never read Candidate.Now. The fleet skips refreshing the
// per-candidate clock before clock-free routers (at 10k members that write
// sweep is a measurable share of every placement); absence of the marker
// means "may read the clock", so correctness is the default. Among the
// built-ins, the capacity and backlog filters and the load-based scorers
// are clock-free; RLScorer (observation encoding) and FairnessScorer
// (share decay) read the clock and deliberately carry no marker.
type ClockFree interface {
	// ClockFree reports whether the plugin ignores Candidate.Now.
	ClockFree() bool
}

// ClockFree implements the capability aggregate: a pipeline is clock-free
// exactly when every filter and every scorer declares itself clock-free.
func (p *Pipeline) ClockFree() bool {
	for _, f := range p.Filters {
		if cf, ok := f.(ClockFree); !ok || !cf.ClockFree() {
			return false
		}
	}
	for _, ws := range p.Scorers {
		if cf, ok := ws.Scorer.(ClockFree); !ok || !cf.ClockFree() {
			return false
		}
	}
	return true
}

// scoreBounds returns the min and max of a non-empty score slice — the
// shared first half of the min-max normalization both the pipeline (per
// plugin, across feasible candidates) and the fairness scorer (its
// internal baseline) apply. One implementation, so the two stretches
// cannot silently diverge.
//
// The implementation replaces folding math.Min/math.Max (too slow for a
// 10k-candidate pass — they dominated the fleet scale profile) but is
// bit-identical to the fold: any NaN poisons both bounds exactly as the
// fold would, and the fold's signed-zero choices (Min takes -0 over +0,
// Max takes +0 over -0) are restored by a fixup scan in the only case
// they can differ — a bound landing on zero. Two equal non-zero floats
// share one bit pattern, so the main loop's strict comparisons are
// otherwise exact; the fixup stays off the hot path, which matters
// because placement scores tie constantly (idle same-size clusters).
func scoreBounds(vals []float64) (lo, hi float64) {
	// Two independent accumulator pairs break the loop-carried dependence
	// on a single bound; min/max over a partition is the min/max overall,
	// and the signed-zero fixups below repair the only combine ambiguity.
	lo, hi = vals[0], vals[0]
	lo2, hi2 := lo, hi
	i := 1
	for ; i+1 < len(vals); i += 2 {
		v, w := vals[i], vals[i+1]
		if v != v || w != w {
			return math.NaN(), math.NaN()
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		if w < lo2 {
			lo2 = w
		}
		if w > hi2 {
			hi2 = w
		}
	}
	if i < len(vals) {
		v := vals[i]
		if v != v {
			return math.NaN(), math.NaN()
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo2 < lo {
		lo = lo2
	}
	if hi2 > hi {
		hi = hi2
	}
	if lo == 0 {
		// The fold's Min yields -0 whenever any -0 is present.
		for _, v := range vals {
			if v == 0 && math.Signbit(v) {
				lo = v
				break
			}
		}
	}
	if hi == 0 {
		// The fold's Max yields +0 whenever any +0 is present.
		for _, v := range vals {
			if v == 0 && !math.Signbit(v) {
				hi = v
				break
			}
		}
	}
	return lo, hi
}

// CapacityFilter keeps only clusters physically large enough for the job.
type CapacityFilter struct{}

// Name implements Filter.
func (CapacityFilter) Name() string { return "capacity" }

// Feasible implements Filter.
func (CapacityFilter) Feasible(j *job.Job, c *Candidate) bool {
	return j.RequestedProcs <= c.View.TotalProcs
}

// ClockFree implements ClockFree: capacity never consults the clock.
func (CapacityFilter) ClockFree() bool { return true }

// BacklogFilter enforces a per-cluster admission quota: clusters whose
// pending backlog has reached Max are infeasible (their queue is full).
// Note that a Fleet.Run has no holding queue — if every cluster's
// backlog is momentarily full the run errors out — so this filter suits
// admission-control callers (the serving /place endpoint) rather than
// closed-loop simulations.
type BacklogFilter struct{ Max int }

// Name implements Filter.
func (f BacklogFilter) Name() string { return fmt.Sprintf("backlog<%d", f.Max) }

// Feasible implements Filter.
func (f BacklogFilter) Feasible(_ *job.Job, c *Candidate) bool {
	return f.Max <= 0 || c.Pending < f.Max
}

// ClockFree implements ClockFree: backlog depth never consults the clock.
func (BacklogFilter) ClockFree() bool { return true }

// TaintFilter is the cordon gate: a cordoned candidate is infeasible for
// every job. Its name is Kubernetes' word for a mark no job tolerates, and
// explain traces report it as the filter that rejected the member.
type TaintFilter struct{}

// Name implements Filter.
func (TaintFilter) Name() string { return "taint" }

// Feasible implements Filter.
func (TaintFilter) Feasible(_ *job.Job, c *Candidate) bool { return !c.Cordoned }

// load is the committed seconds of work per processor — the shared signal
// of the load-based scorers.
func load(c *Candidate) float64 {
	return (c.RunningWork + c.PendingWork) / float64(c.View.TotalProcs)
}

// LeastLoaded spreads: it prefers the cluster with the least committed
// work (running + queued) per processor.
type LeastLoaded struct{}

// Name implements Scorer.
func (LeastLoaded) Name() string { return "least-loaded" }

// Score implements Scorer.
func (LeastLoaded) Score(_ *job.Job, cands []*Candidate, out []float64) {
	for i, c := range cands {
		out[i] = -load(c)
	}
}

// ClockFree implements ClockFree: load is clock-independent.
func (LeastLoaded) ClockFree() bool { return true }

// Binpack packs: among clusters with enough free processors right now it
// prefers the tightest fit (preserving big free blocks for wide jobs);
// when nowhere fits immediately it falls back to the least-loaded queue.
type Binpack struct{}

// Name implements Scorer.
func (Binpack) Name() string { return "binpack" }

// Score implements Scorer.
func (Binpack) Score(j *job.Job, cands []*Candidate, out []float64) {
	for i, c := range cands {
		if StartsNow(c, j) {
			// Fits now: tighter leftover → higher score, always above
			// any queued cluster.
			out[i] = 1 + 1/float64(1+c.View.FreeProcs-j.RequestedProcs)
		} else {
			// Must queue: less committed work → closer to 0.
			out[i] = -load(c)
		}
	}
}

// ClockFree implements ClockFree: fit and load are clock-independent.
func (Binpack) ClockFree() bool { return true }

// QueueWait estimates the queuing delay the job would suffer: zero when
// the cluster can start it immediately with an empty queue, otherwise the
// committed work per processor (an optimistic drain-time bound).
type QueueWait struct{}

// Name implements Scorer.
func (QueueWait) Name() string { return "queue-wait" }

// Score implements Scorer.
func (QueueWait) Score(j *job.Job, cands []*Candidate, out []float64) {
	for i, c := range cands {
		if StartsNow(c, j) {
			out[i] = 0
			continue
		}
		out[i] = -load(c)
	}
}

// ClockFree implements ClockFree: the drain-time bound is clock-independent.
func (QueueWait) ClockFree() bool { return true }

// RLScorer scores the job's marginal impact per cluster with a trained
// policy network through policy.NetScheduler (the decision path the
// simulator and the serving daemon run): for each candidate the job is
// appended to the cluster's visible queue, one batched forward pass scores
// all clusters, and the job's log-probability under the policy's softmax
// is the score — the policy's judgement of how soon it would run the job
// there, relative to the backlog it must beat.
type RLScorer struct {
	ns     *policy.NetScheduler
	queues sync.Pool // *[]*job.Job, a candidate's queue plus the job
}

// NewRLScorer wraps a policy network built for sim.JobFeatures features
// per job.
func NewRLScorer(net nn.PolicyNet) (*RLScorer, error) {
	ns, err := policy.NewNetScheduler(net)
	if err != nil {
		return nil, err
	}
	return &RLScorer{ns: ns, queues: sync.Pool{New: func() any { return new([]*job.Job) }}}, nil
}

// Name implements Scorer.
func (r *RLScorer) Name() string { return "rl" }

// Score implements Scorer. Safe for concurrent use (scratch is pooled,
// weights are only read).
func (r *RLScorer) Score(j *job.Job, cands []*Candidate, out []float64) {
	buf := r.queues.Get().(*[]*job.Job)
	r.ns.Logits(len(cands), func(i int) policy.Queue {
		c := cands[i]
		vis := c.Visible
		if max := r.ns.MaxObs() - 1; len(vis) > max {
			vis = vis[:max] // keep a slot for the candidate job
		}
		*buf = append(append((*buf)[:0], vis...), j)
		return policy.Queue{Jobs: *buf, Now: c.Now, View: c.View, QueueLen: c.Pending + 1}
	}, func(i int, row []float64) { out[i] = LastLogSoftmax(row) })
	r.queues.Put(buf)
}

// LastLogSoftmax returns the log-softmax of row's last element — the
// shared "how strongly would this policy pick the appended job"
// reduction used by RLScorer and the serving daemon's per-shard engine
// scorer. 0 means certainty (the job is alone, or dominates the queue);
// deeply negative means the backlog buries it.
func LastLogSoftmax(row []float64) float64 {
	max := row[0]
	for _, v := range row[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for _, v := range row {
		sum += math.Exp(v - max)
	}
	return row[len(row)-1] - max - math.Log(sum)
}

// Standard pipelines: the routers the fleet experiment and the serving
// daemon expose by name.

// LeastLoadedPipeline spreads jobs by committed work.
func LeastLoadedPipeline() *Pipeline {
	return NewPipeline("least-loaded",
		[]Filter{CapacityFilter{}},
		[]WeightedScorer{{LeastLoaded{}, 1}})
}

// BinpackPipeline packs tight fits, preserving wide free blocks.
func BinpackPipeline() *Pipeline {
	return NewPipeline("binpack",
		[]Filter{CapacityFilter{}},
		[]WeightedScorer{{Binpack{}, 1}})
}

// RLPipeline routes with the policy network's marginal-impact score,
// stabilized by a queue-wait prior (the net knows the queue it would join;
// the prior breaks near-ties toward emptier clusters).
func RLPipeline(net nn.PolicyNet) (*Pipeline, error) {
	rl, err := NewRLScorer(net)
	if err != nil {
		return nil, err
	}
	return NewPipeline("rl-scored",
		[]Filter{CapacityFilter{}},
		[]WeightedScorer{{rl, 2}, {QueueWait{}, 1}}), nil
}
