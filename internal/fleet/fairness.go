package fleet

import (
	"math"
	"sort"
	"sync"

	"rlsched/internal/job"
	"rlsched/internal/metrics"
)

// Fleet-wide fairness plugin (DESIGN.md §8). The paper's §V-F fairness
// goal is per-cluster; routed across a fleet, one user's jobs can be
// starved on every member while each member's own FairMaxBoundedSlowdown
// looks healthy. FairnessScorer is the placement-layer lever: it tracks
// every user's realized bounded slowdown per cluster — updated
// incrementally as members complete jobs — blends that with the live
// pending queues, and biases placement three ways, each in proportion to
// how far the user's service runs from every OTHER user's:
//
//  1. Rescue: a deprived user's jobs are steered onto clusters that can
//     start them immediately (free capacity, empty queue).
//  2. Yield: a privileged user's jobs are steered OFF immediately
//     available capacity, leaving it for the deprived.
//  3. Repulsion: clusters where this user's completed jobs fared worse
//     than their own average are penalized, steering the user away from
//     the member that is structurally bad for their job mix instead of
//     re-queueing them behind the same backlog.
//
// The same scorer instance also repairs fairness during migration sweeps:
// the migration controller re-scores pending jobs through the router
// pipeline, so a deprived user's stranded job clears the hysteresis margin
// toward a drained cluster exactly like a fresh arrival would.

// StateScorer is a Scorer that carries run-scoped state fed by the fleet:
// Reset starts a fresh run, Observe folds in a job some member finished.
// The fleet feeds completions in a deterministic order (members in index
// order, each member's completions in completion order), so stateful
// scoring stays reproducible run-to-run. Under event-heap stepping (§10)
// the feed reads only the log tails of members woken since the last
// placement — a member with no events cannot have completed anything —
// which is index-ordered over the wake list and therefore identical to
// the full scan the full-sweep reference performs.
type StateScorer interface {
	Scorer
	// Reset clears all accumulated state (a new Run starts).
	Reset()
	// Observe folds one completed job into the state. cluster is the
	// member index the job ran on.
	Observe(cluster int, j *job.Job)
}

// FairnessConfig parameterizes FairnessScorer. The zero value keeps
// full-history shares.
type FairnessConfig struct {
	// DecayWindow, when positive, makes every tracked share an
	// exponentially decayed sum with an effective window of about this many
	// fleet-wide completions: each Observe multiplies all shares by
	// λ = 1 − 1/max(DecayWindow, 1) before folding the new job in. A
	// long-running daemon then answers "how is this user served NOW"
	// instead of averaging over its whole uptime — a user throttled for a
	// week stops looking privileged forever. 0 (the default) keeps the
	// full-history behavior, bit-for-bit.
	DecayWindow float64
}

// userShare accumulates one user's realized bounded slowdown: fleet-wide
// and split per cluster. Counts are float64 because a decayed count is
// fractional (with DecayWindow off they hold exact integers).
type userShare struct {
	sum float64
	n   float64
	// raw counts the user's completed jobs undecayed: the decayed n is the
	// deprivation weight, raw is the factual "how many jobs has this user
	// finished" answer surfaces like /place's fairness block report.
	raw int64
	// byCluster maps member index → (sum, n) of the user's completed
	// bounded slowdowns there.
	clSum map[int]float64
	clN   map[int]float64
	// last is the fleet-wide completion count this share was last decayed
	// at: per-user decay is applied lazily, so an Observe touches one
	// user's maps, not every user's.
	last uint64
}

// FairnessScorer is the stateful fairness Score plugin. It is safe for
// concurrent use (the serving daemon scores and observes from concurrent
// requests); within a Fleet.Run all calls are serial and deterministic.
type FairnessScorer struct {
	decay float64 // per-completion share multiplier; 1 = full history

	mu     sync.Mutex
	users  map[int]*userShare
	gSum   float64
	gN     float64
	events uint64 // fleet-wide completions observed (decay clock)
}

// NewFairnessScorer returns a fairness plugin.
func NewFairnessScorer(cfg FairnessConfig) *FairnessScorer {
	decay := 1.0
	if cfg.DecayWindow > 0 {
		w := cfg.DecayWindow
		if w < 1 {
			w = 1
		}
		decay = 1 - 1/w
	}
	return &FairnessScorer{decay: decay, users: map[int]*userShare{}}
}

// syncLocked brings one user's lazily decayed shares up to the current
// decay clock. Callers hold f.mu. A no-op with decay off, so the
// full-history arithmetic is untouched.
func (f *FairnessScorer) syncLocked(u *userShare) {
	if f.decay >= 1 || u.last == f.events {
		u.last = f.events
		return
	}
	factor := math.Pow(f.decay, float64(f.events-u.last))
	u.sum *= factor
	u.n *= factor
	for k := range u.clSum {
		u.clSum[k] *= factor
	}
	for k := range u.clN {
		u.clN[k] *= factor
	}
	u.last = f.events
}

// shareEpsilon is the decayed job count below which a user's share counts
// as empty: it keeps a fully decayed-away user from reporting a 0/0 mean.
const shareEpsilon = 1e-9

// Name implements Scorer.
func (f *FairnessScorer) Name() string { return "fairness" }

// Reset implements StateScorer: all shares are dropped, as at the start of
// a fresh Fleet.Run.
func (f *FairnessScorer) Reset() {
	f.mu.Lock()
	f.users = map[int]*userShare{}
	f.gSum, f.gN = 0, 0
	f.events = 0
	f.mu.Unlock()
}

// RetireCluster implements ClusterRetirer: every user's per-cluster share
// on the retired member is dropped — the repulsion term must not keep
// penalizing (or the index, if reused by a later join, inherit) history
// from capacity that no longer exists. Fleet-wide shares keep the service
// record: the user *was* served there, and deprivation is measured
// fleet-wide.
func (f *FairnessScorer) RetireCluster(cluster int) {
	f.mu.Lock()
	for _, u := range f.users {
		delete(u.clSum, cluster)
		delete(u.clN, cluster)
	}
	f.mu.Unlock()
}

// bucket collapses unknown users (UserID < 0) into the -1 bucket, matching
// metrics.PerUser.
func bucket(uid int) int {
	if uid < 0 {
		return -1
	}
	return uid
}

// pendingBsld is the bounded slowdown a still-pending job is already
// committed to if it were started at now: wait so far plus its requested
// time, over max(requested, threshold). Only scheduler-visible attributes
// are read (requested time, never the actual runtime), so the live
// deprivation signal sees exactly what a production scheduler could.
func pendingBsld(j *job.Job, now float64) float64 {
	den := j.RequestedTime
	if den < metrics.BsldThreshold {
		den = metrics.BsldThreshold
	}
	if den <= 0 {
		return 1
	}
	s := (now - j.SubmitTime + j.RequestedTime) / den
	if s < 1 {
		return 1
	}
	return s
}

// Observe implements StateScorer: fold the completed job's bounded
// slowdown into its user's fleet-wide and per-cluster shares.
func (f *FairnessScorer) Observe(cluster int, j *job.Job) {
	if !j.Started() {
		return
	}
	b := j.BoundedSlowdown(metrics.BsldThreshold)
	f.mu.Lock()
	if f.decay < 1 {
		// Eager global decay (two scalars), lazy per-user decay (the one
		// share being touched syncs below).
		f.events++
		f.gSum *= f.decay
		f.gN *= f.decay
	}
	u := f.users[bucket(j.UserID)]
	if u == nil {
		u = &userShare{clSum: map[int]float64{}, clN: map[int]float64{}, last: f.events}
		f.users[bucket(j.UserID)] = u
	}
	f.syncLocked(u)
	u.sum += b
	u.n++
	u.raw++
	u.clSum[cluster] += b
	u.clN[cluster]++
	f.gSum += b
	f.gN++
	f.mu.Unlock()
}

// The fairness terms' calibration. It matters more than any single
// constant: the pipeline's per-plugin min-max normalization stretches
// whatever score differences a plugin emits to the full [0,1] range, so a
// fairness plugin that emitted *only* fairness terms would have its
// noise-level preferences amplified into full-strength routing overrides
// (measurably catastrophic: small clusters drown in rescued jobs). Score
// therefore embeds the binpack signal as its baseline and adds fairness
// terms scaled by the user's deprivation — for an average user its
// ordering is exactly Binpack's, and the plugin can stand alone in a
// pipeline.
const (
	// startBoost scales the rescue term: how strongly a fully deprived
	// user's jobs prefer a cluster that can start them right now, on the
	// scale of the plugin's internal [0,1]-normalized load signal. At 3,
	// full deprivation outbids any load difference.
	startBoost = 3.0
	// yieldPenalty scales the yield term — the rescue's mirror image: a
	// fully privileged user (served far better than everyone else) is
	// steered OFF clusters that could start their job immediately,
	// leaving drained capacity for the deprived instead of letting the
	// already-comfortable snap it up.
	yieldPenalty = 1.0
	// histPenalty scales the repulsion term: how strongly a fully
	// deprived user avoids clusters that served them worse than their own
	// average.
	histPenalty = 1.0
	// depFloor is the user-mean / other-user-mean bounded-slowdown ratio
	// at which a user starts counting as deprived (and, mirrored, as
	// privileged): noise around the average triggers nothing.
	depFloor = 2.0
	// depSpan is the ratio range over which deprivation ramps from 0 to
	// full strength above depFloor: a user at (depFloor+depSpan)× the
	// other-user mean is maximally deprived.
	depSpan = 2.0
	// relCap caps the per-cluster history excess (cluster mean / user
	// mean − 1) that maps to a full-strength repulsion.
	relCap = 2.0
	// minObs is the number of completed jobs a user needs on a cluster
	// before its history repels them (one unlucky job is not a pattern).
	minObs = 2
)

// Score implements Scorer. The baseline is the binpack signal — the
// strongest load-aware placement heuristic on bursty narrow-job streams
// (start-now clusters first, tightest fit preferred, least-loaded queue as
// the fallback) — min-max normalized to [0,1] across the candidates
// inside the plugin; fairness terms perturb it in proportion to the
// user's deprivation or privilege. A user near the other-user average
// scores exactly like Binpack (same ordering, same ties), so the plugin
// is safe to run standalone: cold starts and average users degrade to
// packing rather than to noise-amplified steering.
func (f *FairnessScorer) Score(j *job.Job, cands []*Candidate, out []float64) {
	// out doubles as the baseline scratch: fill with binpack raws,
	// normalize, then overlay the fairness terms.
	Binpack{}.Score(j, cands, out)
	lo, hi := scoreBounds(out)
	if span := hi - lo; span > 0 {
		for i := range out {
			out[i] = (out[i] - lo) / span
		}
	} else {
		for i := range out {
			out[i] = 0
		}
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	u := f.users[bucket(j.UserID)]
	if u != nil {
		f.syncLocked(u)
	}
	// The deprivation signal blends two sources. Realized: the tracked
	// bounded slowdowns of completed jobs. Live: every pending job visible
	// in the candidates — plus the job being scored itself — counted at
	// the bounded slowdown it is already committed to (wait so far + its
	// requested time). Without the live half the plugin is blind exactly
	// where it matters: a user whose few jobs are all stuck in queues has
	// no completions to look deprived by, and a migration sweep re-scoring
	// a withdrawn stuck job would see its own victim vanish from the
	// queues it reads.
	now := j.SubmitTime
	for _, c := range cands {
		if c.Now > now {
			now = c.Now
		}
	}
	uSum, uN := 0.0, 0.0
	gSum, gN := f.gSum, f.gN
	if u != nil {
		uSum, uN = u.sum, u.n
	}
	me := bucket(j.UserID)
	uWork, gWork := 0.0, 0.0
	for _, c := range cands {
		for _, pj := range c.Visible {
			b := pendingBsld(pj, c.Now)
			w := pj.RequestedTime * float64(pj.RequestedProcs)
			gSum += b
			gN++
			gWork += w
			if bucket(pj.UserID) == me {
				uSum += b
				uN++
				uWork += w
			}
		}
	}
	// The scored job itself counts toward its user's service signal but
	// NOT toward the demand share below: one job is never its own
	// competition, and in a migration sweep it was just withdrawn from
	// the queues anyway.
	b := pendingBsld(j, now)
	gSum += b
	gN++
	uSum += b
	uN++
	userMean := uSum / float64(uN)
	// The comparator is the mean service of every OTHER user. Against a
	// whole-fleet mean a dominant user could never look deprived — their
	// own jobs ARE most of the average — which is backwards for the
	// heavy-user regime this plugin exists for.
	otherMean := 0.0
	if gN > uN {
		otherMean = (gSum - uSum) / float64(gN-uN)
	}
	// dep ∈ [0,1]: how far above depFloor× the other-user average bounded
	// slowdown this user's service (realized + committed) runs, ramping
	// over depSpan.
	dep := 0.0
	if otherMean > 0 && userMean > depFloor*otherMean {
		dep = (userMean/otherMean - depFloor) / depSpan
		if dep > 1 {
			dep = 1
		}
		// Demand normalization: a user who owns most of the pending work
		// is not deprived, they are the cause — their self-inflicted
		// queueing must not trigger rescues that snap up the drained
		// capacity their victims need. Deprivation scales by the share of
		// pending work *not* theirs.
		if gWork > 0 {
			dep *= 1 - uWork/gWork
		}
	}
	// priv ∈ [0,1] is the mirror ramp: how far BELOW the other-user
	// average this user's service runs. A privileged user yields start-now
	// capacity to the deprived instead of snapping it up.
	priv := 0.0
	if userMean > 0 && otherMean > depFloor*userMean {
		priv = (otherMean/userMean - depFloor) / depSpan
		if priv > 1 {
			priv = 1
		}
	}
	if dep == 0 && priv == 0 {
		return
	}
	histMean := userMean
	if u != nil && u.n > 0 {
		histMean = u.sum / float64(u.n)
	}
	for i, c := range cands {
		// Rescue / yield on immediately available capacity.
		if StartsNow(c, j) {
			out[i] += startBoost*dep - yieldPenalty*priv
		}
		if dep == 0 {
			continue
		}
		// Repulsion: penalize the clusters whose realized history served
		// this user worse than their own realized average — but only with
		// enough history there to call it a pattern.
		if u == nil || histMean <= 0 {
			continue
		}
		if n := u.clN[c.Index]; n >= minObs {
			rel := (u.clSum[c.Index]/float64(n))/histMean - 1
			if rel > 0 {
				if rel > relCap {
					rel = relCap
				}
				out[i] -= histPenalty * dep * rel / relCap
			}
		}
	}
}

// UserMeans snapshots the per-user fleet-wide mean bounded slowdowns
// accumulated so far, sorted by user ID — the live counterpart of
// metrics.PerUser over completed jobs.
func (f *FairnessScorer) UserMeans() []metrics.UserMean {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]metrics.UserMean, 0, len(f.users))
	for uid, u := range f.users {
		f.syncLocked(u)
		if u.n <= shareEpsilon {
			continue // fully decayed away: no current service to report
		}
		jobs := int(math.Round(u.n))
		if jobs < 1 {
			jobs = 1
		}
		out = append(out, metrics.UserMean{UserID: uid, Jobs: jobs, Mean: u.sum / u.n})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].UserID < out[k].UserID })
	return out
}

// Report summarizes the tracked state as a metrics.FairnessReport — the
// view the serving daemon exports as rlserv_fairness_score.
func (f *FairnessScorer) Report() metrics.FairnessReport {
	return metrics.FairnessOf(f.UserMeans())
}

// UserState returns the tracked fleet-wide mean bounded slowdown and job
// count for one user (zeroes when the user has no completed jobs), plus
// the fleet-wide mean over everyone — the /place response's per-user
// exposure. The mean is the decayed share (how the plugin weighs the user
// NOW); jobs is the raw undecayed completion count — with -fair-window
// active the decayed weight rounds below the number of jobs the user
// actually finished, which made this surface under-report before the raw
// count was tracked separately.
func (f *FairnessScorer) UserState(uid int) (userMean float64, jobs int, fleetMean float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.gN > shareEpsilon {
		fleetMean = f.gSum / f.gN
	}
	if u := f.users[bucket(uid)]; u != nil {
		f.syncLocked(u)
		if u.n > shareEpsilon {
			userMean = u.sum / u.n
		}
		jobs = int(u.raw)
	}
	return userMean, jobs, fleetMean
}

// FairnessState is a point-in-time serialization of a FairnessScorer —
// the payload a serving daemon checkpoints to disk so per-user share
// history survives restarts. Users and their per-cluster shares are
// sorted, so the same tracker state always exports the same bytes.
type FairnessState struct {
	// Events is the decay clock: fleet-wide completions observed. Every
	// exported share is synced to it, so Import needs no per-user lag.
	Events uint64 `json:"events"`
	// GSum / GN are the fleet-wide (decayed) bounded-slowdown sum and
	// count over all users.
	GSum float64 `json:"g_sum"`
	GN   float64 `json:"g_n"`
	// Users holds every tracked user's shares, sorted by UserID.
	Users []UserShareState `json:"users,omitempty"`
}

// UserShareState is one user's exported share.
type UserShareState struct {
	// UserID is the share's user bucket (-1 aggregates unknown users).
	UserID int `json:"user_id"`
	// Sum / N are the decayed fleet-wide bounded-slowdown sum and count.
	Sum float64 `json:"sum"`
	N   float64 `json:"n"`
	// Raw is the undecayed completed-job count.
	Raw int64 `json:"raw"`
	// Clusters holds the per-member splits, sorted by cluster index.
	Clusters []ClusterShareState `json:"clusters,omitempty"`
}

// ClusterShareState is one user's share on one member.
type ClusterShareState struct {
	// Cluster is the member index the share accumulated on.
	Cluster int `json:"cluster"`
	// Sum / N are the decayed bounded-slowdown sum and count there.
	Sum float64 `json:"sum"`
	N   float64 `json:"n"`
}

// ExportState snapshots the scorer's accumulated shares. Every user is
// synced to the current decay clock first, so importing the export into a
// fresh scorer reproduces the tracker exactly (Import then Observe gives
// the same state as Observe alone would have).
func (f *FairnessScorer) ExportState() FairnessState {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FairnessState{Events: f.events, GSum: f.gSum, GN: f.gN}
	for uid, u := range f.users {
		f.syncLocked(u)
		us := UserShareState{UserID: uid, Sum: u.sum, N: u.n, Raw: u.raw}
		for cl, sum := range u.clSum {
			us.Clusters = append(us.Clusters, ClusterShareState{Cluster: cl, Sum: sum, N: u.clN[cl]})
		}
		sort.Slice(us.Clusters, func(i, k int) bool { return us.Clusters[i].Cluster < us.Clusters[k].Cluster })
		st.Users = append(st.Users, us)
	}
	sort.Slice(st.Users, func(i, k int) bool { return st.Users[i].UserID < st.Users[k].UserID })
	return st
}

// ImportState replaces the scorer's accumulated shares with an exported
// snapshot (the decay window stays whatever the scorer was built with —
// the state carries shares, not configuration). Restoring and then
// replaying a WAL of completion batches reproduces the pre-crash tracker.
func (f *FairnessScorer) ImportState(st FairnessState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.events = st.Events
	f.gSum, f.gN = st.GSum, st.GN
	f.users = make(map[int]*userShare, len(st.Users))
	for _, us := range st.Users {
		u := &userShare{
			sum: us.Sum, n: us.N, raw: us.Raw, last: st.Events,
			clSum: make(map[int]float64, len(us.Clusters)),
			clN:   make(map[int]float64, len(us.Clusters)),
		}
		for _, cs := range us.Clusters {
			u.clSum[cs.Cluster] = cs.Sum
			u.clN[cs.Cluster] = cs.N
		}
		f.users[bucket(us.UserID)] = u
	}
}

// FairnessPipeline routes like BinpackPipeline until a user drifts from
// the other-user average, then overlays the stateful fairness terms:
// deprived users are rescued onto drained capacity and steered off the
// members that historically hurt them, privileged users yield. The
// fairness scorer embeds the binpack baseline itself (see
// FairnessConfig), so it runs standalone.
func FairnessPipeline(cfg FairnessConfig) *Pipeline {
	return NewPipeline("fair",
		[]Filter{CapacityFilter{}},
		[]WeightedScorer{{Scorer: NewFairnessScorer(cfg), Weight: 1}})
}

// StateScorers returns the pipeline's stateful scorers, in scorer order.
// The Fleet resets them per run and feeds them member completions.
func (p *Pipeline) StateScorers() []StateScorer {
	var out []StateScorer
	for _, ws := range p.Scorers {
		if ss, ok := ws.Scorer.(StateScorer); ok {
			out = append(out, ss)
		}
	}
	return out
}
