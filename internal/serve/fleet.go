package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"rlsched/internal/fleet"
	"rlsched/internal/job"
	"rlsched/internal/obs"
)

// Fleet mode: the daemon shards one Engine per cluster and answers two
// extra questions. "/v1/decide?cluster=NAME" asks a specific shard's
// policy which queued job runs next — serving sharded by cluster.
// "POST /place" asks the placement layer which cluster an arriving job
// should be routed to: the request carries the job plus each cluster's
// current queue state (the daemon is stateless, like the decision
// endpoint), and the answer comes from a fleet filter/score pipeline whose
// RL-informed plugin scores the job's marginal impact with each shard's
// own serving engine.

// ShardConfig declares one fleet member the daemon serves.
type ShardConfig struct {
	// Name identifies the cluster in /place, /decide?cluster= and
	// /metrics labels.
	Name string
	// Procs is the cluster size (placement rejects cluster states that
	// disagree, catching misrouted reports).
	Procs int
	// Engine overrides ModelPath/PolicyName (test hook), which otherwise
	// load exactly like the daemon's base engine.
	Engine     Engine
	ModelPath  string
	PolicyName string
}

// shard is one served cluster: its own hot-swappable engine under its own
// concurrency limit (so /decide load on one cluster never waits behind
// another's). cordoned is the /drain flag, read lock-free on the request
// path and by /readyz; the durability layer re-applies it on restore.
type shard struct {
	name     string
	procs    int
	batcher  *Batcher
	cordoned atomic.Bool
}

// initFleet builds the shard set and the placement router.
func (s *Server) initFleet(cfg Config) error {
	s.migrateMargin = -1
	if len(cfg.Shards) == 0 {
		if cfg.PlaceRouter != "" {
			return fmt.Errorf("serve: place router %q needs fleet shards", cfg.PlaceRouter)
		}
		if cfg.Migrate {
			return fmt.Errorf("serve: -migrate needs fleet shards")
		}
		if cfg.FairWeight != 0 {
			return fmt.Errorf("serve: fairness placement needs fleet shards")
		}
		return nil
	}
	if cfg.Migrate {
		// Negated comparison so NaN is rejected too (a NaN margin would
		// silently answer migrate:false forever). 0 is meaningful — no
		// hysteresis, any strict improvement clears the margin — though
		// the drained-destination gate still applies; the 0.25 default
		// lives in the rlservd flag, not here.
		if !(cfg.MigrateMargin >= 0) {
			return fmt.Errorf("serve: migrate margin must be non-negative, got %g", cfg.MigrateMargin)
		}
		s.migrateMargin = cfg.MigrateMargin
	}
	names := make([]string, 0, len(cfg.Shards))
	s.shardIdx = make(map[string]int, len(cfg.Shards))
	for i, sc := range cfg.Shards {
		if sc.Name == "" {
			return fmt.Errorf("serve: shard %d needs a name", i)
		}
		if sc.Procs <= 0 {
			return fmt.Errorf("serve: shard %q needs a positive processor count", sc.Name)
		}
		if _, dup := s.shardByName(sc.Name); dup != nil {
			return fmt.Errorf("serve: duplicate shard name %q", sc.Name)
		}
		eng, err := engineOrLoad(sc.Engine, sc.ModelPath, sc.PolicyName)
		if err != nil {
			return fmt.Errorf("serve: shard %q: %w", sc.Name, err)
		}
		s.shards = append(s.shards, &shard{
			name:    sc.Name,
			procs:   sc.Procs,
			batcher: NewBatcher(eng, BatcherConfig{Workers: cfg.Workers, Metrics: s.metrics}),
		})
		s.shardIdx[sc.Name] = i
		names = append(names, sc.Name)
	}
	s.metrics.RegisterPlaceClusters(names)

	router := cfg.PlaceRouter
	if router == "" {
		router = "engine"
	}
	switch router {
	case "engine":
		// The RL-informed default: each shard's own policy scores the
		// job against the backlog it would join, with a queue-wait
		// prior as tie-breaker.
		s.placer = fleet.NewPipeline("engine-scored",
			[]fleet.Filter{fleet.CapacityFilter{}},
			[]fleet.WeightedScorer{
				{Scorer: &shardEngineScorer{s: s}, Weight: 2},
				{Scorer: fleet.QueueWait{}, Weight: 1},
			})
	case "least-loaded":
		s.placer = fleet.LeastLoadedPipeline()
	case "binpack":
		s.placer = fleet.BinpackPipeline()
	default:
		return fmt.Errorf("serve: unknown place router %q (engine|least-loaded|binpack)", router)
	}
	// The cordon gate: decodePlacement marks cordoned shards.
	s.placer.Filters = append(s.placer.Filters, fleet.TaintFilter{})
	if !(cfg.FairWeight >= 0) {
		return fmt.Errorf("serve: fairness weight must be non-negative, got %g", cfg.FairWeight)
	}
	if !(cfg.FairWindow >= 0) {
		return fmt.Errorf("serve: fairness window must be non-negative, got %g", cfg.FairWindow)
	}
	if cfg.FairWindow > 0 && cfg.FairWeight == 0 {
		return fmt.Errorf("serve: -fair-window needs -fair-weight > 0")
	}
	if cfg.FairWeight > 0 {
		// The stateful per-user fairness plugin rides on the selected
		// pipeline. Its state grows from the completed-job records clusters
		// post with /place — what Fleet.observeCompletions feeds it in a
		// simulated run — and is exported as rlserv_fairness_score.
		s.fairness = fleet.NewFairnessScorer(fleet.FairnessConfig{DecayWindow: cfg.FairWindow})
		s.placer.Scorers = append(s.placer.Scorers,
			fleet.WeightedScorer{Scorer: s.fairness, Weight: cfg.FairWeight})
	}
	return nil
}

func (s *Server) shardByName(name string) (int, *shard) {
	if i, ok := s.shardIdx[name]; ok {
		return i, s.shards[i]
	}
	return -1, nil
}

// shardEngineScorer adapts the fleet Scorer interface onto the daemon's
// per-cluster engines: candidate i is scored by shard i's currently
// served engine. The score is the log-softmax of the new job's engine
// score within the queue it would join — the engine's (log) probability
// of running the job *next* on that cluster. An idle cluster scores 0
// (certainty, the best possible placement); a cluster whose backlog would
// bury the job scores deeply negative. The softmax makes heterogeneous
// engines (logits vs negated heuristic priorities) comparable after the
// pipeline's per-plugin normalization. With every shard serving the same
// network this is fleet.RLScorer's score (pinned by the conformance test).
type shardEngineScorer struct{ s *Server }

// Name implements fleet.Scorer.
func (*shardEngineScorer) Name() string { return "shard-engine" }

// Score implements fleet.Scorer. Engines are stateless by contract, so one
// queue state (and its job buffer) is reused across the candidates.
func (sc *shardEngineScorer) Score(j *job.Job, cands []*fleet.Candidate, out []float64) {
	st := QueueState{WantScores: true}
	states := []*QueueState{&st}
	var one [1]Decision
	var keyBuf []byte
	cache := sc.s.cache
	for i, c := range cands {
		gen := cache.generation() // before the engine: see generation
		eng := sc.s.shards[c.Index].batcher.Engine()
		vis := c.Visible
		if max := eng.MaxJobs(); max > 0 && len(vis) > max-1 {
			vis = vis[:max-1] // keep a slot for the candidate job
		}
		st.Jobs = append(append(st.Jobs[:0], vis...), j)
		st.Now, st.View, st.QueueLen = c.Now, c.View, c.Pending+1
		// The same (queue, job) pair is re-scored on every /place a
		// cluster's queue sits still for, so this inner decision shares
		// the /v1/decide cache — keyed by the shard whose engine answers.
		key, e, hit := cache.probe(&keyBuf, gen, c.Index, &st)
		if !hit {
			eng.DecideBatch(states, one[:])
			e = cacheEntry{dec: one[0], policy: eng.Name()}
			cache.put(key, e)
		}
		out[i] = fleet.LastLogSoftmax(e.dec.Scores)
	}
}

// placeCluster is what a /place or /migrate cluster state adds to its queue
// state. Unlike /v1/decide states, an empty jobs list is legal (an idle
// cluster is the best possible placement). RunningWork is the committed
// remaining work of the cluster's running jobs in seconds·procs
// (fleet.Candidate.RunningWork; 0 when the caller does not track it).
// Completed carries the jobs the cluster finished since its last report —
// the fairness tracker's incremental feed (/place with a fairness weight).
type placeCluster struct {
	Name        string
	RunningWork float64
	Completed   []wireDone
}

// decodePlacement is the request half /place and /migrate share: readRequest,
// then the posted cluster states validated against the registered shards and turned into the placement core's terms — rb.job
// and one candidate per posted cluster in rb.cands (it writes the 4xx itself
// and returns nil; otherwise the caller puts rb back in the pool when done).
// Everything after it is internal/fleet's: the daemon is a stateless
// transport over the simulator's placement core. A cordoned shard stays a
// candidate — its posted state and completions are real, only the
// destination is closed — but is marked Candidate.Cordoned, which
// fleet.TaintFilter, the last of s.placer's filters, rejects for every job
// (explain traces name it). Only with migrate set does rb.from count: from
// is its candidate's index (required), and that one candidate is never
// marked — migrating OFF a cordoned member is what /migrate is for during a
// drain.
func (s *Server) decodePlacement(w http.ResponseWriter, r *http.Request, migrate bool) (rb *reqBuf, from int) {
	switch {
	case r.Method != http.MethodPost:
		s.fail(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: POST only"))
	case len(s.shards) == 0 || (migrate && s.migrateMargin < 0):
		s.fail(w, http.StatusNotFound, fmt.Errorf("serve: %s not enabled (needs fleet mode; /migrate also needs -migrate)", r.URL.Path))
	default:
		rb = s.readRequest(w, r, (*reqBuf).parsePlace)
	}
	if rb == nil {
		return nil, -1
	}
	bad := func(format string, args ...interface{}) (*reqBuf, int) {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("serve: "+format, args...))
		reqBufPool.Put(rb)
		return nil, -1
	}
	if rb.job.RequestedProcs <= 0 || rb.job.RequestedTime <= 0 {
		return bad("job needs positive requested_time and requested_procs")
	}
	if len(rb.states) == 0 {
		return bad("%s request carries no clusters", r.URL.Path)
	}
	rb.seen = append(rb.seen[:0], make([]uint64, (len(s.shards)+63)/64)...)
	vals := make([]fleet.Candidate, len(rb.states))
	rb.cands, from = rb.cands[:0], -1
	for i := range rb.states {
		st, cl := &rb.states[i], &rb.clusters[i]
		idx, sh := s.shardByName(cl.Name)
		switch {
		case sh == nil:
			return bad("unknown cluster %q", cl.Name)
		case rb.seen[idx/64]&(1<<(idx%64)) != 0:
			return bad("cluster %q listed twice", cl.Name)
		case st.View.TotalProcs != sh.procs:
			return bad("cluster %q reports %d procs, shard has %d", cl.Name, st.View.TotalProcs, sh.procs)
		case st.View.FreeProcs < 0 || st.View.FreeProcs > st.View.TotalProcs:
			return bad("cluster %q free_procs out of range", cl.Name)
		case !(cl.RunningWork >= 0) || math.IsInf(cl.RunningWork, 1):
			return bad("cluster %q running_work must be finite and non-negative", cl.Name)
		}
		rb.seen[idx/64] |= 1 << (idx % 64)
		c := &vals[i]
		*c = fleet.Candidate{
			Index:       idx,
			Name:        sh.name,
			Now:         st.Now,
			View:        st.View,
			Visible:     st.Jobs,
			Pending:     max(st.QueueLen, len(st.Jobs)),
			RunningWork: cl.RunningWork,
		}
		for k, qj := range st.Jobs {
			if qj.RequestedProcs <= 0 || qj.RequestedTime <= 0 {
				return bad("cluster %q job %d needs positive requested_time and requested_procs", cl.Name, k)
			}
			c.PendingWork += qj.RequestedTime * float64(qj.RequestedProcs)
		}
		if migrate && cl.Name == rb.from {
			from = i
		} else {
			c.Cordoned = sh.cordoned.Load()
		}
		rb.cands = append(rb.cands, c)
	}
	if migrate && from < 0 {
		return bad("current cluster %q missing from posted states", rb.from)
	}
	rb.scores = append(rb.scores[:0], make([]float64, len(rb.cands))...)
	return rb, from
}

func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rb, _ := s.decodePlacement(w, r, false)
	if rb == nil {
		return
	}
	defer reqBufPool.Put(rb)
	j, cands := &rb.job, rb.cands
	// The tracker is persistent state: a batch that is half-folded when the
	// request errors out would be double-counted when the client repairs
	// and re-posts it. So EVERY rejection — a bad dedup identity or record
	// (400), a job no posted cluster can take (422, the pipeline's own
	// filters: exactly the condition under which it would return no pick)
	// — fires before the fold.
	if rb.batchSeq != nil && (rb.client == "" || *rb.batchSeq < 0) {
		s.fail(w, http.StatusBadRequest,
			fmt.Errorf("serve: batch_seq needs a client id and a non-negative value"))
		return
	}
	if !s.placer.Feasible(j, cands) {
		s.fail(w, http.StatusUnprocessableEntity,
			fmt.Errorf("serve: job (%d procs) fits no posted cluster that is not cordoned", j.RequestedProcs))
		return
	}
	deduped := false
	if s.fairness != nil {
		rec := walRecord{Kind: "batch", Clusters: rb.wcs[:0]}
		if rb.batchSeq != nil {
			rec.Client, rec.Seq = rb.client, rb.batchSeq
		}
		for _, cl := range rb.clusters {
			for k := range cl.Completed {
				if wd := &cl.Completed[k]; wd.Wait < 0 || wd.Run < 0 {
					s.fail(w, http.StatusBadRequest,
						fmt.Errorf("serve: cluster %q completed job %d needs non-negative wait and run_time", cl.Name, k))
					return
				}
			}
			if len(cl.Completed) > 0 {
				rec.Clusters = append(rec.Clusters, walCluster{Name: cl.Name, Done: cl.Completed})
			}
		}
		rb.wcs = rec.Clusters
		// Fold them in before scoring, so the placement below already sees
		// them: dedup check, WAL append (when configured), then Observe.
		applied, err := s.durable.commit(&rec)
		if err != nil {
			// The WAL refused the batch; acking it would promise a
			// durability the disk did not deliver.
			s.fail(w, http.StatusInternalServerError, err)
			return
		}
		deduped = !applied
	}
	// ?explain=1 asks for the per-plugin score table in the response; the
	// decision ring wants the same trace for /debug/decisions. Either way
	// the pick is identical to the plain scored path (pinned by tests).
	wantExplain := r.URL.Query().Get("explain") == "1"
	var ex *obs.Explain
	if wantExplain || s.ring != nil {
		ex = new(obs.Explain)
	}
	pick := cands[s.placer.PlaceExplained(j, cands, rb.scores, ex)]
	if s.ring != nil {
		s.ring.Placement(&obs.PlacementDecision{
			Time:       time.Since(s.start).Seconds(),
			Router:     s.placer.Name(),
			Job:        obs.Ref(j),
			Winner:     pick.Index,
			Cluster:    pick.Name,
			TieBreak:   ex.TieBreak,
			Candidates: ex.Candidates,
		})
	}

	resp := appendStr(rb.resp[:0], `{"cluster":`, pick.Name)
	resp = appendInt(resp, `,"shard":`, pick.Index)
	resp = appendStr(resp, `,"router":`, s.placer.Name())
	if deduped {
		// The completion batch was a replay; the placement answer stands
		// but nothing was (re-)absorbed.
		resp = append(resp, `,"deduped":true`...)
	}
	if s.fairness != nil {
		// Per-user state exposure: the tracked service of the job's user
		// against the all-user mean, as the fairness plugin saw it.
		userMean, jobs, fleetMean := s.fairness.UserState(j.UserID)
		resp = appendNum(resp, `,"fairness":{"user_mean_bsld":`, userMean)
		resp = appendInt(resp, `,"user_jobs":`, jobs)
		resp = append(appendNum(resp, `,"fleet_mean_bsld":`, fleetMean), '}')
	}
	if !wantExplain {
		ex = nil
	}
	s.metrics.CountPlacement(pick.Index)
	s.finishPlacement(w, start, &s.metrics.PlaceLatency, resp, rb, ex)
}

// finishPlacement is the response half /place and /migrate share: the
// "scores" object covering every unfiltered (non-NaN) candidate, the
// ?explain=1 trace when ex is set, the write, and the latency accounting.
func (s *Server) finishPlacement(w http.ResponseWriter, start time.Time, lat *Histogram, resp []byte, rb *reqBuf, ex *obs.Explain) {
	resp = append(resp, `,"scores":{`...)
	first, scores := true, rb.scores
	for i, c := range rb.cands {
		if scores[i] != scores[i] { // NaN: filtered out
			continue
		}
		if !first {
			resp = append(resp, ',')
		}
		first = false
		resp = strconv.AppendQuote(resp, c.Name)
		resp = append(resp, ':')
		resp = strconv.AppendFloat(resp, scores[i], 'g', 6, 64)
	}
	resp = append(resp, '}')
	if ex != nil {
		// The full pipeline trace: per candidate, each plugin's weight and
		// normalized score plus filter verdicts — json.Marshal here, off
		// the default fast path.
		exJSON, err := json.Marshal(ex)
		if err != nil {
			s.fail(w, http.StatusInternalServerError, err)
			return
		}
		resp = append(resp, `,"explain":`...)
		resp = append(resp, exJSON...)
	}
	rb.resp = append(resp, '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Write(rb.resp)

	lat.ObserveDuration(time.Since(start))
}

// handleMigrate answers whether a queued job should move off its current
// cluster: re-score it through the placement pipeline and hand the scores
// to fleet.MoveVerdict — the hysteresis margin and the start-now gate
// (free capacity and an empty queue at the destination) the offline
// migration controller applies under fleet.HysteresisMigration. The daemon
// is stateless: it recommends; the caller moves.
func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rb, from := s.decodePlacement(w, r, true)
	if rb == nil {
		return
	}
	defer reqBufPool.Put(rb)
	j, cands, scores := &rb.job, rb.cands, rb.scores
	best := s.placer.PlaceScored(j, cands, scores)
	// The start-now gate is the sweep's own, asked of the posted state.
	dst, reason, margin := fleet.MoveVerdict(scores, from, best, s.migrateMargin, func() bool { return fleet.StartsNow(cands[best], j) })
	move := dst != from

	resp := append(rb.resp[:0], `{"migrate":`...)
	resp = strconv.AppendBool(resp, move)
	resp = appendStr(resp, `,"reason":`, reason)
	resp = appendStr(resp, `,"cluster":`, cands[dst].Name)
	resp = appendStr(resp, `,"from":`, rb.from)
	if cur := scores[from]; cur == cur {
		// "margin" is the recommended cluster's lead over a scored
		// incumbent: the verdict's margin on a move, 0 on a stay.
		if !move {
			margin = 0
		}
		resp = appendNum(resp, `,"margin":`, margin)
	}
	resp = appendStr(resp, `,"router":`, s.placer.Name())
	s.metrics.MigrateChecksTotal.Add(1)
	if move {
		s.metrics.CountMigration(cands[dst].Index)
	}
	s.finishPlacement(w, start, &s.metrics.MigrateLatency, resp, rb, nil)
}
