package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"rlsched/internal/fleet"
	"rlsched/internal/obs"
)

// Config assembles a Server.
type Config struct {
	// Engine is the initially served policy. Alternatively leave nil and
	// set ModelPath/PolicyName for LoadEngine.
	Engine Engine
	// ModelPath / PolicyName are the LoadEngine inputs. ModelPath is also
	// what a bare POST /reload re-reads, the "retrain in place, reload in
	// place" workflow.
	ModelPath  string
	PolicyName string
	// Workers caps the engine calls in flight per engine (0 = GOMAXPROCS).
	Workers int
	// MaxBodyBytes caps decision request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxStatesPerRequest caps the queue states one request may carry
	// (default 1024) — without it a single tiny-job batch request could
	// force an unboundedly large forward pass.
	MaxStatesPerRequest int
	// Shards, when set, runs the daemon in fleet mode: one engine per
	// cluster (served via /v1/decide?cluster=NAME, hot-swapped via
	// /reload with a "cluster" field) plus the POST /place placement
	// endpoint. With Shards set the base Engine/ModelPath/PolicyName may
	// be omitted; bare /v1/decide then serves the first shard.
	Shards []ShardConfig
	// PlaceRouter selects the placement pipeline: "engine" (default —
	// each shard's own policy scores the job), "least-loaded" or
	// "binpack".
	PlaceRouter string
	// Migrate enables the POST /migrate endpoint in fleet mode: re-score
	// a queued job against the posted cluster states and recommend
	// whether it should move off its current cluster.
	Migrate bool
	// MigrateMargin is the hysteresis margin a recommended move must
	// clear on the pipeline's normalized score scale. 0 disables the
	// hysteresis (any strict improvement clears it); the endpoint's
	// drained-destination gate applies regardless of the margin. The
	// rlservd flag defaults to 0.25, the fleet controller's recommended
	// policy.
	MigrateMargin float64
	// FairWeight, when positive, adds the stateful per-user fairness
	// plugin (fleet.FairnessScorer) to the /place pipeline with this
	// weight. The plugin's per-user bounded-slowdown shares grow from the
	// "completed" records clusters post with their /place states; the
	// aggregate view is exported as rlserv_fairness_score in /metrics and
	// each /place response carries the job's user state. Fleet mode only.
	FairWeight float64
	// FairWindow, when positive, decays the fairness tracker's per-user
	// shares with an effective window of about this many fleet-wide
	// completions (fleet.FairnessConfig.DecayWindow): the daemon then
	// judges users by their recent service, not its whole uptime. 0 keeps
	// full-history shares. Requires FairWeight > 0.
	FairWindow float64
	// CheckpointDir, when set, makes the fairness tracker durable
	// (durable.go): periodic atomic snapshots plus a write-ahead log of
	// /place completion batches in this directory, replayed on restart so
	// a kill -9 loses nothing past the last acked batch. Requires
	// FairWeight > 0 — the tracker is the only durable state.
	CheckpointDir string
	// CheckpointInterval is the snapshot period (the rlservd flag
	// defaults to 30s). Zero or negative disables the periodic loop:
	// the WAL still makes every batch durable, and Close still writes a
	// final snapshot.
	CheckpointInterval time.Duration
	// DecisionCache, when positive, puts an exact-match decision cache of
	// this many entries (cache.go) in front of the engines on /v1/decide
	// and the /place engine scorer, invalidated on every /reload. 0
	// disables it and keeps the serve path byte-identical.
	DecisionCache int
	// Pprof mounts the standard net/http/pprof profiling handlers under
	// /debug/pprof/ (opt-in; profiling endpoints on a daemon's serving
	// port are a production decision).
	Pprof bool
	// DecisionLog sizes the /debug/decisions ring buffer of recent /place
	// decisions (fleet mode). 0 takes the default of 256; negative
	// disables the ring and the endpoint.
	DecisionLog int
}

// Server is the decision service: an http.Handler that runs a swappable
// Engine under a Batcher's limit. NewServer, mount Handler, Close when done.
type Server struct {
	batcher   *Batcher
	metrics   *Metrics
	mux       *http.ServeMux
	modelPath string
	maxBody   int64
	maxStates int
	reloadMu  sync.Mutex // serializes /reload (swap itself is atomic)

	// Fleet mode (nil/empty otherwise): per-cluster shards, the
	// placement pipeline behind POST /place, the /migrate hysteresis
	// (negative = endpoint disabled), and the per-user fairness tracker
	// (nil unless FairWeight > 0).
	shards        []*shard
	shardIdx      map[string]int // name → index into shards
	placer        *fleet.Pipeline
	migrateMargin float64
	fairness      *fleet.FairnessScorer

	// durable owns the fairness tracker's checkpoint/WAL lifecycle and
	// the /place batch_seq dedup table (nil unless FairWeight > 0; the
	// dedup table works with or without a CheckpointDir).
	durable *durability

	// cache is the exact-match decision cache (nil unless DecisionCache
	// is positive — nil keeps the decide path byte-identical).
	cache *decisionCache

	// Observability: process start (rlserv_uptime_seconds and decision
	// timestamps count from it) and the /debug/decisions ring of recent
	// placement decisions (nil when disabled or outside fleet mode).
	start time.Time
	ring  *obs.Ring
}

// NewServer builds the service.
func NewServer(cfg Config) (*Server, error) {
	s := &Server{
		metrics:   NewMetrics(),
		mux:       http.NewServeMux(),
		modelPath: cfg.ModelPath,
		maxBody:   cfg.MaxBodyBytes,
		maxStates: cfg.MaxStatesPerRequest,
		start:     time.Now(),
	}
	if s.maxBody <= 0 {
		s.maxBody = 8 << 20
	}
	if s.maxStates <= 0 {
		s.maxStates = 1024
	}
	if err := s.initFleet(cfg); err != nil {
		s.Close()
		return nil, err
	}
	if cfg.DecisionCache < 0 {
		s.Close()
		return nil, fmt.Errorf("serve: decision cache size must be non-negative, got %d", cfg.DecisionCache)
	}
	if cfg.DecisionCache > 0 {
		s.cache = newDecisionCache(cfg.DecisionCache, s.metrics)
	}
	if cfg.CheckpointDir != "" && s.fairness == nil {
		s.Close()
		return nil, fmt.Errorf("serve: -checkpoint-dir needs the fairness tracker (-fair-weight > 0) — it is the only durable state")
	}
	if s.fairness != nil {
		// The durability layer also owns the batch_seq dedup table, so it
		// exists whenever the tracker does; without a CheckpointDir it
		// simply never touches disk.
		d, err := newDurability(cfg.CheckpointDir, cfg.CheckpointInterval, durableDeps{
			fairness: s.fairness,
			clusterIndex: func(name string) int {
				i, _ := s.shardByName(name)
				return i
			},
			clusterName: func(idx int) string {
				if idx < 0 || idx >= len(s.shards) {
					return ""
				}
				return s.shards[idx].name
			},
			markDrained: func(idx int) { s.shards[idx].cordoned.Store(true) },
			metrics:     s.metrics,
		})
		if err != nil {
			s.Close()
			return nil, err
		}
		s.durable = d
	}
	if cfg.Engine == nil && cfg.ModelPath == "" && cfg.PolicyName == "" && len(s.shards) > 0 {
		// Fleet-only daemon: bare /v1/decide serves the first shard.
		s.batcher = s.shards[0].batcher
	} else {
		eng, err := engineOrLoad(cfg.Engine, cfg.ModelPath, cfg.PolicyName)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.batcher = NewBatcher(eng, BatcherConfig{Workers: cfg.Workers, Metrics: s.metrics})
	}
	if len(s.shards) > 0 && cfg.DecisionLog >= 0 {
		n := cfg.DecisionLog
		if n == 0 {
			n = 256
		}
		s.ring = obs.NewRing(n)
	}
	s.mux.HandleFunc("/v1/decide", s.handleDecide)
	s.mux.HandleFunc("/place", s.handlePlace)
	s.mux.HandleFunc("/migrate", s.handleMigrate)
	s.mux.HandleFunc("/reload", s.handleReload)
	s.mux.HandleFunc("/drain", s.handleDrain)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/debug/decisions", s.handleDecisions)
	if cfg.Pprof {
		// The standard profiling surface, mounted only on request: CPU
		// and heap profiles of a live daemon without a restart.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Handler returns the HTTP surface of the service.
func (s *Server) Handler() http.Handler { return s.mux }

// Engine returns the currently served engine.
func (s *Server) Engine() Engine { return s.batcher.Engine() }

// Metrics exposes the instrumentation registry (read-only use intended).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close shuts the durability layer down and closes every batcher
// (Batcher.Close is idempotent, so the fleet-only aliasing of the base
// batcher onto shard 0 is harmless).
func (s *Server) Close() {
	if s.durable != nil {
		// Final snapshot: a graceful shutdown restores without replay.
		s.durable.close()
	}
	if s.batcher != nil {
		s.batcher.Close()
	}
	for _, sh := range s.shards {
		sh.batcher.Close()
	}
}

// Shards lists the fleet shard names in registration order (empty outside
// fleet mode).
func (s *Server) Shards() []string {
	names := make([]string, len(s.shards))
	for i, sh := range s.shards {
		names[i] = sh.name
	}
	return names
}

func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: POST only"))
		return
	}
	batcher, tag := s.batcher, -1
	if name := r.URL.Query().Get("cluster"); name != "" {
		idx, sh := s.shardByName(name)
		if sh == nil {
			s.fail(w, http.StatusNotFound, fmt.Errorf("serve: unknown cluster %q", name))
			return
		}
		batcher, tag = sh.batcher, idx
	}
	start := time.Now()
	rb := s.readRequest(w, r, (*reqBuf).parseDecide)
	if rb == nil {
		return
	}
	defer reqBufPool.Put(rb)
	if err := rb.validate(); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if len(rb.states) > s.maxStates {
		s.fail(w, http.StatusBadRequest,
			fmt.Errorf("serve: request carries %d states, limit %d", len(rb.states), s.maxStates))
		return
	}
	states := rb.stPtr
	decs, policy, err := s.decideCached(r.Context(), batcher, tag, states)
	if err != nil {
		s.fail(w, http.StatusServiceUnavailable, err)
		return
	}
	rb.resp = rb.appendResponse(rb.resp[:0], decs, policy)
	w.Header().Set("Content-Type", "application/json")
	w.Write(rb.resp)

	s.metrics.RequestsTotal.Add(1)
	s.metrics.DecisionsTotal.Add(uint64(len(states)))
	s.metrics.Latency.ObserveDuration(time.Since(start))
}

// reloadSpec is the /reload request body. An empty body re-reads the
// daemon's original -model path. With a cluster set, the named fleet
// shard's engine is swapped instead of the base engine (model or policy
// required — shards have no original path to re-read).
type reloadSpec struct {
	Model   string `json:"model"`
	Policy  string `json:"policy"`
	Cluster string `json:"cluster"`
}

// maxSpecBytes caps the /reload and /drain request bodies.
const maxSpecBytes = 1 << 20

// readSpec is the front /reload and /drain share: POST only, the body cap
// decided before anything is parsed (413 over it, as on /v1/decide), then
// the JSON decoded into spec; with emptyOK an empty body is a zero spec. It
// writes the error response itself and reports whether to go on.
func (s *Server) readSpec(w http.ResponseWriter, r *http.Request, spec any, emptyOK bool) bool {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: POST only"))
		return false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	switch {
	case err != nil:
		s.fail(w, http.StatusBadRequest, err)
	case len(body) > maxSpecBytes:
		s.fail(w, http.StatusRequestEntityTooLarge, fmt.Errorf("serve: body over %d bytes", maxSpecBytes))
	case len(body) == 0 && emptyOK:
		return true
	default:
		if err = json.Unmarshal(body, spec); err == nil {
			return true
		}
		s.fail(w, http.StatusBadRequest, fmt.Errorf("serve: bad %s spec: %w", r.URL.Path, err))
	}
	return false
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var spec reloadSpec
	if !s.readSpec(w, r, &spec, true) {
		return
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	// A bare reload re-reads the base engine's -model path; where there is
	// none (a shard, a -policy daemon) LoadEngine refuses the empty spec.
	target, reread, prefix := s.batcher, s.modelPath, ""
	if spec.Cluster != "" {
		_, sh := s.shardByName(spec.Cluster)
		if sh == nil {
			s.fail(w, http.StatusNotFound, fmt.Errorf("serve: unknown cluster %q", spec.Cluster))
			return
		}
		target, reread, prefix = sh.batcher, "", fmt.Sprintf("\"cluster\":%q,", sh.name)
	}
	if spec.Model == "" && spec.Policy == "" {
		spec.Model = reread
	}
	eng, err := LoadEngine(spec.Model, spec.Policy)
	if err != nil {
		// The old engine keeps serving; a bad reload is not an outage.
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if spec.Cluster == "" && spec.Model != "" {
		s.modelPath = spec.Model
	}
	target.Swap(eng)
	if s.cache != nil {
		s.cache.invalidate()
	}
	s.metrics.ReloadsTotal.Add(1)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{%s\"policy\":%q}\n", prefix, eng.Name())
}

// buildVersions reads the daemon's own build identity from the binary:
// the Go toolchain version and the VCS revision the binary was built at
// ("unknown" when the build carried no VCS stamp, e.g. test binaries).
func buildVersions() (goVersion, revision string) {
	goVersion, revision = runtime.Version(), "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, st := range bi.Settings {
			if st.Key == "vcs.revision" && st.Value != "" {
				revision = st.Value
			}
		}
	}
	return goVersion, revision
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteProm(w, s.batcher.Engine().Name())
	goVersion, revision := buildVersions()
	promFamily(w, "rlserv_build_info", "Build identity (always 1, toolchain and revision in the labels).", "gauge")
	fmt.Fprintf(w, "rlserv_build_info{go_version=%q,revision=%q} 1\n", goVersion, revision)
	promFamily(w, "rlserv_uptime_seconds", "Seconds since the daemon started.", "gauge")
	fmt.Fprintf(w, "rlserv_uptime_seconds %g\n", time.Since(s.start).Seconds())
	if s.fairness != nil {
		// The fairness tracker's live view of per-user service: Jain's
		// index and worst-user stats over the tracked bounded-slowdown
		// means (1/1/0 until any completions have been posted).
		rep := s.fairness.Report()
		promFamily(w, "rlserv_fairness_score", "Per-user fairness of tracked bounded-slowdown shares.", "gauge")
		fmt.Fprintf(w, "rlserv_fairness_score{stat=%q} %g\n", "jain", rep.Jain)
		fmt.Fprintf(w, "rlserv_fairness_score{stat=%q} %g\n", "max_mean_ratio", rep.MaxMeanRatio)
		fmt.Fprintf(w, "rlserv_fairness_score{stat=%q} %g\n", "max_user_bsld", rep.Max)
		fmt.Fprintf(w, "rlserv_fairness_score{stat=%q} %d\n", "users", rep.Users)
	}
	if s.cache != nil {
		promCounter(w, "rlserv_decision_cache_hits_total", "Decisions answered from the decision cache.",
			s.metrics.CacheHits.Load())
		promCounter(w, "rlserv_decision_cache_misses_total", "Decisions that went to an engine.",
			s.metrics.CacheMisses.Load())
	}
	if s.durable != nil {
		promCounter(w, "rlserv_place_dedup_total", "Completion batches dropped as batch_seq replays.",
			s.metrics.PlaceDedupTotal.Load())
		promCounter(w, "rlserv_wal_records_total", "Records appended to the write-ahead log.",
			s.metrics.WALRecordsTotal.Load())
		promCounter(w, "rlserv_checkpoints_total", "Fairness snapshots written.",
			s.metrics.CheckpointsTotal.Load())
		healthy := 1
		if s.durable.walHealth() != nil {
			healthy = 0
		}
		promFamily(w, "rlserv_wal_healthy", "0 while a failed append poisons the WAL segment (batches and drains answer 500), else 1.", "gauge")
		fmt.Fprintf(w, "rlserv_wal_healthy %d\n", healthy)
	}
	if len(s.shards) > 0 {
		promFamily(w, "rlserv_shard_drained", "1 when the shard is cordoned by /drain, else 0.", "gauge")
		for _, sh := range s.shards {
			v := 0
			if sh.cordoned.Load() {
				v = 1
			}
			fmt.Fprintf(w, "rlserv_shard_drained{cluster=%q} %d\n", sh.name, v)
		}
	}
}

// handleDecisions serves the /debug/decisions ring: the n most recent
// /place decisions (newest first, full per-plugin candidate traces) plus
// the lifetime total. n defaults to 32; n=0 or n beyond the ring returns
// everything retained.
func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	if s.ring == nil {
		s.fail(w, http.StatusNotFound,
			fmt.Errorf("serve: decision log not enabled (fleet mode without -decision-log -1)"))
		return
	}
	n := 32
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("serve: bad n %q", q))
			return
		}
		n = v
		if n == 0 {
			n = -1 // everything retained
		}
	}
	out := struct {
		Total     uint64                  `json:"total"`
		Decisions []obs.PlacementDecision `json:"decisions"`
	}{Total: s.ring.Total(), Decisions: s.ring.Last(n)}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(out)
}

// drainSpec is the /drain request body.
type drainSpec struct {
	Cluster string `json:"cluster"`
}

// handleDrain cordons one fleet shard, the online twin of Fleet.Drain
// retiring a member: the shard is excluded from /place and /migrate
// destinations (its /v1/decide keeps answering — jobs already queued
// there still need an order), its fairness per-cluster shares are retired
// through the ClusterRetirer contract, and /readyz reports 503 so the
// control plane sees a fleet running below strength. Draining is durable
// (WAL + snapshot) and idempotent; there is no online undrain — a
// restored member re-registers by restarting the daemon without the
// cordon, matching the fleet simulator's churn model.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	var spec drainSpec
	if !s.readSpec(w, r, &spec, false) {
		return
	}
	if len(s.shards) == 0 {
		s.fail(w, http.StatusNotFound, fmt.Errorf("serve: not running in fleet mode"))
		return
	}
	_, sh := s.shardByName(spec.Cluster)
	if sh == nil {
		s.fail(w, http.StatusNotFound, fmt.Errorf("serve: unknown cluster %q", spec.Cluster))
		return
	}
	var already bool
	if s.durable != nil {
		// The cordon is journaled before markDrained flips it: once a
		// placement can see the cordon, a crash must not forget it.
		applied, err := s.durable.commit(&walRecord{Kind: "drain", Cluster: sh.name})
		if err != nil {
			s.fail(w, http.StatusInternalServerError, err)
			return
		}
		already = !applied
	} else {
		already = sh.cordoned.Swap(true)
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"cluster\":%q,\"drained\":true,\"already\":%t}\n", sh.name, already)
}

// handleHealthz is the liveness probe: the process is up and names the
// policy it serves.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintf(w, "ok policy=%s\n", s.batcher.Engine().Name())
}

// handleReadyz is the readiness probe: not ready while a poisoned WAL
// refuses completion batches or a shard is drained.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.durable != nil {
		if err := s.durable.walHealth(); err != nil {
			// Completion batches are being refused; take the daemon out of
			// rotation until a checkpoint opens a fresh segment.
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "wal unhealthy: %v\n", err)
			return
		}
	}
	var names []string
	for _, sh := range s.shards {
		if sh.cordoned.Load() {
			names = append(names, sh.name)
		}
	}
	if len(names) > 0 {
		// A cordoned shard means the fleet serves below strength; report
		// not-ready so the control plane replaces the member (there is no
		// online undrain).
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "drained clusters=%s\n", strings.Join(names, ","))
		return
	}
	fmt.Fprintf(w, "ready policy=%s\n", s.batcher.Engine().Name())
}

func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	s.metrics.ErrorsTotal.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
}

// readRequest is the front /v1/decide, /place and /migrate share: the body
// read into a pooled reqBuf, the cap decided (413) before anything is
// parsed, then parse, the scanner, whose refusal is a 400 naming the
// construct and its byte offset. On failure it writes the response and
// returns nil; otherwise the caller puts the reqBuf back in the pool when
// its handler returns.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, parse func(*reqBuf, []byte) error) *reqBuf {
	rb := reqBufPool.Get().(*reqBuf)
	rb.reset()
	var err error
	rb.body, err = readAllInto(rb.body[:0], io.LimitReader(r.Body, s.maxBody+1))
	switch {
	case err != nil:
		s.fail(w, http.StatusBadRequest, err)
	case int64(len(rb.body)) > s.maxBody:
		s.fail(w, http.StatusRequestEntityTooLarge, fmt.Errorf("serve: body over %d bytes", s.maxBody))
	default:
		if err = parse(rb, rb.body); err == nil {
			return rb
		}
		s.fail(w, http.StatusBadRequest, fmt.Errorf("serve: bad %s request: %w", r.URL.Path, err))
	}
	reqBufPool.Put(rb)
	return nil
}

// readAllInto is io.ReadAll into a reusable buffer.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
