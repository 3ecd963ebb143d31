package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"rlsched/internal/nn"
	"rlsched/internal/obs"
	"rlsched/internal/serve"
	"rlsched/internal/sim"
	"rlsched/internal/telemetry"
)

// The traced pass of the serving workloads. Part one is the workload
// itself with spans on: the request ladder (socket, handler, engine) and
// its cost. Part two calls single layers directly, with no load around
// them, to split what the spans cannot see from outside.

// requestLadder is what the spans of a closed-loop phase add up to.
type requestLadder struct {
	clients, handlers, engineCalls, engineStates int
	client, handler, engine                      time.Duration // sums
	// engineBlocked is what requests waited for engines: a batched call
	// holds every request whose state it carries for its whole duration.
	engineBlocked time.Duration
}

func readLadder(spans []span) requestLadder {
	var l requestLadder
	for _, s := range spans {
		switch s.name {
		case spanClient:
			l.clients++
			l.client += s.dur()
		case spanHandler:
			l.handlers++
			l.handler += s.dur()
		case spanEngine:
			l.engineCalls++
			l.engineStates += s.n
			l.engine += s.dur()
			l.engineBlocked += s.dur() * time.Duration(s.n)
		}
	}
	return l
}

// tracedLoad drives the fixture in the open loop at rate, for the
// generator's own lateness, then in the closed loop, untraced and traced,
// and reports the request ladder of the traced part. place selects the
// /place metric names.
func (r *run) tracedLoad(fx *servingFixture, log *spanLog, rate float64, place bool) error {
	g := fx.gen
	part := seconds(r.sc.seconds / 5)
	r.count(g.closed(part / 2)) // warm-up

	open := g.open(rate, part)
	r.count(open)
	if open.grew {
		r.problem("traced open loop: backlog still growing at %g req/s", rate)
	}
	r.set("loadgen.late_p99_ms", ms(quantile(open.late, 0.99)), fmt.Sprintf("send time - due time at %g req/s, n=%d", rate, len(open.late)))
	r.set("loadgen.backlog_max", float64(open.backlog), "deepest dispatcher queue")

	// Untraced and traced slices alternate, so that drift in the server
	// (heap, WAL segment, fairness state) lands on both alike.
	const slices = 8
	m := fx.server.srv.Metrics()
	var spans []span
	if err := r.ladder("us", func() (layers, whole float64, err error) {
		var bare, traced phase
		var hits, misses uint64
		mem := startMem()
		for s := 0; s < slices; s++ {
			p := g.closed(part / slices)
			bare.merge(p)
			bare.wall += p.wall
			h0, m0 := m.CacheHits.Load(), m.CacheMisses.Load()
			log.on.Store(true)
			p = g.closed(part / slices)
			log.on.Store(false)
			traced.merge(p)
			traced.wall += p.wall
			hits, misses = hits+m.CacheHits.Load()-h0, misses+m.CacheMisses.Load()-m0
		}
		mem.report(r, float64(bare.attempted+traced.attempted))
		r.count(bare)
		r.count(traced)
		spans = log.take()

		l := readLadder(spans)
		if len(bare.lat) == 0 || l.clients == 0 || l.handlers != l.clients || l.engineCalls == 0 {
			return 0, 0, fmt.Errorf("span bookkeeping: %d round trips, %d handler spans, %d engine calls", l.clients, l.handlers, l.engineCalls)
		}
		n := float64(l.clients)
		httpSelf := us(l.client-l.handler) / n
		handlerSelf := us(l.handler-l.engineBlocked) / n
		enginePerReq := us(l.engineBlocked) / n
		r.set("serve.http_self_us", httpSelf, fmt.Sprintf("round trip - handler span, n=%d", l.clients))
		r.set("serve.engine_us", us(l.engine)/float64(l.engineCalls), fmt.Sprintf("one DecideBatch, n=%d", l.engineCalls))
		r.set("serve.engine_states_per_call", float64(l.engineStates)/float64(l.engineCalls))
		r.set("serve.engine_calls_per_req", float64(l.engineCalls)/n)
		if place {
			r.set("serve.place_handler_self_us", handlerSelf, "handler span - engine spans: read, encoding/json, fairness, WAL, encode")
			r.set("serve.place_engine_us", enginePerReq, "engine spans of one request")
		} else {
			r.set("serve.handler_self_us", handlerSelf, "handler span - engine span: read, parse, cache, batch wait, encode")
		}
		if hits+misses > 0 {
			r.set("serve.cache_hit_ratio", float64(hits)/float64(hits+misses), fmt.Sprintf("%d hits, %d misses", hits, misses))
		}
		bareRate := float64(len(bare.lat)) / bare.wall.Seconds()
		tracedRate := float64(len(traced.lat)) / traced.wall.Seconds()
		r.set("trace_overhead_share", (bareRate-tracedRate)/bareRate, fmt.Sprintf("(%.0f - %.0f req/s) / untraced", bareRate, tracedRate))
		return httpSelf + handlerSelf + enginePerReq, us(bare.rtt) / float64(len(bare.lat)), nil
	}); err != nil {
		return err
	}

	link(spans, map[string]string{spanHandler: spanClient, spanEngine: spanHandler})
	path := filepath.Join(r.outDir, "trace_"+r.workload+".json")
	if err := writeChromeTrace(path, spans); err != nil {
		return err
	}
	r.printf("  wrote %s (%d of %d spans)\n", path, min(len(spans), maxTraceSpans), len(spans))
	return nil
}

// recorder is the in-memory http.ResponseWriter of the no-socket rungs.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *recorder) Header() http.Header         { return w.header }
func (w *recorder) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *recorder) WriteHeader(code int)        { w.code = code }

// direct times h.ServeHTTP on the bodies next yields for about d, without
// a socket, and returns the mean time of one request.
func (r *run) direct(h http.Handler, path string, d time.Duration, next func() []byte) time.Duration {
	w := &recorder{header: http.Header{}}
	return timeOp(d, func() {
		req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(next()))
		if err != nil {
			r.problem("%s: %v", path, err)
			return
		}
		w.code = http.StatusOK
		w.body.Reset()
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			r.problem("%s answered %d directly: %s", path, w.code, bytes.TrimSpace(w.body.Bytes()))
		}
	})
}

// withServer builds a server from cfg, hands its handler to f and closes
// it again.
func withServer(cfg serve.Config, f func(srv *serve.Server)) error {
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	f(srv)
	return nil
}

func traceDecide(r *run, cached bool) error {
	sc := r.sc
	log := newSpanLog()
	fx, err := buildDecide(r, cached, log)
	if err != nil {
		return err
	}
	defer fx.stop()
	if err := r.tracedLoad(fx, log, sc.decideRate, false); err != nil {
		return err
	}
	micro := seconds(sc.microSeconds)
	tr := fx.decide

	// The handler without a socket, on the workload's own request mix.
	k := int64(0)
	mix := func() []byte { k++; b, _ := tr.request(0, k); return b }
	r.set("serve.handler_direct_us", us(r.direct(fx.server.srv.Handler(), "/v1/decide", micro, mix)), "ServeHTTP into a recorder, one caller: the batch window is paid in full")
	// The same with SJF behind it: no forward pass, so what is left is
	// read + parse + batch window + encode.
	if err := withServer(serve.Config{PolicyName: "SJF"}, func(srv *serve.Server) {
		r.set("serve.heuristic_handler_us", us(r.direct(srv.Handler(), "/v1/decide", micro, mix)), "SJF engine: the floor without inference")
	}); err != nil {
		return err
	}
	// What a miss costs over having no cache: a cycle of bodies longer
	// than the cache against the cache on and off.
	first, cycle := 0, len(tr.bodies)
	if cached {
		first, cycle = sc.hotBodies, sc.uncachedBodies
	}
	allMiss := func() []byte { k++; return tr.bodies[first+int(k)%cycle] }
	var on, off time.Duration
	if err := withServer(serve.Config{Engine: fx.engine, DecisionCache: sc.cacheSize()}, func(srv *serve.Server) {
		on = r.direct(srv.Handler(), "/v1/decide", micro, allMiss)
	}); err != nil {
		return err
	}
	if err := withServer(serve.Config{Engine: fx.engine}, func(srv *serve.Server) {
		off = r.direct(srv.Handler(), "/v1/decide", micro, allMiss)
	}); err != nil {
		return err
	}
	r.set("serve.cache_miss_delta_us", us(on-off), "handler with the cache on and every body a miss - cache off, by difference")

	// The batch window as one lone request meets it.
	log.on.Store(true)
	batcher := serve.NewBatcher(&tracedEngine{Engine: fx.engine, log: log}, serve.BatcherConfig{})
	state := tr.sample[:1]
	decide := timeOp(micro, func() {
		if _, _, err := batcher.Decide(context.Background(), state); err != nil {
			r.problem("batcher: %v", err)
		}
	})
	batcher.Close()
	log.on.Store(false)
	calls := readLadder(log.take())
	r.set("serve.batch_wait_us", us(decide)-us(calls.engine)/float64(max(calls.engineCalls, 1)), "Batcher.Decide of one state at the default window - its engine span")

	r.inferenceLadder(tr.sample)
	r.histogramLadder()
	return nil
}

// inferenceLadder times the pieces of PolicyEngine.DecideBatch on the
// workload's own queue states: observation encoding and one forward pass
// per architecture.
func (r *run) inferenceLadder(states []*serve.QueueState) {
	micro := seconds(r.sc.microSeconds)
	maxObs, feat := r.sc.queueJobs, sim.JobFeatures
	obs := make([]float64, len(states)*maxObs*feat)
	k := 0
	r.set("sim.build_obs_us", us(timeOp(micro, func() {
		st := states[k%len(states)]
		sim.BuildObsInto(obs[:maxObs*feat], st.Jobs, st.Now, st.View, st.QueueLen, maxObs)
		k++
	})), fmt.Sprintf("BuildObsInto, %d jobs", maxObs))
	for i, st := range states {
		sim.BuildObsInto(obs[i*maxObs*feat:(i+1)*maxObs*feat], st.Jobs, st.Now, st.View, st.QueueLen, maxObs)
	}
	logits := make([]float64, len(states)*maxObs)
	rng := rand.New(rand.NewSource(r.seed))
	for _, rung := range []struct {
		metric, kind string
		batch        int
	}{
		{"nn.infer_kernel_us", "kernel", 1},
		{"nn.infer_kernel_b16_us", "kernel", len(states)},
		{"nn.infer_mlp_v2_us", "mlp-v2", 1},
		{"nn.infer_lenet_us", "lenet", 1},
	} {
		pol, err := nn.NewPolicy(rng, rung.kind, maxObs, feat)
		if err != nil {
			r.problem("%s: %v", rung.kind, err)
			continue
		}
		inf := nn.AsInferer(pol)
		in, out := obs[:rung.batch*maxObs*feat], logits[:rung.batch*maxObs]
		r.set(rung.metric, us(timeOp(micro, func() { inf.InferLogits(in, rung.batch, out) })),
			fmt.Sprintf("InferLogits, batch %d", rung.batch))
	}
	val := nn.NewValueNet(rng, maxObs, feat, nil)
	var v [1]float64
	r.set("nn.infer_value_us", us(timeOp(micro, func() { val.InferValues(obs[:maxObs*feat], 1, v[:]) })), "InferValues, batch 1")
}

// histogramLadder times the two histograms a request observes its latency
// into: the lock-free /metrics one and the SLO monitor's windowed one.
func (r *run) histogramLadder() {
	const batch = 1024 // observations per timed call, so the clock is not the cost
	micro := seconds(r.sc.microSeconds)
	m := serve.NewMetrics()
	r.set("serve.hist_observe_ns", float64(timeOp(micro, func() {
		for i := 0; i < batch; i++ {
			m.Latency.Observe(float64(i) * 1e-6)
		}
	}))/batch, "serve.Histogram.Observe")
	h := telemetry.NewHistogram(telemetry.LogBounds(50e-6, 10, 9), 30, 10)
	now := 0.0
	r.set("telemetry.hist_observe_ns", float64(timeOp(micro, func() {
		for i := 0; i < batch; i++ {
			now += 1e-4
			h.Observe(now, float64(i)*1e-6)
		}
	}))/batch, "telemetry.Histogram.Observe, the SLO monitor's bounds and window")
}

func tracePlace(r *run) error {
	sc := r.sc
	log := newSpanLog()
	fx, err := buildPlace(r, log)
	if err != nil {
		return err
	}
	defer fx.stop()
	if err := r.tracedLoad(fx, log, sc.placeRate, true); err != nil {
		return err
	}
	r.checkDurable(fx)
	t := fx.place

	// The same bodies, no socket, against three daemons that differ in one
	// thing each: fairness off, fairness on, fairness on and durable. A
	// request takes milliseconds here, so each rung runs four times as long
	// as a microsecond-scale one.
	rungTime := seconds(4 * sc.microSeconds)
	bytesSent, sent := 0, 0
	k := int64(0)
	next := func() []byte {
		k++
		b, _ := t.request(0, k)
		bytesSent += len(b)
		sent++
		return b
	}
	var plain, fair, durable time.Duration
	for _, rung := range []struct {
		fair bool
		dir  string
		out  *time.Duration
	}{
		{false, "", &plain},
		{true, "", &fair},
		{true, filepath.Join(fx.dir, "ladder"), &durable},
	} {
		cfg, err := placeConfig(r.seed, sc, nil, rung.fair, rung.dir)
		if err != nil {
			return err
		}
		cfg.CheckpointInterval = 0 // the WAL alone: the directory grows by what batches append
		if err := withServer(cfg, func(srv *serve.Server) {
			*rung.out = r.direct(srv.Handler(), "/place", rungTime, next)
			if rung.dir != "" {
				records := srv.Metrics().WALRecordsTotal.Load()
				r.set("serve.wal_records", float64(records), "rlserv_wal_records_total of the durable rung")
				r.set("serve.wal_bytes_per_batch", float64(dirBytes(rung.dir))/float64(max(records, 1)), "checkpoint directory growth / acknowledged batches")
			}
		}); err != nil {
			return err
		}
	}
	r.set("serve.fair_delta_us", us(fair-plain), "fairness on - off, by difference")
	r.set("serve.durable_delta_us", us(durable-fair), "checkpoint directory on - off, by difference")
	r.set("serve.place_req_bytes", float64(bytesSent)/float64(sent))
	r.set("disk.fsync_us", fsyncMicros(fx.dir, 64), "256-byte append + fsync in the checkpoint directory, median")

	cfg, err := placeConfig(r.seed, sc, nil, false, "")
	if err != nil {
		return err
	}
	cfg.Migrate, cfg.MigrateMargin = true, 0.25
	migrate := []byte(`{"job":[-600,3600,8,1],"from":"s0",` + string(t.probe) + `}`)
	if err := withServer(cfg, func(srv *serve.Server) {
		r.set("serve.migrate_handler_us", us(r.direct(srv.Handler(), "/migrate", rungTime, func() []byte { return migrate })), "/migrate on the same cluster states")
	}); err != nil {
		return err
	}

	// The decision ring every /place writes into.
	ring := obs.NewRing(256)
	evt := obs.PlacementDecision{Router: "engine-scored", Cluster: "s0", Candidates: make([]obs.CandidateTrace, len(shardSizes))}
	for i := range evt.Candidates {
		evt.Candidates[i] = obs.CandidateTrace{Index: i, Name: "s", Feasible: true, Plugins: make([]obs.PluginScore, 3)}
	}
	r.set("obs.ring_placement_ns", float64(timeOp(seconds(sc.microSeconds), func() { ring.Placement(&evt) })), "Ring.Placement, 8 candidates x 3 plugins")
	r.histogramLadder()
	return nil
}

// dirBytes is the total size of the regular files directly in dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
