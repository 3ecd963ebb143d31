package main_test

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rlsched/internal/nn"
	"rlsched/internal/serve"
	"rlsched/internal/sim"
	"rlsched/internal/telemetry"
)

// Serving hot-path benchmarks: single-request decision latency and batched
// throughput through the full HTTP surface (parser → batcher → policy
// forward pass → response), the path future PRs must not regress. The
// decisions/s metric is the headline number of the serving subsystem.

func newBenchServer(b *testing.B, policyName string, cacheSize int) *httptest.Server {
	b.Helper()
	var cfg serve.Config
	cfg.DecisionCache = cacheSize
	if policyName != "" {
		cfg.PolicyName = policyName
	} else {
		rng := rand.New(rand.NewSource(5))
		pol, err := nn.NewPolicy(rng, "kernel", sim.DefaultMaxObserve, sim.JobFeatures)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := serve.NewPolicyEngine(pol)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Engine = eng
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

func benchServeDecide(b *testing.B, snapName, policyName string, statesPerReq, cacheSize int) {
	ts := newBenchServer(b, policyName, cacheSize)
	states, err := serve.SyntheticStates("Lublin-1", statesPerReq, sim.DefaultMaxObserve, 42)
	if err != nil {
		b.Fatal(err)
	}
	body := serve.EncodeStates(states)
	client := ts.Client()
	url := ts.URL + "/v1/decide"
	buf := make([]byte, 4096)
	// Whole-run latency distribution: unbounded telemetry histogram, same
	// bucket layout the load generator reports from.
	lat := telemetry.NewHistogram(telemetry.LogBounds(100e-6, 5, 6), 0, 0)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := resp.Body.Read(buf); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		lat.Observe(0, time.Since(t0).Seconds())
	}
	// Each decision places exactly one job, so jobs/s mirrors decisions/s;
	// reporting both keeps BENCH_*.json comparable with the training-epoch
	// benchmark's throughput trajectory.
	b.StopTimer()
	rate := float64(b.N) * float64(statesPerReq) / b.Elapsed().Seconds()
	p50, p95, p99 := lat.Quantile(0, 0.50), lat.Quantile(0, 0.95), lat.Quantile(0, 0.99)
	b.ReportMetric(rate, "decisions/s")
	b.ReportMetric(rate, "jobs/s")
	b.ReportMetric(p50*1e3, "p50-ms")
	b.ReportMetric(p95*1e3, "p95-ms")
	b.ReportMetric(p99*1e3, "p99-ms")
	writeBenchSnapshot(b, snapName, map[string]float64{
		"decisions_per_s": rate,
		"p50_seconds":     p50,
		"p95_seconds":     p95,
		"p99_seconds":     p99,
	})
}

// BenchmarkServeDecide is the single-request latency of one 128-job
// decision through the kernel policy network.
func BenchmarkServeDecide(b *testing.B) { benchServeDecide(b, "servedecide", "", 1, 0) }

// BenchmarkServeDecideBatched pipelines 16 queue states per request — the
// batched-throughput shape the load generator uses.
func BenchmarkServeDecideBatched(b *testing.B) { benchServeDecide(b, "servedecide_batched", "", 16, 0) }

// BenchmarkServeDecideHeuristic serves SJF instead of the network,
// isolating the HTTP+parse overhead from the forward pass.
func BenchmarkServeDecideHeuristic(b *testing.B) {
	benchServeDecide(b, "servedecide_heuristic", "SJF", 1, 0)
}

// BenchmarkServeDecideCached is BenchmarkServeDecide with the decision
// cache in front of the network: after the first request warms the entry,
// every decision is a cache hit — the steady state of a fleet whose
// clusters re-post unchanged queues between arrivals. The gap to the
// servedecide baseline is the forward pass the cache saves.
func BenchmarkServeDecideCached(b *testing.B) { benchServeDecide(b, "servecache", "", 1, 1024) }
