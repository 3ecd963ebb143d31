package fleet

import (
	"bytes"
	"math"
	"testing"

	"rlsched/internal/job"
	"rlsched/internal/telemetry"
)

// TestSamplingParityNoMigration pins the tentpole guarantee: a run with
// health sampling enabled is byte-identical to the same run without it.
func TestSamplingParityNoMigration(t *testing.T) {
	for _, tc := range []struct {
		name     string
		members  func() []MemberConfig
		stream   []*job.Job
		interval float64
	}{
		{"lublin", heteroMembers, lublinStream(t, 250, 29), 500},
		{"coincident-horizon", strandedMembers, coincidentHorizon(), 50},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, err := New(tc.members(), LeastLoadedPipeline())
			if err != nil {
				t.Fatal(err)
			}
			baseRes, err := base.Run(cloneStream(tc.stream))
			if err != nil {
				t.Fatal(err)
			}

			set := telemetry.NewSet()
			sampled, err := New(tc.members(), LeastLoadedPipeline())
			if err != nil {
				t.Fatal(err)
			}
			if err := sampled.EnableSampling(SamplingConfig{Interval: tc.interval, Set: set}); err != nil {
				t.Fatal(err)
			}
			sampledRes, err := sampled.Run(cloneStream(tc.stream))
			if err != nil {
				t.Fatal(err)
			}

			if a, b := marshalResult(t, baseRes), marshalResult(t, sampledRes); !bytes.Equal(a, b) {
				t.Fatalf("results differ with sampling enabled (fleet util %g vs %g)",
					baseRes.Fleet.Utilization, sampledRes.Fleet.Utilization)
			}
			if tc.name == "lublin" { // checkSeries knows heteroMembers' names
				checkSeries(t, set, len(tc.stream))
			}
		})
	}
}

// TestSamplingParityWithMigration repeats the parity check with migration
// sweeps interleaved between sample ticks, at intervals chosen to collide
// (sweep 300, sample 450 — every second sample tick lands mid-interval,
// every third coincides with a sweep).
func TestSamplingParityWithMigration(t *testing.T) {
	stream := lublinStream(t, 250, 31)

	build := func() *Fleet {
		f, err := New(heteroMembers(), LeastLoadedPipeline())
		if err != nil {
			t.Fatal(err)
		}
		if err := f.EnableMigration(HysteresisMigration(300)); err != nil {
			t.Fatal(err)
		}
		return f
	}

	base := build()
	baseRes, err := base.Run(cloneStream(stream))
	if err != nil {
		t.Fatal(err)
	}

	set := telemetry.NewSet()
	sampled := build()
	if err := sampled.EnableSampling(SamplingConfig{Interval: 450, Set: set}); err != nil {
		t.Fatal(err)
	}
	sampledRes, err := sampled.Run(cloneStream(stream))
	if err != nil {
		t.Fatal(err)
	}

	if a, b := marshalResult(t, baseRes), marshalResult(t, sampledRes); !bytes.Equal(a, b) {
		t.Fatal("results differ with sampling enabled alongside migration")
	}
	checkSeries(t, set, len(stream))

	// Migration counters must reconcile: the per-interval deltas sum to
	// the run's total moves (each move lands in exactly one MovedIn).
	total := 0.0
	for _, p := range set.Series("fleet.migrations").Points {
		total += p.V
	}
	moves := 0
	for _, c := range sampledRes.Clusters {
		moves += c.MovedIn
	}
	if int(total) != moves {
		t.Fatalf("sampled migration deltas sum to %g, run reported %d moves", total, moves)
	}
}

// checkSeries asserts the structural invariants of a sampled run: the
// expected families exist, times are strictly increasing, every series
// ends at the same instant (the shared fleet horizon written by the final
// sample), and the completion counter ends at the full stream.
func checkSeries(t *testing.T, set *telemetry.Set, jobs int) {
	t.Helper()
	horizon := set.Series("fleet.completed").Last().T
	names := []string{
		"cluster.large.util", "cluster.mid.queue_depth", "cluster.small.pending_work",
		"cluster.large.running_work", "fleet.queue_depth", "fleet.pending_work",
		"fleet.running_work", "fleet.bsld_so_far", "fleet.completed",
		"fleet.fairness_jain", "fleet.migrations",
	}
	for _, n := range names {
		sr := set.Series(n)
		if len(sr.Points) == 0 {
			t.Fatalf("series %s missing or empty", n)
		}
		for i := 1; i < len(sr.Points); i++ {
			if sr.Points[i].T <= sr.Points[i-1].T {
				t.Fatalf("series %s: non-increasing time at %d", n, i)
			}
		}
		if last := sr.Last().T; last != horizon {
			t.Fatalf("series %s ends at %g, horizon is %g", n, last, horizon)
		}
	}
	if got := set.Series("fleet.completed").Last().V; got != float64(jobs) {
		t.Fatalf("final completed = %g, want %d", got, jobs)
	}
	if j := set.Series("fleet.fairness_jain").Last().V; j <= 0 || j > 1 {
		t.Fatalf("final Jain index %g outside (0, 1]", j)
	}
	for _, p := range set.Series("cluster.large.util").Points {
		if p.V < 0 || p.V > 1 {
			t.Fatalf("utilization sample %g outside [0, 1]", p.V)
		}
	}
}

func TestEnableSamplingValidation(t *testing.T) {
	f, err := New(heteroMembers(), NewRoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.EnableSampling(SamplingConfig{Interval: 0, Set: telemetry.NewSet()}); err == nil {
		t.Fatal("zero interval must be rejected")
	}
	if err := f.EnableSampling(SamplingConfig{Interval: 100}); err == nil {
		t.Fatal("nil Set must be rejected")
	}
}

// benchmarkPlaceRun routes the scale suite's arrival stream through an
// 8-member fleet, with or without health sampling at 64 ticks over the
// stream's span. The sampled/unsampled gap is the telemetry overhead a
// monitored run pays; DESIGN.md §11 bounds it at a few percent, because
// sampling rides the event heap instead of adding sweeps.
func benchmarkPlaceRun(b *testing.B, sampled bool) {
	stream := scaleBenchStream()
	f, err := New(scaleBenchMembers(8), BinpackPipeline())
	if err != nil {
		b.Fatal(err)
	}
	if sampled {
		span := stream[len(stream)-1].SubmitTime - stream[0].SubmitTime
		cfg := SamplingConfig{Interval: math.Max(1, span/64), Set: telemetry.NewSet()}
		if err := f.EnableSampling(cfg); err != nil {
			b.Fatal(err)
		}
	}
	benchRun(b, f, stream)
}

// BenchmarkFleetPlaceRun is the unsampled Run baseline.
func BenchmarkFleetPlaceRun(b *testing.B) { benchmarkPlaceRun(b, false) }

// BenchmarkFleetPlaceRunSampled is BenchmarkFleetPlaceRun with periodic
// health sampling into a telemetry set.
func BenchmarkFleetPlaceRunSampled(b *testing.B) { benchmarkPlaceRun(b, true) }
