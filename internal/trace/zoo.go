package trace

import (
	"fmt"
	"io"
	"math/rand"
)

// The trace zoo (DESIGN.md §12): one registry over every workload this
// repository can generate — the six Table II archive models plus seeded
// chaos generators that push arrival burstiness, runtime tails and user
// skew past anything the archives contain. Experiments and both CLIs
// resolve zoo names through ZooTrace, and ZooStats summarizes the whole
// zoo in Table II form, so a scheduling claim can be checked against the
// full spectrum in one sweep. The tests' ChaosSWF rounds the zoo out on
// the parser side: a seeded hostile SWF byte stream (real archive header
// directives, malformed records, junk lines) that feeds the fuzz targets
// hardening the loaders.

// ZooEntry describes one zoo workload.
type ZooEntry struct {
	// Name is the ZooTrace key; Kind groups entries ("archive" for the
	// Table II models, "chaos" for the adversarial generators).
	Name, Kind string
	// Desc is a one-line characterization.
	Desc string
}

// ZooEntries lists every zoo workload: the Table II archive models first,
// then the chaos generators.
var ZooEntries = []ZooEntry{
	{"SDSC-SP2", "archive", "128p, long jobs, wide size mix"},
	{"HPC2N", "archive", "240p, long jobs, one dominant user"},
	{"PIK-IPLEX", "archive", "2560p, extreme bursts, heavy runtime tail"},
	{"ANL-Intrepid", "archive", "163840p, huge jobs, smooth arrivals"},
	{"Lublin-1", "archive", "256p Lublin-Feitelson, longer jobs"},
	{"Lublin-2", "archive", "256p Lublin-Feitelson, faster+wider jobs"},
	{"chaos-bursts", "chaos", "near-simultaneous arrival storms"},
	{"chaos-heavytail", "chaos", "extreme runtime tail, one user dominates"},
	{"chaos-flood", "chaos", "serial-job flood at tiny interarrival"},
}

// ZooNames returns the zoo workload names, in ZooEntries order.
func ZooNames() []string {
	out := make([]string, len(ZooEntries))
	for i, e := range ZooEntries {
		out[i] = e.Name
	}
	return out
}

// ZooTrace generates the named zoo workload with n jobs from the seed:
// the archive models via Preset, the chaos entries via their dedicated
// generators. Unknown names return nil (mirroring Preset).
func ZooTrace(name string, n int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "chaos-bursts":
		return ChaosBursts(n, rng)
	case "chaos-heavytail":
		return ChaosHeavyTail(n, rng)
	case "chaos-flood":
		return ChaosFlood(n, rng)
	}
	return Preset(name, n, seed)
}

// ZooStats generates every zoo workload at n jobs from the seed and
// returns their Table II summaries, in ZooEntries order.
func ZooStats(n int, seed int64) []Stats {
	out := make([]Stats, 0, len(ZooEntries))
	for _, e := range ZooEntries {
		out = append(out, ZooTrace(e.Name, n, seed).ComputeStats())
	}
	return out
}

// WriteZooSummary prints one Table II-style row per zoo workload, each
// generated at n jobs from the seed — the shared backend of the -zoo flag
// on both CLIs.
func WriteZooSummary(w io.Writer, n int, seed int64) {
	stats := ZooStats(n, seed)
	fmt.Fprintf(w, "== Trace zoo (%d workloads, %d jobs each, seed %d) ==\n",
		len(ZooEntries), n, seed)
	fmt.Fprintf(w, "%-16s %-8s %7s %8s %9s %7s %6s  %s\n",
		"Name", "Kind", "procs", "mean-ia", "mean-run", "procs/j", "users", "description")
	for i, e := range ZooEntries {
		s := stats[i]
		fmt.Fprintf(w, "%-16s %-8s %7d %8.0f %9.0f %7.1f %6d  %s\n",
			e.Name, e.Kind, s.Processors, s.MeanInterarrival, s.MeanRunTime,
			s.MeanProcs, s.Users, e.Desc)
	}
}

// ChaosBursts generates arrival storms: most of the trace arrives in
// near-simultaneous clumps separated by long dead air. The mean
// inter-arrival matches SDSC-SP2's, so the same horizon carries an order
// of magnitude more instantaneous pressure — the regime that separates
// backfilling policies from queue-reordering ones.
func ChaosBursts(n int, rng *rand.Rand) *Trace {
	return GenerateSynth(SynthConfig{
		Name:             "chaos-bursts",
		Processors:       256,
		Jobs:             n,
		MeanInterarrival: 1000,
		Burstiness:       12,
		BurstLen:         80,
		MeanRuntime:      3000,
		RuntimeSigma:     1.5,
		MeanProcs:        12,
		SerialProb:       0.3,
		EstimateFactor:   2,
		Users:            32,
		UserSkew:         1.1,
		WideProb:         0.01,
		WideRuntimeMult:  4,
	}, rng)
}

// ChaosHeavyTail generates the heavy-tail stress case: a lognormal runtime
// spread far past PIK-IPLEX's, frequent near-full-machine monsters, and
// one user owning most of the stream — the workload that maximizes both
// bounded-slowdown variance and fairness pressure at once.
func ChaosHeavyTail(n int, rng *rand.Rand) *Trace {
	return GenerateSynth(SynthConfig{
		Name:               "chaos-heavytail",
		Processors:         512,
		Jobs:               n,
		MeanInterarrival:   400,
		Burstiness:         4,
		BurstLen:           30,
		MeanRuntime:        8000,
		RuntimeSigma:       3.2,
		MeanProcs:          16,
		SerialProb:         0.3,
		EstimateFactor:     3,
		Users:              20,
		UserSkew:           1.6,
		DominantUserWeight: 0.6,
		WideProb:           0.02,
		WideRuntimeMult:    10,
	}, rng)
}

// ChaosFlood generates a serial-job flood: tiny jobs at an inter-arrival
// far under their runtimes, so the backlog only ever grows until the tail
// of the stream. Schedulers that pay per-queue-scan costs (and placement
// layers that pay per-candidate costs) are hit where it hurts.
func ChaosFlood(n int, rng *rand.Rand) *Trace {
	return GenerateSynth(SynthConfig{
		Name:             "chaos-flood",
		Processors:       128,
		Jobs:             n,
		MeanInterarrival: 20,
		Burstiness:       2,
		BurstLen:         50,
		MeanRuntime:      600,
		RuntimeSigma:     1.0,
		MeanProcs:        2,
		SerialProb:       0.7,
		EstimateFactor:   1.5,
		Users:            48,
		UserSkew:         1.0,
	}, rng)
}
