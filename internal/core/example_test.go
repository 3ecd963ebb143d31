package core_test

import (
	"fmt"
	"log"

	"rlsched/internal/core"
	"rlsched/internal/metrics"
	"rlsched/internal/rl"
	"rlsched/internal/sched"
	"rlsched/internal/trace"
)

// Train a small RLScheduler agent on a synthetic Lublin workload toward
// minimum average bounded slowdown, then compare it with the classic
// heuristics on held-out job sequences.
func Example() {
	// 1. A workload: 2000 jobs from the Lublin-Feitelson model on a
	// 256-processor cluster (Table II's Lublin-1 configuration).
	tr := trace.Preset("Lublin-1", 2000, 1)
	st := tr.ComputeStats()
	fmt.Printf("trace %s: %d procs, %d jobs, mean inter-arrival %.0fs, mean runtime %.0fs\n\n",
		st.Name, st.Processors, st.Jobs, st.MeanInterarrival, st.MeanRunTime)

	// 2. An agent: kernel policy network + PPO, rewarded with the
	// negative average bounded slowdown. Scaled down so it trains in
	// about a second; see exp.Paper() for the paper's settings.
	agent, err := core.New(core.Config{
		Trace:        tr,
		Goal:         metrics.BoundedSlowdown,
		MaxObserve:   32,
		SeqLen:       64,
		TrajPerEpoch: 10,
		Seed:         7,
		PPO:          rl.PPOConfig{TrainPiIters: 20, TrainVIters: 20},
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Train, watching the §V training curve.
	for epoch := 1; epoch <= 10; epoch++ {
		s, err := agent.TrainEpoch()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("epoch %2d: avg bounded slowdown %.2f (kl=%.4f)\n",
			s.Epoch, s.MeanMetric, s.Update.KL)
	}

	// 4. Evaluate against the Table III heuristics on the same held-out
	// sequences (identical seed = identical workloads for everyone).
	eval := core.EvalConfig{
		Goal:       metrics.BoundedSlowdown,
		NSeq:       5,
		SeqLen:     256,
		MaxObserve: 32,
		Backfill:   true,
		Seed:       99,
	}
	fmt.Println("\nscheduler      avg bounded slowdown (5 × 256-job sequences, backfilling)")
	for _, h := range sched.Heuristics() {
		v, _, err := core.Evaluate(tr, h, eval)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %10.2f\n", h.Name, v)
	}
	v, _, err := core.Evaluate(tr, agent.Scheduler(), eval)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %10.2f\n", "RLScheduler", v)
	// Output:
	// trace Lublin-1: 256 procs, 2000 jobs, mean inter-arrival 771s, mean runtime 4862s
	//
	// epoch  1: avg bounded slowdown 35.48 (kl=0.0038)
	// epoch  2: avg bounded slowdown 24.70 (kl=0.0013)
	// epoch  3: avg bounded slowdown 34.10 (kl=0.0016)
	// epoch  4: avg bounded slowdown 32.72 (kl=0.0007)
	// epoch  5: avg bounded slowdown 29.87 (kl=0.0010)
	// epoch  6: avg bounded slowdown 12.29 (kl=0.0044)
	// epoch  7: avg bounded slowdown 22.42 (kl=0.0001)
	// epoch  8: avg bounded slowdown 16.58 (kl=0.0082)
	// epoch  9: avg bounded slowdown 33.61 (kl=0.0039)
	// epoch 10: avg bounded slowdown 49.98 (kl=0.0057)
	//
	// scheduler      avg bounded slowdown (5 × 256-job sequences, backfilling)
	// FCFS               5.87
	// WFP3               4.89
	// UNICEP             5.01
	// SJF                3.94
	// F1                 5.46
	// RLScheduler        5.91
}
