package exp

import (
	"fmt"
	"math/rand"

	"rlsched/internal/core"
	"rlsched/internal/metrics"
	"rlsched/internal/nn"
	"rlsched/internal/rl"
	"rlsched/internal/sched"
	"rlsched/internal/sim"
	"rlsched/internal/stats"
)

func init() {
	registry["fig3"] = Fig3
	registry["fig7"] = Fig7
	registry["fig8"] = Fig8
	registry["fig9"] = Fig9
	registry["fig10"] = func(o Options) ([]Artifact, error) {
		return trainingCurves(o, metrics.BoundedSlowdown, "Fig 10: training curves, avg bounded slowdown")
	}
	registry["fig11"] = func(o Options) ([]Artifact, error) {
		return trainingCurves(o, metrics.Utilization, "Fig 11: training curves, resource utilization")
	}
	registry["fig12"] = func(o Options) ([]Artifact, error) {
		return trainingCurves(o, metrics.Slowdown, "Fig 12: training curves, avg job slowdown")
	}
	registry["fig13"] = func(o Options) ([]Artifact, error) {
		return trainingCurves(o, metrics.WaitTime, "Fig 13: training curves, avg job waiting time")
	}
}

// Fig3 replays SJF over consecutive windows of the PIK-like trace,
// reporting the per-window average bounded slowdown across the timeline —
// the variance spikes that motivate trajectory filtering.
func Fig3(o Options) ([]Artifact, error) {
	cache := newTraceCache(o)
	tr := cache.get("PIK-IPLEX")
	// The paper scans 256-job sequences; anything much smaller cannot
	// congest the 2560-processor cluster, so the window size does not
	// scale down with Quick options.
	winLen := 256
	if winLen > tr.Len() {
		winLen = tr.Len()
	}
	stride := winLen / 2
	s := sim.New(sim.Config{Processors: tr.Processors, MaxObserve: o.MaxObserve})
	sjf := sched.SJF()
	series := &Series{
		Title:  "Fig 3: SJF avg bounded slowdown across the PIK-IPLEX timeline",
		XLabel: "window start (job index)",
		YLabel: "avg bounded slowdown",
		Names:  []string{"SJF"},
		Y:      [][]float64{nil},
	}
	for start := 0; start+winLen <= tr.Len(); start += stride {
		if err := s.Load(tr.Window(start, winLen)); err != nil {
			return nil, err
		}
		res, err := s.Run(sjf)
		if err != nil {
			return nil, err
		}
		series.X = append(series.X, float64(start))
		series.Y[0] = append(series.Y[0], metrics.Value(metrics.BoundedSlowdown, res))
	}
	vals := series.Y[0]
	note := fmt.Sprintf("min=%.2f median=%.2f max=%.0f (paper: mostly ≈1 with spikes to ~80K)",
		stats.Min(vals), stats.Median(vals), stats.Max(vals))
	table := &Table{Title: "Fig 3 summary", Header: []string{"stat", "value"}}
	table.AddRow("windows", fmt.Sprint(len(vals)))
	table.AddRow("spread", note)
	return []Artifact{series, table}, nil
}

// Fig7 probes the PIK-like trace with SJF and reports the metric
// distribution plus the median / mean / 2·mean markers that define the
// trajectory-filtering range R.
func Fig7(o Options) ([]Artifact, error) {
	cache := newTraceCache(o)
	tr := cache.get("PIK-IPLEX")
	cfg := sim.Config{Processors: tr.Processors, MaxObserve: o.MaxObserve}
	rng := rand.New(rand.NewSource(o.Seed))
	n := o.FilterProbeN * 4
	// Like Fig 3, the distribution is over 256-job sequences — smaller
	// windows cannot congest the PIK-scale cluster.
	seqLen := 256
	if seqLen > tr.Len() {
		seqLen = tr.Len()
	}
	ps, err := rl.Probe(tr, cfg, metrics.BoundedSlowdown, n, seqLen, rng)
	if err != nil {
		return nil, err
	}
	lo, hi := ps.Range()
	hist := stats.NewHistogram(ps.Values, 20, 0, hi*1.5)
	series := &Series{
		Title:  "Fig 7: distribution of SJF avg bounded slowdown (PIK-IPLEX sequences)",
		XLabel: "avg bounded slowdown (bin center)",
		YLabel: "sequences",
		Names:  []string{"count"},
		Y:      [][]float64{nil},
	}
	for i, c := range hist.Counts {
		series.X = append(series.X, hist.BinCenter(i))
		series.Y[0] = append(series.Y[0], float64(c))
	}
	t := &Table{Title: "Fig 7 markers", Header: []string{"stat", "value"}}
	t.AddRow("sequences", fmt.Sprint(len(ps.Values)))
	t.AddRow("median", fmt.Sprintf("%.2f", ps.Median))
	t.AddRow("mean", fmt.Sprintf("%.2f", ps.Mean))
	t.AddRow("2*mean (filter hi)", fmt.Sprintf("%.2f", hi))
	t.AddRow("skewness", fmt.Sprintf("%.2f", ps.Skew))
	t.AddRow("filter range R", fmt.Sprintf("(%.2f, %.2f]", lo, hi))
	t.Notes = append(t.Notes, "paper markers: median≈1, mean≈730, 2·mean≈1460 — heavily right-skewed")
	return []Artifact{series, t}, nil
}

// Fig8 compares the training efficiency of the Table IV policy networks on
// Lublin-1 and SDSC-SP2 (metric: −avg bounded slowdown; higher is better).
func Fig8(o Options) ([]Artifact, error) {
	cache := newTraceCache(o)
	var arts []Artifact
	for _, traceName := range []string{"Lublin-1", "SDSC-SP2"} {
		series := &Series{
			Title:  "Fig 8: policy-network training efficiency on " + traceName,
			XLabel: "epoch",
			YLabel: "-avg bounded slowdown",
		}
		for _, kind := range nn.PolicyKinds {
			if o.MaxObserve < 12 && kind == "lenet" {
				continue // LeNet needs a wider observation window
			}
			cfg := agentConfig(o, cache.get(traceName), metrics.BoundedSlowdown)
			cfg.PolicyKind = kind
			_, curve, err := train(o, cfg)
			if err != nil {
				return nil, err
			}
			series.Names = append(series.Names, kind)
			var ys []float64
			for _, s := range curve {
				ys = append(ys, s.MeanReward)
			}
			series.Y = append(series.Y, ys)
		}
		series.X = epochs(len(series.Y[0]))
		arts = append(arts, series)
	}
	return arts, nil
}

// Fig9 trains on the PIK-like trace with and without trajectory filtering.
func Fig9(o Options) ([]Artifact, error) {
	cache := newTraceCache(o)
	series := &Series{
		Title:  "Fig 9: trajectory filtering on PIK-IPLEX (avg bounded slowdown per epoch)",
		XLabel: "epoch",
		YLabel: "avg bounded slowdown",
	}
	for _, filter := range []bool{false, true} {
		name := "no-filter"
		if filter {
			name = "with-filter"
		}
		_, curve, err := trainRL(cache, o, "PIK-IPLEX", metrics.BoundedSlowdown, false, filter)
		if err != nil {
			return nil, err
		}
		series.Names = append(series.Names, name)
		series.Y = append(series.Y, meanMetrics(curve))
	}
	series.X = epochs(len(series.Y[0]))
	t := &Table{Title: "Fig 9 dispersion", Header: []string{"variant", "std of epoch metric"}}
	for i, n := range series.Names {
		t.AddRow(n, fmt.Sprintf("%.2f", stats.Std(series.Y[i])))
	}
	t.Notes = append(t.Notes, "paper: without filtering training does not converge within 100 epochs; with filtering it does")
	return []Artifact{series, t}, nil
}

// trainingCurves reproduces the four-workload training figures (Figs
// 10–13) for the given goal.
func trainingCurves(o Options, goal metrics.Kind, title string) ([]Artifact, error) {
	cache := newTraceCache(o)
	series := &Series{
		Title:  title,
		XLabel: "epoch",
		YLabel: goal.String(),
	}
	for _, name := range evalTraces {
		// The PIK-like trace needs filtering for slowdown-like goals
		// (§IV-C); the four Fig 10 traces train unfiltered in the paper.
		_, curve, err := trainRL(cache, o, name, goal, false, false)
		if err != nil {
			return nil, err
		}
		series.Names = append(series.Names, name)
		series.Y = append(series.Y, meanMetrics(curve))
	}
	series.X = epochs(len(series.Y[0]))
	return []Artifact{series}, nil
}

// meanMetrics is a training curve's per-epoch mean goal metric.
func meanMetrics(curve []core.EpochStats) []float64 {
	ys := make([]float64, len(curve))
	for i, s := range curve {
		ys[i] = s.MeanMetric
	}
	return ys
}

// epochs is a training curve's x axis: 1..n.
func epochs(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}
