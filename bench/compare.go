package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"

	"rlsched/internal/stats"
)

// -compare A B judges the runs in B against the runs in A, per workload
// and end-to-end metric, by the rule the benchmark fixes: B's median may
// not be worse than A's by more than the metric's bound, more operations
// may not fail, no run of B may be incorrect, nothing A measured may be
// missing from B (a suite that crashed half way leaves such a file), and
// where the run-to-run spread of either side is wider than the bound the
// pair is unresolved, not unchanged.

// side is one file's runs of one workload.
type side struct {
	values            map[string][]float64 // per metric, one value per run
	attempted, failed int64
	incorrect         int // runs whose result says correct=false
}

func readRuns(path string) (map[string]*side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]*side{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue // traced numbers are never end-to-end numbers
		}
		s := out[rec.Workload]
		if s == nil {
			s = &side{values: map[string][]float64{}}
			out[rec.Workload] = s
		}
		s.attempted += rec.Result.Attempted
		s.failed += rec.Result.Failed
		if !rec.Result.Correct {
			s.incorrect++
		}
		for name, m := range rec.Result.Metrics {
			s.values[name] = append(s.values[name], m.Value)
		}
	}
	return out, sc.Err()
}

// spread is the distance between the first and third quartile as a share
// of the median (0 with fewer than two runs: nothing is known).
func spread(v []float64) (med, share float64) {
	s := slices.Sorted(slices.Values(v))
	med = stats.Median(s)
	n := len(s)
	if n < 2 || med == 0 {
		return med, 0
	}
	// Quartile i by the exclusive method of Python's
	// statistics.quantiles(n=4), which the driver uses.
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return med, (q(3) - q(1)) / med
}

// compareFiles prints the comparison and reports whether B regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-15s %14s %14s %8s %6s %7s  %s\n", "workload", "metric", "A median", "B median", "B vs A", "bound", "spread", "verdict")
	for _, def := range workloads {
		sa, sb := a[def.Name], b[def.Name]
		if sa == nil {
			if sb != nil {
				fmt.Fprintf(w, "%-14s only in B: not compared\n", def.Name)
			}
			continue
		}
		if sb == nil {
			fmt.Fprintf(w, "%-14s REGRESSION: in A, missing from B\n", def.Name)
			regressed = true
			continue
		}
		for _, m := range endToEnd {
			va, vb := sa.values[m.Name], sb.values[m.Name]
			if len(va) == 0 {
				continue
			}
			if len(vb) == 0 {
				fmt.Fprintf(w, "%-14s %-15s REGRESSION: in A, missing from B\n", def.Name, m.Name)
				regressed = true
				continue
			}
			medA, spreadA := spread(va)
			medB, spreadB := spread(vb)
			// worse is B's change in the bad direction, as a share of A.
			worse := (medB - medA) / medA
			if m.Better == "higher" {
				worse = -worse
			}
			widest := max(spreadA, spreadB)
			verdict := "ok"
			switch {
			case worse > m.Bound && widest <= m.Bound:
				verdict = "REGRESSION"
				regressed = true
			case widest > m.Bound:
				verdict = "unresolved (spread exceeds bound)"
			case worse < -m.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-14s %-15s %14.6g %14.6g %+7.1f%% %5.0f%% %6.1f%%  %s (n=%d,%d)\n",
				def.Name, m.Name, medA, medB, 100*(medB-medA)/medA, 100*m.Bound, 100*widest, verdict, len(va), len(vb))
		}
		shareA := float64(sa.failed) / float64(max(sa.attempted, 1))
		shareB := float64(sb.failed) / float64(max(sb.attempted, 1))
		verdict := "ok"
		if shareB > shareA {
			verdict = "REGRESSION (any rise counts)"
			regressed = true
		}
		fmt.Fprintf(w, "%-14s %-15s %14.6g %14.6g %35s\n", def.Name, "failed_share", shareA, shareB, verdict)
		if sb.incorrect > 0 {
			fmt.Fprintf(w, "%-14s REGRESSION: %d runs of B are incorrect\n", def.Name, sb.incorrect)
			regressed = true
		}
	}
	return regressed, nil
}
