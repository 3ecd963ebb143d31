// Command bench is this repository's benchmark: five workloads, four
// end-to-end metrics with fixed regression bounds, and a traced pass that
// splits each workload's time over the layers underneath it. README.md in
// this directory explains the choices; BENCHMARK.json at the repository
// root declares the same names to the driver.
//
//	go run ./bench                                  # every workload, one child process each
//	go run ./bench -workload decide_fresh -seed 7   # one workload
//	go run ./bench -trace 1                         # the per-layer pass
//	go run ./bench -out a.jsonl                     # also append results to a file
//	go run ./bench -compare a.jsonl b.jsonl         # judge b against a
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints, in the driver's format.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of an -out file: a result with what produced it.
type record struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    int      `json:"trace"`
	Hardware hardware `json:"hardware"`
	Result   result   `json:"result"`
}

// run is the context of one workload run: its inputs, where it may write,
// and what it has measured so far.
type run struct {
	workload string
	seed     int64
	sc       scale
	trace    bool
	outDir   string // scratch space: checkpoints, Chrome traces
	dirs     int    // checkpoint directories made so far, for distinct names
	log      io.Writer

	attempted, failed int64
	problems          []string // violated checks that are not failed operations
	values            map[string]float64
	notes             map[string]string
}

// set records a metric value; note, when given, is printed beside it
// (sample counts, what the operation is).
func (r *run) set(name string, v float64, note ...string) {
	r.values[name] = v
	if len(note) > 0 {
		r.notes[name] = note[0]
	}
}

// problem records a violated correctness check.
func (r *run) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintf(r.log, "  CHECK FAILED: %s\n", msg)
}

func (r *run) printf(format string, args ...any) { fmt.Fprintf(r.log, format, args...) }

// ladderTries is how often a traced pass measures its ladder before a
// residual above the scale's maxResidual fails the run. The layers and the
// untraced whole are measured one after the other, so a slow second of the
// host under one of them breaks the sum once; a ladder that does not add up
// breaks it every time.
const ladderTries = 3

// ladder runs measure, which times a workload's layers and its untraced
// whole and sets the per-layer metrics, until the two agree within
// maxResidual, and reports their distance as ladder_residual_share. The
// metrics are those of the last measurement.
func (r *run) ladder(unit string, measure func() (layers, whole float64, err error)) error {
	for try := 1; ; try++ {
		layers, whole, err := measure()
		if err != nil {
			return err
		}
		residual := math.Abs(layers-whole) / whole
		r.set("ladder_residual_share", residual,
			fmt.Sprintf("|%.4g %s of layers - %.4g %s untraced| / untraced, measurement %d", layers, unit, whole, unit, try))
		if residual <= r.sc.maxResidual {
			return nil
		}
		r.printf("  measurement %d of %d: the layers do not add up to the whole within %.0f%%: %.4g vs %.4g %s\n",
			try, ladderTries, 100*r.sc.maxResidual, layers, whole, unit)
		if try == ladderTries {
			r.problem("the layers are %.1f%% from the whole", 100*residual)
			return nil
		}
	}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// timeOp calls f for about d and returns the mean time of one call. f is
// called once beforehand, untimed.
func timeOp(d time.Duration, f func()) time.Duration {
	f()
	start := time.Now()
	for n := 1; ; n++ {
		f()
		if el := time.Since(start); el >= d {
			return el / time.Duration(n)
		}
	}
}

// timeSetup builds a workload's fixture reps times, tearing down all but
// the last, and returns the last one with the median build time. The issue
// defines setup_s as one span, process start to first timed operation; the
// driver's contract asks for several set-ups in a run and their median,
// because it compares the set-up medians of two sets of runs. With batch
// above one a build is timed as the fastest of that many in a row (bestOf),
// and the median is over reps such batches.
func timeSetup[T any](reps, batch int, build func() (T, error), teardown func(T)) (fx T, median float64, err error) {
	var times []time.Duration
	for i := 0; i < reps*batch; i++ {
		if i > 0 {
			teardown(fx)
		}
		t0 := time.Now()
		if fx, err = build(); err != nil {
			return fx, 0, err
		}
		times = append(times, time.Since(t0))
	}
	return fx, quantile(bestOf(times, batch), 0.50).Seconds(), nil
}

// count folds a load phase's operations into the run's totals.
func (r *run) count(p phase) {
	r.attempted += int64(p.attempted)
	r.failed += int64(p.failed)
}

// finish turns what the run measured into the result: every declared
// metric of the pass, by name, with its unit. An end-to-end metric a
// workload failed to set is a bug in the benchmark; a per-layer metric left
// unset is a layer the workload never enters and reads 0.
func (r *run) finish() (result, error) {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok && !r.trace {
			return res, fmt.Errorf("%s: end-to-end metric %s was not measured", r.workload, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("%s: metric %s is %v", r.workload, d.Name, v)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		if ok {
			r.printf("  %-34s %14.6g %-6s %s\n", d.Name, v, d.Unit, r.notes[d.Name])
		}
	}
	for name := range r.values {
		if _, ok := res.Metrics[name]; !ok {
			return res, fmt.Errorf("%s: metric %s is not declared for this pass", r.workload, name)
		}
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("%s: nothing attempted", r.workload)
	}
	res.Correct = res.Failed == 0 && len(r.problems) == 0
	r.printf("  failed_share = %d / %d = %g\n", res.Failed, res.Attempted, float64(res.Failed)/float64(res.Attempted))
	return res, nil
}

// runWorkload runs one workload in this process and prints its result as
// the last line of w.
func runWorkload(w io.Writer, def workloadDef, seed int64, sc scale, trace bool, outDir string) (result, error) {
	r := &run{
		workload: def.Name, seed: seed, sc: sc, trace: trace, outDir: outDir, log: w,
		values: map[string]float64{}, notes: map[string]string{},
	}
	pass := "end to end"
	if trace {
		pass = "traced, per layer"
	}
	r.printf("== %s (seed %d, %g s, %s)\n", def.Name, seed, sc.seconds, pass)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	if err := def.run(r); err != nil {
		return result{}, fmt.Errorf("%s: %w", def.Name, err)
	}
	return r.finish()
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.Name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

func main() {
	workload := flag.String("workload", "", "run one workload in this process (default: all five, one child process each)")
	seed := flag.Int64("seed", 42, "seed of the generated inputs; the program under test sees only the inputs")
	seconds := flag.Float64("seconds", 24, "how long one workload measures")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	out := flag.String("out", "", "append each result to this file, one JSON record per line")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare A B")
	flag.Parse()

	if err := mainErr(*workload, *seed, *seconds, *trace, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds float64, trace int, out string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare wants two result files")
		}
		regressed, err := compareFiles(os.Stdout, args[0], args[1])
		if err != nil {
			return err
		}
		if regressed {
			return fmt.Errorf("regression")
		}
		return nil
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace wants 0 or 1")
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if workload == "" {
		return runSuite(seed, seconds, trace, out)
	}
	def, ok := findWorkload(workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	outDir := filepath.Join("bench", "out")
	hw := identify(outDir)
	hw.print(os.Stdout)
	res, err := runWorkload(os.Stdout, def, seed, fullScale(seconds), trace == 1, outDir)
	if err != nil {
		return err
	}
	if out != "" {
		rec := record{Workload: def.Name, Seed: seed, Seconds: seconds, Trace: trace, Hardware: hw, Result: res}
		if err := appendRecord(out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// runSuite runs every workload in a child process of its own, one after
// the other, so each starts with a fresh heap and a clean peak RSS.
func runSuite(seed int64, seconds float64, trace int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := map[string]result{}
	for _, def := range workloads {
		args := []string{"-workload", def.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace)}
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		last := ""
		sc := bufio.NewScanner(pipe)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			last = sc.Text()
			if !strings.HasPrefix(last, "{") {
				fmt.Println(last)
			}
		}
		if err := cmd.Wait(); err != nil {
			return fmt.Errorf("%s: %w", def.Name, err)
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return fmt.Errorf("%s: last line is not a result: %w", def.Name, err)
		}
		all[def.Name] = res
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	for name, res := range all {
		if !res.Correct {
			return fmt.Errorf("%s: incorrect (%d of %d operations failed)", name, res.Failed, res.Attempted)
		}
	}
	return nil
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
