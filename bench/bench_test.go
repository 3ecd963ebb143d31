package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarationsMatchBenchmarkJSON pins BENCHMARK.json to the tables the
// program reports from, and both to the driver's limits.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	f := readBenchmarkFile(t)
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(f.Command, want) {
		t.Errorf("command %q, want %q", f.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(f.Paths, want) {
		t.Errorf("paths %q, want %q", f.Paths, want)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of 1..60", f.RunSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, f.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file %+v\n code %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file %+v\n code %+v", f.PerLayer, perLayer)
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("limits: %d workloads (2..8), %d end-to-end (1..16), %d per-layer (1..128)", len(workloads), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
	}
	hasSetup := false
	for _, m := range endToEnd {
		check("end-to-end", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g out of (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || m == metricDef{"setup_s", "s", "lower", m.Bound}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		check("per-layer", m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload, end to end and traced, at the smoke
// scale: the outputs are checked, nothing fails, the last line is the
// driver's result object, and the metric names are exactly the declared
// ones.
func TestSmoke(t *testing.T) {
	for _, def := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", def.Name, trace), func(t *testing.T) {
				var out bytes.Buffer
				dir := t.TempDir()
				res, err := runWorkload(&out, def, 7, smokeScale(), trace, dir)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("failed %d of %d\n%s", res.Failed, res.Attempted, out.String())
				}
				if !res.Correct {
					t.Errorf("incorrect:\n%s", out.String())
				}
				want := names(endToEnd)
				if trace {
					want = names(perLayer)
				}
				if got := keys(res.Metrics); !reflect.DeepEqual(got, want) {
					t.Errorf("metric names\n got %q\nwant %q", got, want)
				}
				for name, m := range res.Metrics {
					if !trace && m.Value <= 0 {
						t.Errorf("%s = %g: an end-to-end metric is never 0", name, m.Value)
					}
				}
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var fields map[string]json.RawMessage
				if err := json.Unmarshal(line, &fields); err != nil {
					t.Fatal(err)
				}
				if got, want := keys(fields), []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(got, want) {
					t.Errorf("result keys %q, want %q", got, want)
				}
				if trace {
					if _, err := os.Stat(filepath.Join(dir, "trace_"+def.Name+".json")); err != nil {
						t.Errorf("no Chrome trace: %v", err)
					}
				}
			})
		}
	}
}

// TestChromeTraceLoads checks the trace file is the Chrome trace-event
// object format with resolved parents.
func TestChromeTraceLoads(t *testing.T) {
	origin := time.Now()
	at := func(us int) time.Time { return origin.Add(time.Duration(us) * time.Microsecond) }
	log := &spanLog{origin: origin}
	log.add(spanHandler, at(10), at(90), 1, 0)
	log.add(spanEngine, at(30), at(60), 0, 2)
	log.add(spanClient, at(0), at(100), 1, 0)
	spans := log.take()
	link(spans, map[string]string{spanHandler: spanClient, spanEngine: spanHandler})
	if spans[0].parent != 2 || spans[1].parent != 0 || spans[2].parent != -1 {
		t.Errorf("parents %d %d %d, want 2 0 -1", spans[0].parent, spans[1].parent, spans[2].parent)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
		}
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.TraceEvents) != 3 || file.TraceEvents[0].Name != spanClient || file.TraceEvents[0].Ph != "X" || file.TraceEvents[0].Dur != 100 {
		t.Errorf("events %+v", file.TraceEvents)
	}
}

// stubTraffic sends a fixed body and accepts any reply.
type stubTraffic struct{}

func (stubTraffic) request(int, int64) ([]byte, int) { return []byte("{}"), 0 }
func (stubTraffic) check(int, int, []byte) bool      { return true }

// TestOpenLoopCountsTheStall proves the open loop is free of coordinated
// omission: a 200 ms stall of the server at 1000 req/s delays the ~200
// requests that fall due during it, and each reports the wait it was
// imposed, measured from its due time. A closed loop on two connections
// would have reported two slow requests.
func TestOpenLoopCountsTheStall(t *testing.T) {
	var start atomic.Int64 // unix nanos of the first request
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now().UnixNano()
		start.CompareAndSwap(0, now)
		// Every request arriving 300..500 ms into the run is held to 500 ms.
		since := time.Duration(now - start.Load())
		if since >= 300*time.Millisecond && since < 500*time.Millisecond {
			time.Sleep(500*time.Millisecond - since)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	g := newLoadgen(srv.URL, 2, stubTraffic{}, nil)
	defer g.close()

	p := g.open(1000, time.Second)
	if p.failed != 0 || p.grew {
		t.Fatalf("failed %d of %d, grew %t: the stall is over long before the end", p.failed, p.attempted, p.grew)
	}
	slow := 0
	for _, d := range p.lat {
		if d > 100*time.Millisecond {
			slow++
		}
	}
	// Due in the first half of the stall means more than 100 ms of wait:
	// about 100 requests, plus those the drain of the backlog keeps late.
	if slow < 80 || slow > 220 {
		t.Errorf("%d requests report more than 100 ms, want about 100 to 200 of the %d sent", slow, p.attempted)
	}
	if late := quantile(p.late, 0.99); late < 100*time.Millisecond {
		t.Errorf("generator lateness p99 %v does not show the stall", late)
	}
	if p.backlog < 100 {
		t.Errorf("backlog peaked at %d, want about 200", p.backlog)
	}
}

// TestOpenLoopTripsOnGrowingBacklog drives a server above its capacity:
// the whole segment must fail.
func TestOpenLoopTripsOnGrowingBacklog(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond) // two connections: 400 req/s at best
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	g := newLoadgen(srv.URL, 2, stubTraffic{}, nil)
	defer g.close()
	p := g.open(1000, 500*time.Millisecond)
	if !p.grew || p.failed != p.attempted || p.attempted != 500 {
		t.Errorf("grew %t, failed %d of %d: want every one of 500 requests failed", p.grew, p.failed, p.attempted)
	}
}

// TestPhaseWindows checks how a phase's replies are read in windows: the
// open loop's latencies by when a request was due, the closed loop's rates
// by when a reply was complete.
func TestPhaseWindows(t *testing.T) {
	start := time.Now()
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	const ms = time.Millisecond
	p := phase{start: start, replies: []reply{
		{at(0), 30 * ms},  // due at the very start, complete at 30
		{at(20), 20 * ms}, // complete at 40
		{at(40), 20 * ms}, // due in the first window, complete in the second, at 60
		{at(50), 20 * ms}, // due on the boundary: the second window; complete at 70
		{at(60), 30 * ms}, // complete at 90
		{at(90), 20 * ms}, // complete at 110, after the span
	}}
	if got, want := p.windows(100*ms, 2), [][]time.Duration{{20 * ms, 20 * ms, 30 * ms}, {20 * ms, 20 * ms, 30 * ms}}; !reflect.DeepEqual(got, want) {
		t.Errorf("latencies by due time %v, want %v", got, want)
	}
	// One reply after the first in 10 ms, two in 30 ms.
	if got, want := p.rates(100*ms, 2), []float64{1 / 0.010, 2 / 0.030}; len(got) != 2 || math.Abs(got[0]-want[0]) > 1e-9 || math.Abs(got[1]-want[1]) > 1e-9 {
		t.Errorf("rates by completion %v, want %v", got, want)
	}
}

func TestQuantiles(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 200; i++ {
		d = append(d, time.Duration(i))
	}
	if got := quantile(d, 0.99); got != 198 {
		t.Errorf("p99 of 1..200 = %d, want 198 (two samples beyond)", got)
	}
	if got := quantile(d[:5], 0.99); got != 5 {
		t.Errorf("p99 of five samples = %d, want the maximum", got)
	}
	// Five windows of eight are slowed down: the calm quartile is not.
	if got := calmQuartile([]float64{10, 1000, 1000, 10, 1000, 1000, 10, 1000}); got != 10 {
		t.Errorf("calm quartile = %g, want 10", got)
	}
	// Seven of eight are: it is.
	if got := calmQuartile([]float64{10, 1000, 1000, 1000, 1000, 1000, 1000, 1000}); got != 1000 {
		t.Errorf("calm quartile = %g, want 1000", got)
	}
	// The fastest of each three in a row, sorted; the odd two at the end are
	// no batch.
	if got := bestOf([]time.Duration{9, 3, 5, 7, 8, 6, 1, 2}, 3); !reflect.DeepEqual(got, []time.Duration{3, 6}) {
		t.Errorf("bestOf = %v, want [3 6]", got)
	}
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,20], n=4) = [2.75, 5.5, 8.25]
	if med, share := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 20}); med != 5.5 || share != (8.25-2.75)/5.5 {
		t.Errorf("spread = %g around %g", share, med)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	// write records one fleet_run result per value of ops, and a
	// train_epoch result beside each when both is set.
	write := func(name string, ops []float64, failed int64, correct, both, setup bool) string {
		path := filepath.Join(dir, name)
		for _, v := range ops {
			metrics := map[string]metric{"ops_per_s": {Value: v, Unit: "1/s"}}
			if setup {
				metrics["setup_s"] = metric{Value: 1, Unit: "s"}
			}
			recs := []record{{Workload: "fleet_run", Result: result{Correct: correct, Attempted: 100, Failed: failed, Metrics: metrics}}}
			if both {
				recs = append(recs, record{Workload: "train_epoch", Result: result{Correct: true, Attempted: 5, Metrics: metrics}})
			}
			for _, rec := range recs {
				if err := appendRecord(path, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	same := []float64{100, 100, 101, 99}
	base := write("a", []float64{100, 101, 99, 100}, 0, true, true, true)
	for _, tc := range []struct {
		name                 string
		ops                  []float64
		failed               int64
		correct, both, setup bool
		regressed            bool
		verdict              string
	}{
		{"same", same, 0, true, true, true, false, "ok"},
		{"slower", []float64{70, 71, 69, 70}, 0, true, true, true, true, "REGRESSION"},
		{"faster", []float64{150, 151, 149, 150}, 0, true, true, true, false, "improved"},
		{"noisy", []float64{40, 70, 100, 130}, 0, true, true, true, false, "unresolved"},
		{"failing", same, 1, false, true, true, true, "any rise counts"},
		{"incorrect", same, 0, false, true, true, true, "runs of B are incorrect"},
		{"crashed", same, 0, true, false, true, true, "train_epoch    REGRESSION: in A, missing from B"},
		{"unmeasured", same, 0, true, true, false, true, "setup_s         REGRESSION: in A, missing from B"},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, base, write(tc.name, tc.ops, tc.failed, tc.correct, tc.both, tc.setup))
		if err != nil {
			t.Fatal(err)
		}
		if regressed != tc.regressed || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: regressed %t, want %t with %q in\n%s", tc.name, regressed, tc.regressed, tc.verdict, out.String())
		}
	}
}
