package main

import (
	"bytes"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"rlsched/internal/exp"
	"rlsched/internal/metrics"
	"rlsched/internal/sched"
	"rlsched/internal/trace"
)

// rlsched runs one command line in process and returns its exit status
// and output.
func rlsched(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// mustRun runs a command line that must succeed and returns its stdout.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, out, errOut := rlsched(t, args...)
	if code != 0 {
		t.Fatalf("rlsched %s: exit %d\n%s", strings.Join(args, " "), code, errOut)
	}
	return out
}

// TestTraceRoundTrip: a trace written as SWF is what eval -trace loads, it
// keeps the preset's statistics, and rewriting the loaded file gives the
// same bytes.
func TestTraceRoundTrip(t *testing.T) {
	swf := filepath.Join(t.TempDir(), "sdsc.swf")
	gen := []string{"-preset", "SDSC-SP2", "-jobs", "300", "-seed", "3"}
	if out := mustRun(t, append([]string{"trace", "-o", swf}, gen...)...); out != "" {
		t.Errorf("trace -o printed %q to stdout", out)
	}
	written, err := os.ReadFile(swf)
	if err != nil {
		t.Fatal(err)
	}
	if again := mustRun(t, "trace", "-trace", swf); again != string(written) {
		t.Error("rewriting a loaded SWF file changed its bytes")
	}
	want := strings.TrimPrefix(mustRun(t, append([]string{"trace", "-stats"}, gen...)...), "name=SDSC-SP2 ")
	got := strings.TrimPrefix(mustRun(t, "trace", "-stats", "-trace", swf), "name="+swf+" ")
	if got != want {
		t.Errorf("stats of the SWF file = %q, want the preset's %q", got, want)
	}
	table := mustRun(t, "eval", "-trace", swf, "-nseq", "1", "-seqlen", "100")
	if n := len(strings.Split(strings.TrimSpace(table), "\n")); n != 1+len(sched.Heuristics()) {
		t.Errorf("eval -trace printed %d lines, want a header and %d rows:\n%s", n, len(sched.Heuristics()), table)
	}
}

// TestTraceStats: -stats prints one Table II line, and -zoo one row per
// zoo workload under its header.
func TestTraceStats(t *testing.T) {
	stats := mustRun(t, "trace", "-stats", "-preset", "Lublin-1", "-jobs", "500")
	if !strings.HasPrefix(stats, "name=Lublin-1 procs=256 jobs=500 ") || strings.Count(stats, "\n") != 1 {
		t.Errorf("trace -stats = %q", stats)
	}
	zoo := strings.Split(strings.TrimSpace(mustRun(t, "trace", "-zoo", "-jobs", "300", "-seed", "5")), "\n")
	if want := "== Trace zoo (9 workloads, 300 jobs each, seed 5) =="; zoo[0] != want {
		t.Errorf("zoo header = %q, want %q", zoo[0], want)
	}
	if len(zoo) != 2+len(trace.ZooEntries) {
		t.Fatalf("zoo summary has %d lines, want %d", len(zoo), 2+len(trace.ZooEntries))
	}
	for i, name := range trace.ZooNames() {
		if row := zoo[2+i]; !strings.HasPrefix(row, name+" ") {
			t.Errorf("zoo row %d = %q, want workload %s", i, row, name)
		}
	}
}

// TestEvalTable: eval prints every goal for every heuristic, and an RL row
// for a model that train saved.
func TestEvalTable(t *testing.T) {
	model := filepath.Join(t.TempDir(), "model.json")
	log := mustRun(t, "train", "-jobs", "600", "-epochs", "1", "-traj", "2", "-seqlen", "32",
		"-maxobs", "16", "-pi-iters", "2", "-v-iters", "2", "-workers", "1", "-o", model)
	if !strings.HasPrefix(log, "epoch   1  bsld=") || !strings.HasSuffix(log, "model saved to "+model+"\n") {
		t.Errorf("train log:\n%s", log)
	}

	args := []string{"eval", "-jobs", "600", "-nseq", "1", "-seqlen", "64", "-maxobs", "16"}
	var wantHeader []string
	for _, g := range metrics.Kinds {
		wantHeader = append(wantHeader, g.String())
	}
	var heuristics []string
	for _, h := range sched.Heuristics() {
		heuristics = append(heuristics, h.Name)
	}
	for _, withModel := range []bool{false, true} {
		a, wantRows := args, heuristics
		if withModel {
			a = append(a[:len(a):len(a)], "-model", model)
			wantRows = append(wantRows[:len(wantRows):len(wantRows)], "RL("+model+")")
		}
		lines := strings.Split(strings.TrimSpace(mustRun(t, a...)), "\n")
		header := strings.Fields(lines[0])
		if header[0] != "scheduler" || !slices.Equal(header[1:], wantHeader) {
			t.Errorf("header %q, want scheduler and the goals %q", lines[0], wantHeader)
		}
		var rows []string
		for _, l := range lines[1:] {
			cells := strings.Fields(l)
			if len(cells) != 1+len(metrics.Kinds) {
				t.Errorf("row %q has %d cells, want %d", l, len(cells), 1+len(metrics.Kinds))
			}
			rows = append(rows, cells[0])
		}
		if !slices.Equal(rows, wantRows) {
			t.Errorf("-model=%v: rows %q, want %q", withModel, rows, wantRows)
		}
	}
}

// TestExpList: exp -list prints exactly the registered experiment IDs.
func TestExpList(t *testing.T) {
	if got, want := mustRun(t, "exp", "-list"), strings.Join(exp.IDs(), "\n")+"\n"; got != want {
		t.Errorf("exp -list =\n%s\nwant\n%s", got, want)
	}
}

// TestExpSelfCheckFailure: a fleet experiment whose verdict cannot hold —
// 8-job streams leave hysteresis nothing to move — exits 1, prints the
// table with the violated verdict's evidence, and names the experiment
// once in the error.
func TestExpSelfCheckFailure(t *testing.T) {
	code, out, errOut := rlsched(t, "exp", "-run", "fleet-migration", "-eval-nseq", "1", "-eval-seqlen", "8")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if !strings.Contains(out, "== Fleet migration") || !strings.Contains(out, "verdict VIOLATED: hysteresis beats no-migration on per-stream fleet bsld: won ") {
		t.Errorf("stdout lacks the table and its violated verdict:\n%s", out)
	}
	if want := "rlsched exp: fleet-migration: self-check failed: "; !strings.HasPrefix(errOut, want) || strings.Count(errOut, "fleet-migration") != 1 {
		t.Errorf("stderr = %q, want one line starting %q", errOut, want)
	}
}

// TestUsageErrors: a wrong command line exits 2, a failed run exits 1.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"schedsim"}, 2},
		{[]string{"eval", "-zoo"}, 2},
		{[]string{"exp", "-trace", "x.json"}, 2},
		{[]string{"eval", "-preset", "no-such-trace"}, 2},
		{[]string{"train", "-goal", "speed"}, 2},
		{[]string{"exp"}, 2},
		{[]string{"exp", "-run", "table2", "-scale", "huge"}, 2},
		{[]string{"eval", "-trace", filepath.Join(t.TempDir(), "missing.swf")}, 1},
		{[]string{"trace", "-h"}, 0},
	} {
		if code, _, _ := rlsched(t, tc.args...); code != tc.code {
			t.Errorf("rlsched %s: exit %d, want %d", strings.Join(tc.args, " "), code, tc.code)
		}
	}
}

// TestFlagsMatchREADME: the README's "### `rlsched`" table has one row per
// flag naming the subcommands it applies to, and those are exactly the
// flags each subcommand registers.
func TestFlagsMatchREADME(t *testing.T) {
	registered := map[string][]string{}
	for _, name := range slices.Sorted(maps.Keys(commands)) {
		fs := flag.NewFlagSet(name, flag.ContinueOnError)
		commands[name](fs)
		fs.VisitAll(func(f *flag.Flag) { registered[f.Name] = append(registered[f.Name], name) })
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n### `rlsched`\n")
	if !ok {
		t.Fatal("README.md has no \"### `rlsched`\" section")
	}
	if i := strings.Index(section, "\n#"); i >= 0 {
		section = section[:i]
	}
	flagName := regexp.MustCompile("^ `-([a-z0-9-]+)` $")
	documented := map[string][]string{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			continue
		}
		if m := flagName.FindStringSubmatch(cells[1]); m != nil {
			subs := strings.Fields(strings.ReplaceAll(strings.ReplaceAll(cells[2], "`", ""), ",", " "))
			slices.Sort(subs)
			documented[m[1]] = subs
		}
	}
	for name, subs := range registered {
		if !slices.Equal(documented[name], subs) {
			t.Errorf("-%s: README lists subcommands %q, registered on %q", name, documented[name], subs)
		}
	}
	for name := range documented {
		if registered[name] == nil {
			t.Errorf("README documents -%s, which no subcommand registers", name)
		}
	}
}
