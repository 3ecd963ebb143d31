package exp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// goldenCase is one pinned output: an experiment's printed artifacts at
// fixed options, byte for byte, in testdata/<file>.
type goldenCase struct {
	id, file string
	o        Options
}

// goldenCases pins every registered experiment at ultraQuick, and the
// fleet experiments again at Quick.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, id := range IDs() {
		cases = append(cases, goldenCase{id, id + ".golden", ultraQuick()})
	}
	for _, id := range IDs() {
		if strings.HasPrefix(id, "fleet-") {
			cases = append(cases, goldenCase{id, id + ".quick.golden", Quick()})
		}
	}
	return cases
}

// maskWallClock replaces Table IX's measured durations, the only printed
// cells that depend on wall-clock time, with a fixed string. It runs
// before Print because Print pads each column to its widest cell.
func maskWallClock(id string, arts []Artifact) {
	if id != "table9" {
		return
	}
	for _, r := range arts[0].(*Table).Rows {
		r[1] = "<wall-clock>"
	}
}

// TestGolden runs every pinned output at Workers 1 and 4 against the same
// golden file: printed results are bit-identical per seed at any worker
// count. Accept a deliberate change with
// `go test ./internal/exp -run TestGolden -update` and review the diff of
// internal/exp/testdata.
func TestGolden(t *testing.T) {
	cases := goldenCases()
	known := map[string]bool{}
	for _, c := range cases {
		known[c.file] = true
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range files {
		if !known[filepath.Base(p)] {
			t.Errorf("%s pins no registered experiment: delete it", p)
		}
	}

	written := map[string]bool{}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%s/workers=%d", strings.TrimSuffix(c.file, ".golden"), workers)
			t.Run(name, func(t *testing.T) {
				o := c.o
				o.Workers = workers
				arts, err := Run(c.id, o)
				if err != nil {
					t.Fatal(err)
				}
				maskWallClock(c.id, arts)
				got := renderArts(arts)
				path := filepath.Join("testdata", c.file)
				if *update && !written[path] {
					written[path] = true
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (accept new output with: go test ./internal/exp -run TestGolden -update)", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s differs from %s (accept with -update only if the change is deliberate):\n%s",
						c.id, path, lineDiff(string(want), string(got)))
				}
			})
		}
	}
}

// TestOrderings checks, at Quick, the paper orderings that hold without a
// trained policy: on Table V, SJF beats FCFS on Lublin-1, SDSC-SP2 and
// Lublin-2 with and without backfilling, and backfilling lowers FCFS's
// bounded slowdown on those traces. HPC2N reads 1.00 for every scheduler
// at this scale, so it is not asserted. It also requires every fleet
// experiment's self-check to pass. The RL-vs-heuristic orderings need a
// policy trained at -scale standard or larger; they are manual runs
// (DESIGN §1).
func TestOrderings(t *testing.T) {
	if testing.Short() {
		t.Skip("trains Table V's agents at Quick scale")
	}
	arts, err := Run("table5", Quick())
	if err != nil {
		t.Fatal(err)
	}
	// bsld[backfill][trace] holds the FCFS and SJF cells.
	bsld := [2]map[string][2]float64{}
	for b, a := range arts {
		tab := a.(*Table)
		bsld[b] = map[string][2]float64{}
		for _, r := range tab.Rows {
			var fcfs, sjf float64
			if _, err := fmt.Sscan(r[1], &fcfs); err != nil {
				t.Fatalf("%s FCFS cell %q: %v", r[0], r[1], err)
			}
			if _, err := fmt.Sscan(r[4], &sjf); err != nil {
				t.Fatalf("%s SJF cell %q: %v", r[0], r[4], err)
			}
			bsld[b][r[0]] = [2]float64{fcfs, sjf}
		}
	}
	for _, tr := range []string{"Lublin-1", "SDSC-SP2", "Lublin-2"} {
		for b, mode := range []string{"without", "with"} {
			if v := bsld[b][tr]; !(v[1] < v[0]) {
				t.Errorf("%s %s backfilling: SJF bsld %.2f !< FCFS %.2f", tr, mode, v[1], v[0])
			}
		}
		if plain, bf := bsld[0][tr][0], bsld[1][tr][0]; !(bf < plain) {
			t.Errorf("%s: FCFS bsld with backfilling %.2f !< without %.2f", tr, bf, plain)
		}
	}
	for _, id := range IDs() {
		if strings.HasPrefix(id, "fleet-") {
			if _, err := Run(id, Quick()); err != nil {
				t.Errorf("%s self-check: %v", id, err)
			}
		}
	}
}

// lineDiff lists every line where got departs from want.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	line := func(ls []string, i int) string {
		if i < len(ls) {
			return ls[i]
		}
		return "<EOF>"
	}
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		if wl, gl := line(w, i), line(g, i); wl != gl {
			fmt.Fprintf(&b, "line %d:\n- %s\n+ %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
