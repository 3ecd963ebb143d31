package trace

import (
	"fmt"
	"math/rand"
	"strings"
)

// ChaosSWF generates a seeded hostile SWF byte stream of about n lines:
// genuine Parallel Workloads Archive header directives (Version, Computer,
// MaxJobs, MaxNodes, MaxProcs, UnixStartTime), valid records, records with
// the malformed and negative fields real archives contain (which the
// parser must skip, not crash on), stray comments mid-stream, and odd but
// legal whitespace. Every output for a given (seed, n) is identical — the
// generator exists to seed the SWF fuzz targets and to regression-test the
// loaders' bail-clean behavior on adversarial input.
func ChaosSWF(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString("; Version: 2.2\n")
	b.WriteString("; Computer: IBM SP2\n")
	fmt.Fprintf(&b, "; MaxJobs: %d\n", n)
	b.WriteString("; MaxNodes: 128\n")
	b.WriteString("; MaxProcs: 128\n")
	b.WriteString("; UnixStartTime: 893683200\n")
	t := 0
	for i := 1; i <= n; i++ {
		t += 1 + rng.Intn(1999) // strictly increasing: a fractional submit (case 3) must not overtake its successor
		switch rng.Intn(8) {
		case 0: // unusable: zero processors and runtime (skipped, not fatal)
			fmt.Fprintf(&b, "%d %d 0 0 0 -1 -1 0 0 -1 1 0 0 0 1 1 -1 -1\n", i, t)
		case 1: // negative submit time (skipped by validation)
			fmt.Fprintf(&b, "%d -%d 0 60 1 -1 -1 1 60 -1 1 0 0 0 1 1 -1 -1\n", i, 1+rng.Intn(100))
		case 2: // stray comment mid-stream
			fmt.Fprintf(&b, "; note %d\n", rng.Intn(1000))
			fmt.Fprintf(&b, "%d %d -1 %d 1 -1 -1 1 %d -1 1 %d 0 0 1 1 -1 -1\n",
				i, t, 30+rng.Intn(3600), 60+rng.Intn(7200), rng.Intn(40))
		case 3: // fractional fields (legal floats; may round away on write)
			fmt.Fprintf(&b, "%d %d.5 0.25 %d.4 2 -1 -1 2 %d.9 -1 1 %d 0 0 1 1 -1 -1\n",
				i, t, rng.Intn(600), 60+rng.Intn(600), rng.Intn(40))
		case 4: // request fallbacks: used procs/time stand in for requests
			fmt.Fprintf(&b, "%d %d 0 %d %d -1 -1 0 0 -1 1 %d 0 0 1 1 -1 -1\n",
				i, t, 60+rng.Intn(3600), 1+rng.Intn(8), rng.Intn(40))
		case 5: // tab-and-space soup (legal whitespace)
			fmt.Fprintf(&b, "%d\t%d  -1\t%d 4 -1 -1 4\t%d -1 1 %d 0 0 1 1 -1 -1\n",
				i, t, 60+rng.Intn(3600), 120+rng.Intn(7200), rng.Intn(40))
		default: // plain valid record
			procs := 1 << rng.Intn(6)
			rt := 60 + rng.Intn(7200)
			fmt.Fprintf(&b, "%d %d -1 %d %d -1 -1 %d %d -1 1 %d %d 0 1 1 -1 -1\n",
				i, t, rt, procs, procs, rt*2, rng.Intn(40), rng.Intn(8))
		}
	}
	return []byte(b.String())
}
