package nn

import (
	"testing"
	_ "unsafe" // for go:linkname
)

// vectorKernel is autograd's unexported addScaled body selector, which its
// package init sets to whether the CPU can run the vector body. Tests here
// reach it by name so that the parity tests run with each body; nothing
// outside tests writes it.
//
//go:linkname vectorKernel rlsched/internal/autograd.vectorKernel
var vectorKernel bool

// forEachKernel runs f as one subtest per addScaled body the host can run:
// "portable" always, then "vector" where the CPU passed autograd's check.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	have := vectorKernel
	defer func() { vectorKernel = have }()
	for _, vec := range []bool{false, true} {
		if vec && !have {
			t.Log("no vector addScaled on this CPU: portable loop only")
			continue
		}
		vectorKernel = vec
		name := "portable"
		if vec {
			name = "vector"
		}
		t.Run(name, f)
	}
}
