package autograd

import "testing"

// forEachKernel runs f as one subtest per addScaled body the host can run:
// "portable" always, then "vector" where the CPU passed the init-time
// check. It flips vectorKernel for the subtest and restores it after.
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
		t.Run(kernelName(vec), f)
	}
}

func kernelName(vec bool) string {
	if vec {
		return "vector"
	}
	return "portable"
}
