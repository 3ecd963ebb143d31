package fleet

import "sync"

// Parallel stepping of woken members — the fixed-block idiom the autograd
// Dense backward uses (internal/autograd/parallel.go): the wake list is
// cut into a FIXED number of contiguous index-ordered blocks, and blocks
// run on however many workers SetWorkers granted. Member simulators are
// disjoint state and stepping cannot fail, so the interleaving cannot
// influence results: stepping is byte-identical for every worker count,
// pinned by a parity test under -race.

// stepBlocks is the fixed block count of parallel stepping (also its
// maximum useful parallelism per advance).
const stepBlocks = 8

// minParallelWake is the wake-list size below which stepping stays serial
// — goroutine fan-out costs more than a handful of syncTo calls. The
// threshold only picks an execution strategy; results are identical on
// either side of it.
const minParallelWake = 16

// stepWake advances every member on the index-sorted wake list to time t.
func (f *Fleet) stepWake(t float64, wake []int) {
	workers := f.workers
	if workers > stepBlocks {
		workers = stepBlocks
	}
	// A recorder is shared across members, so traced runs step serially.
	if workers <= 1 || len(wake) < minParallelWake || f.rec != nil {
		for _, i := range wake {
			f.members[i].syncTo(t)
		}
		return
	}
	n := len(wake)
	var wg sync.WaitGroup
	ch := make(chan int)
	for p := 0; p < workers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range ch {
				lo, hi := b*n/stepBlocks, (b+1)*n/stepBlocks
				for _, i := range wake[lo:hi] {
					f.members[i].syncTo(t)
				}
			}
		}()
	}
	for b := 0; b < stepBlocks; b++ {
		ch <- b
	}
	close(ch)
	wg.Wait()
}
