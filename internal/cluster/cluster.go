// Package cluster models the homogeneous HPC compute resource the paper's
// SchedGym simulates: a fixed pool of identical processors, counted rather
// than named, that jobs hold from allocation until release, with busy-time
// accounting to derive the utilization metric.
package cluster

import "fmt"

// Cluster is a homogeneous machine with a fixed number of processors.
// It is not safe for concurrent use; the event-driven simulator drives it
// from a single goroutine.
type Cluster struct {
	total int
	busy  int         // processors currently allocated
	used  map[int]int // job ID -> processors it holds

	// busyTime integrates (allocated processors × seconds) for
	// utilization accounting. Accrual is lazy: AdvanceTo only moves the
	// clock, and the integral is extended only at the points where the
	// busy count changes (Allocate/Release); reads extend it on the fly
	// without storing. This makes busyTime a function of the allocation
	// history alone — neither intermediate AdvanceTo calls nor mid-run
	// utilization reads can perturb the floating-point sum, which the
	// fleet's event-heap stepping and health sampling rely on for
	// byte-identical results against the unsampled full-sweep reference.
	busyTime    float64
	lastTime    float64 // current accounting clock
	accrualTime float64 // clock value busyTime has been integrated up to
}

// accrue extends the busy-time integral up to the current clock. Only the
// allocation-change points call it, so the stored sum's segmentation is
// determined by the allocation history alone.
func (c *Cluster) accrue() {
	if c.lastTime > c.accrualTime {
		c.busyTime += float64(c.busy) * (c.lastTime - c.accrualTime)
		c.accrualTime = c.lastTime
	}
}

// peekBusyTime returns the integral extended to the current clock without
// moving the accrual point — a pure read, so sampling utilization mid-run
// cannot split a busy segment and shift later floating-point sums.
func (c *Cluster) peekBusyTime() float64 {
	if c.lastTime > c.accrualTime {
		return c.busyTime + float64(c.busy)*(c.lastTime-c.accrualTime)
	}
	return c.busyTime
}

// New returns an idle cluster with n processors.
func New(n int) *Cluster {
	if n <= 0 {
		panic(fmt.Sprintf("cluster: non-positive size %d", n))
	}
	return &Cluster{total: n, used: make(map[int]int)}
}

// Total returns the cluster size in processors.
func (c *Cluster) Total() int { return c.total }

// Free returns the number of idle processors.
func (c *Cluster) Free() int { return c.total - c.busy }

// CanAllocate reports whether n processors are available right now.
func (c *Cluster) CanAllocate(n int) bool { return n > 0 && n <= c.Free() }

// Allocate assigns n processors to jobID. It fails if the job already
// holds an allocation or resources are insufficient.
func (c *Cluster) Allocate(jobID, n int) error {
	if _, ok := c.used[jobID]; ok {
		return fmt.Errorf("cluster: job %d already allocated", jobID)
	}
	if !c.CanAllocate(n) {
		return fmt.Errorf("cluster: cannot allocate %d procs (%d free)", n, c.Free())
	}
	c.accrue()
	c.used[jobID] = n
	c.busy += n
	return nil
}

// Release returns the processors held by jobID to the free pool.
func (c *Cluster) Release(jobID int) error {
	n, ok := c.used[jobID]
	if !ok {
		return fmt.Errorf("cluster: job %d holds no allocation", jobID)
	}
	c.accrue()
	delete(c.used, jobID)
	c.busy -= n
	return nil
}

// AdvanceTo moves the accounting clock to time t. Calls must be monotone
// in t; busy processor-seconds accrue lazily at the next allocation
// change or accounting read, so skipping intermediate advances is exact.
func (c *Cluster) AdvanceTo(t float64) {
	if t < c.lastTime {
		return
	}
	c.lastTime = t
}

// Utilization returns busyTime / (total × horizon) over [start, end].
func (c *Cluster) Utilization(start, end float64) float64 {
	span := end - start
	if span <= 0 {
		return 0
	}
	u := c.peekBusyTime() / (float64(c.total) * span)
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// Reset returns the cluster to idle and zeroes the accounting clock.
func (c *Cluster) Reset() {
	clear(c.used)
	c.busy = 0
	c.busyTime = 0
	c.lastTime = 0
	c.accrualTime = 0
}

// CheckInvariants verifies conservation of processors; the simulator's
// property tests call it after every step.
func (c *Cluster) CheckInvariants() error {
	allocated := 0
	for id, n := range c.used {
		if n <= 0 {
			return fmt.Errorf("cluster: job %d holds %d procs", id, n)
		}
		allocated += n
	}
	if allocated != c.busy {
		return fmt.Errorf("cluster: busy=%d but %d allocated", c.busy, allocated)
	}
	if c.busy > c.total {
		return fmt.Errorf("cluster: %d allocated > %d total", c.busy, c.total)
	}
	return nil
}
