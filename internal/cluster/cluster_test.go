package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllocateRelease(t *testing.T) {
	c := New(8)
	if c.Total() != 8 || c.Free() != 8 {
		t.Fatalf("fresh cluster state wrong: %d/%d", c.Total(), c.Free())
	}
	if err := c.Allocate(1, 3); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if c.Free() != 5 {
		t.Fatalf("after alloc: free=%d, want 5", c.Free())
	}
	if err := c.Allocate(1, 1); err == nil {
		t.Error("double allocation must fail")
	}
	if err := c.Allocate(2, 6); err == nil {
		t.Error("oversubscription must fail")
	}
	if err := c.Release(1); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if c.Free() != 8 {
		t.Error("release must restore all processors")
	}
	if err := c.Release(1); err == nil {
		t.Error("double release must fail")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCanAllocateEdges(t *testing.T) {
	c := New(4)
	if c.CanAllocate(0) {
		t.Error("zero-processor request must be rejected")
	}
	if c.CanAllocate(-1) {
		t.Error("negative request must be rejected")
	}
	if !c.CanAllocate(4) {
		t.Error("full-machine request must be accepted when idle")
	}
	if c.CanAllocate(5) {
		t.Error("over-capacity request must be rejected")
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) must panic")
		}
	}()
	New(0)
}

func TestUtilizationAccounting(t *testing.T) {
	c := New(10)
	if err := c.Allocate(1, 5); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTo(100) // 5 procs busy for 100s = 500 proc-s
	if err := c.Release(1); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTo(200) // idle
	if u := c.Utilization(0, 200); u != 0.25 {
		t.Errorf("Utilization = %g, want 0.25 (500 of 2000 proc-s)", u)
	}
	if u := c.Utilization(0, 0); u != 0 {
		t.Errorf("degenerate Utilization = %g, want 0", u)
	}
	// Non-monotone advance is ignored.
	c.AdvanceTo(50)
	if u := c.Utilization(0, 200); u != 0.25 {
		t.Error("backwards AdvanceTo must be a no-op")
	}
}

func TestUtilizationClamped(t *testing.T) {
	c := New(2)
	if err := c.Allocate(1, 2); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTo(100)
	if u := c.Utilization(0, 50); u != 1 {
		t.Errorf("Utilization clamps to 1, got %g", u)
	}
}

func TestReset(t *testing.T) {
	c := New(6)
	if err := c.Allocate(9, 4); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTo(10)
	c.Reset()
	if c.Free() != 6 || c.Utilization(0, 10) != 0 {
		t.Error("Reset must restore pristine state")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := c.Allocate(9, 6); err != nil {
		t.Errorf("Reset must forget job 9's allocation: %v", err)
	}
}

// TestConservationProperty drives random allocate/release sequences and
// checks processors are conserved after every operation: the free count is
// the total minus what the live jobs hold.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(32)
		live := map[int]int{} // job ID -> processors held
		held := 0
		next := 1
		for op := 0; op < 300; op++ {
			if rng.Float64() < 0.6 {
				n := 1 + rng.Intn(10)
				if c.CanAllocate(n) {
					if err := c.Allocate(next, n); err != nil {
						return false
					}
					live[next] = n
					held += n
					next++
				}
			} else if len(live) > 0 {
				for id, n := range live {
					if err := c.Release(id); err != nil {
						return false
					}
					delete(live, id)
					held -= n
					break
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
			if c.Free() != c.Total()-held {
				t.Logf("free=%d, want %d-%d", c.Free(), c.Total(), held)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestCheckInvariantsCatchesCorruptCounts corrupts each count the cluster
// keeps and expects CheckInvariants to notice.
func TestCheckInvariantsCatchesCorruptCounts(t *testing.T) {
	for name, corrupt := range map[string]func(c *Cluster){
		"busy drifts from the per-job sum": func(c *Cluster) { c.busy++ },
		"empty allocation":                 func(c *Cluster) { c.used[7] = 0 },
		"more allocated than exists": func(c *Cluster) {
			c.used[7] = c.total
			c.busy += c.total
		},
	} {
		c := New(8)
		if err := c.Allocate(1, 3); err != nil {
			t.Fatal(err)
		}
		corrupt(c)
		if err := c.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants passed", name)
		}
	}
}
