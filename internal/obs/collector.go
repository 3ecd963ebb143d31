package obs

import "sync"

// Collector is a Recorder that retains a copy of every migration probe,
// fairness snapshot and job event, in arrival order — the sink the Chrome
// trace writer reads from. Placement decisions are discarded: no exporter
// reads them (a Ring keeps the recent ones). It is mutex-guarded, so it
// is safe to share across goroutines, though fleet runs emit serially
// anyway.
type Collector struct {
	mu         sync.Mutex
	migrations []MigrationProbe
	fairness   []FairnessSnapshot
	jobs       []JobEvent
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// copyDecision deep-copies a placement decision (the emitter owns and
// reuses d and its slices).
func copyDecision(d *PlacementDecision) PlacementDecision {
	c := *d
	if d.Candidates != nil {
		c.Candidates = make([]CandidateTrace, len(d.Candidates))
		for i := range d.Candidates {
			c.Candidates[i] = d.Candidates[i]
			if ps := d.Candidates[i].Plugins; len(ps) > 0 {
				c.Candidates[i].Plugins = append([]PluginScore(nil), ps...)
			} else {
				c.Candidates[i].Plugins = nil
			}
		}
	}
	return c
}

// Placement implements Recorder (discarded).
func (c *Collector) Placement(*PlacementDecision) {}

// Migration implements Recorder.
func (c *Collector) Migration(p *MigrationProbe) {
	c.mu.Lock()
	c.migrations = append(c.migrations, *p)
	c.mu.Unlock()
}

// Fairness implements Recorder.
func (c *Collector) Fairness(s *FairnessSnapshot) {
	c.mu.Lock()
	c.fairness = append(c.fairness, *s)
	c.mu.Unlock()
}

// Job implements Recorder.
func (c *Collector) Job(e *JobEvent) {
	c.mu.Lock()
	c.jobs = append(c.jobs, *e)
	c.mu.Unlock()
}

// Migrations returns the collected migration probes in arrival order.
func (c *Collector) Migrations() []MigrationProbe {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]MigrationProbe(nil), c.migrations...)
}

// FairnessSnapshots returns the collected fairness snapshots in arrival
// order.
func (c *Collector) FairnessSnapshots() []FairnessSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]FairnessSnapshot(nil), c.fairness...)
}

// Jobs returns the collected job lifecycle events in arrival order.
func (c *Collector) Jobs() []JobEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]JobEvent(nil), c.jobs...)
}
