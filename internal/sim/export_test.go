package sim

import (
	"fmt"
	"slices"
)

// CheckInvariants verifies simulator and cluster consistency; the property
// tests call it after every step.
func (s *Simulator) CheckInvariants() error {
	if err := s.cluster.CheckInvariants(); err != nil {
		return err
	}
	started := 0
	for _, j := range s.seq {
		if j.Started() {
			started++
			if j.StartTime < j.SubmitTime {
				return fmt.Errorf("sim: job %d started before submission", j.ID)
			}
		}
	}
	if inFlight := started - s.completed; inFlight != len(s.running) {
		return fmt.Errorf("sim: %d in flight but %d running", inFlight, len(s.running))
	}
	if c := s.committed; c != nil && (!slices.Contains(s.pending, c) || c.Started()) {
		return fmt.Errorf("sim: committed job %d is not a pending, unstarted job", c.ID)
	}
	// Processors are counts, so conservation is checked against the jobs
	// holding them: the cluster's busy count must equal the sum over the
	// running jobs.
	busy := 0
	for _, j := range s.running {
		busy += j.RequestedProcs
	}
	if held := s.cfg.Processors - s.cluster.Free(); held != busy {
		return fmt.Errorf("sim: cluster holds %d procs but running jobs request %d", held, busy)
	}
	return nil
}
