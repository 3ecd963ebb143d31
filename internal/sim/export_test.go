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
	// holding them: the cluster's busy count and every user's held count
	// must each equal the sum over the matching running jobs.
	busy := 0
	perUser := make(map[int]int, len(s.userProcs))
	for u := range s.userProcs {
		perUser[u] = 0
	}
	for _, j := range s.running {
		busy += j.RequestedProcs
		if j.UserID >= 0 {
			perUser[j.UserID] += j.RequestedProcs
		}
	}
	if held := s.cfg.Processors - s.cluster.Free(); held != busy {
		return fmt.Errorf("sim: cluster holds %d procs but running jobs request %d", held, busy)
	}
	for u, n := range perUser {
		if s.userProcs[u] != n {
			return fmt.Errorf("sim: user %d holds %d procs but runs jobs requesting %d", u, s.userProcs[u], n)
		}
	}
	return nil
}
