// Package policy is the one decision path from queue states to a trained
// policy network's choices: NetScheduler encodes each queue with
// sim.BuildObsInto, scores a whole batch in one nn.Inferer forward pass,
// and Argmax picks the highest-probability job (no exploration at
// inference, §IV-B1). The simulator runs it as a sim.Scheduler (evaluation
// sequences, cross-trace generalization in Table VII); rlservd's
// PolicyEngine and the fleet RLScorer run the same Logits call, so the
// daemon decides exactly as the simulator evaluates.
package policy

import (
	"fmt"
	"sync"

	"rlsched/internal/job"
	"rlsched/internal/nn"
	"rlsched/internal/sim"
)

// Queue is one decision problem as the network sees it.
type Queue struct {
	// Jobs is the visible pending queue in order; slots past the
	// network's maxObs are cut off, like the simulator's window.
	Jobs []*job.Job
	Now  float64
	View sim.ClusterView
	// QueueLen is the full pending-queue length, which may exceed
	// len(Jobs). A value below len(Jobs), 0 included, means len(Jobs).
	QueueLen int
}

// NetScheduler wraps a policy network as a deterministic sim.Scheduler and
// is the batched scoring path behind every other policy decision. Weights
// are only read and scratch is pooled, so it is safe for concurrent use
// and allocation-free in steady state.
type NetScheduler struct {
	Net    nn.PolicyNet
	maxObs int
	pool   sync.Pool // *scratch
}

type scratch struct {
	obs    []float64
	logits []float64
	limits []int
}

// NewNetScheduler wraps net, which must be built for sim.JobFeatures
// features per job (the encoder's width).
func NewNetScheduler(net nn.PolicyNet) (*NetScheduler, error) {
	maxObs, feat := net.Dims()
	if feat != sim.JobFeatures {
		return nil, fmt.Errorf("policy: %s network expects %d features per job, encoder produces %d",
			net.Kind(), feat, sim.JobFeatures)
	}
	return &NetScheduler{Net: net, maxObs: maxObs}, nil
}

// MaxObs is the number of job slots the network scores per queue.
func (n *NetScheduler) MaxObs() int { return n.maxObs }

// Logits scores count queues in one forward pass: queue(i) is the i-th
// decision problem, and use(i, row) receives its logits over the first
// min(len(Jobs), MaxObs) slots. row is pooled scratch, valid only until
// use returns.
func (n *NetScheduler) Logits(count int, queue func(i int) Queue, use func(i int, row []float64)) {
	rowLen := n.maxObs * sim.JobFeatures
	sc, _ := n.pool.Get().(*scratch)
	if sc == nil {
		sc = &scratch{}
	}
	if cap(sc.obs) < count*rowLen {
		sc.obs = make([]float64, count*rowLen)
		sc.logits = make([]float64, count*n.maxObs)
		sc.limits = make([]int, count)
	}
	obs, logits, limits := sc.obs[:count*rowLen], sc.logits[:count*n.maxObs], sc.limits[:count]
	for i := range limits {
		q := queue(i)
		q.QueueLen = max(q.QueueLen, len(q.Jobs))
		sim.BuildObsInto(obs[i*rowLen:(i+1)*rowLen], q.Jobs, q.Now, q.View, q.QueueLen, n.maxObs)
		limits[i] = min(len(q.Jobs), n.maxObs)
	}
	n.Net.InferLogits(obs, count, logits)
	for i, limit := range limits {
		use(i, logits[i*n.maxObs:i*n.maxObs+limit])
	}
	n.pool.Put(sc)
}

// Pick implements sim.Scheduler: a batch of one, argmax over the visible
// slots.
func (n *NetScheduler) Pick(visible []*job.Job, now float64, view sim.ClusterView) int {
	best := 0
	n.Logits(1, func(int) Queue {
		return Queue{Jobs: visible, Now: now, View: view}
	}, func(_ int, row []float64) { best = Argmax(row) })
	return best
}

// Argmax returns the index of the first largest value in row, or 0 when
// row is empty.
func Argmax(row []float64) int {
	best := 0
	for j := 1; j < len(row); j++ {
		if row[j] > row[best] {
			best = j
		}
	}
	return best
}
