// Package rl implements the reinforcement-learning machinery of the paper:
// a trajectory buffer with Generalized Advantage Estimation, the PPO
// actor–critic update (§V-A: OpenAI SpinningUp-style PPO, 80 update
// iterations per epoch, lr 1e-3), the parallel rollout collector driving
// trajectories through the graph-free inference fast path, and the
// trajectory-filtering variance reduction of §IV-C.
package rl

import (
	"fmt"
	"math"
)

// Buffer accumulates rollout steps across trajectories within one training
// epoch and computes GAE(λ) advantages and reward-to-go returns per
// finished trajectory. Observations and masks are stored flat (step i's
// observation at [i·obsDim, (i+1)·obsDim)) so the epoch's batch feeds the
// PPO update as one contiguous tensor without reassembly.
type Buffer struct {
	gamma, lam float64

	obsDim int
	maxObs int

	Obs   []float64
	Masks []bool
	Acts  []int
	Rews  []float64
	Vals  []float64
	Logps []float64

	Advs []float64
	Rets []float64

	pathStart int
}

// NewBuffer returns a buffer with discount gamma and GAE lambda. The
// observation and mask widths are fixed by the first stored step.
func NewBuffer(gamma, lam float64) *Buffer {
	return &Buffer{gamma: gamma, lam: lam}
}

// StoreRollout appends a whole collected trajectory and closes its path
// (terminal trajectories bootstrap with 0, the paper's reward shape).
func (b *Buffer) StoreRollout(r Rollout) error {
	if r.Err != nil {
		return r.Err
	}
	n := r.Steps()
	if n == 0 {
		return nil
	}
	if len(r.Obs)%n != 0 || len(r.Masks)%n != 0 {
		return fmt.Errorf("rl: rollout with ragged buffers (%d obs, %d masks, %d steps)",
			len(r.Obs), len(r.Masks), n)
	}
	b.setDims(len(r.Obs)/n, len(r.Masks)/n)
	b.Obs = append(b.Obs, r.Obs...)
	b.Masks = append(b.Masks, r.Masks...)
	b.Acts = append(b.Acts, r.Acts...)
	b.Rews = append(b.Rews, r.Rews...)
	b.Vals = append(b.Vals, r.Vals...)
	b.Logps = append(b.Logps, r.Logps...)
	b.FinishPath(0)
	return nil
}

func (b *Buffer) setDims(obsDim, maxObs int) {
	if b.obsDim == 0 && b.maxObs == 0 {
		b.obsDim, b.maxObs = obsDim, maxObs
		return
	}
	if b.obsDim != obsDim || b.maxObs != maxObs {
		panic(fmt.Sprintf("rl: buffer dims %dx%d, got step of %dx%d",
			b.obsDim, b.maxObs, obsDim, maxObs))
	}
}

// Len returns the number of stored steps.
func (b *Buffer) Len() int { return len(b.Acts) }

// FinishPath closes the current trajectory, bootstrapping with lastVal for
// truncated paths (0 for terminal ones), and fills Advs/Rets for its steps.
func (b *Buffer) FinishPath(lastVal float64) {
	n := b.Len()
	if n == b.pathStart {
		return
	}
	rews := b.Rews[b.pathStart:n]
	vals := b.Vals[b.pathStart:n]

	advs := make([]float64, len(rews))
	rets := make([]float64, len(rews))
	nextAdv := 0.0
	nextVal := lastVal
	nextRet := lastVal
	for t := len(rews) - 1; t >= 0; t-- {
		delta := rews[t] + b.gamma*nextVal - vals[t]
		nextAdv = delta + b.gamma*b.lam*nextAdv
		advs[t] = nextAdv
		nextVal = vals[t]
		nextRet = rews[t] + b.gamma*nextRet
		rets[t] = nextRet
	}
	b.Advs = append(b.Advs, advs...)
	b.Rets = append(b.Rets, rets...)
	b.pathStart = n
}

// Batch is the training view of a finished epoch's data with normalized
// advantages. Obs and Masks are flat row-major arrays — the PPO update
// wraps Obs in an [N, ObsDim] tensor directly.
type Batch struct {
	N      int
	ObsDim int
	MaxObs int

	Obs   []float64 // N×ObsDim
	Masks []bool    // N×MaxObs
	Acts  []int
	Advs  []float64
	Rets  []float64
	Logps []float64
}

// Get finalizes the epoch: it normalizes advantages to zero mean and unit
// variance (the standard PPO variance-reduction trick) and returns the
// batch. It errors if a trajectory is still open.
func (b *Buffer) Get() (Batch, error) {
	if b.pathStart != b.Len() {
		return Batch{}, fmt.Errorf("rl: Get with an unfinished trajectory (%d of %d steps closed)",
			b.pathStart, b.Len())
	}
	if b.Len() == 0 {
		return Batch{}, fmt.Errorf("rl: Get on an empty buffer")
	}
	mean, std := meanStd(b.Advs)
	advs := make([]float64, len(b.Advs))
	for i, a := range b.Advs {
		advs[i] = (a - mean) / (std + 1e-8)
	}
	return Batch{
		N:      b.Len(),
		ObsDim: b.obsDim,
		MaxObs: b.maxObs,
		Obs:    b.Obs,
		Masks:  b.Masks,
		Acts:   b.Acts,
		Advs:   advs,
		Rets:   b.Rets,
		Logps:  b.Logps,
	}, nil
}

// Reset clears the buffer for the next epoch.
func (b *Buffer) Reset() {
	b.Obs = b.Obs[:0]
	b.Masks = b.Masks[:0]
	b.Acts = b.Acts[:0]
	b.Rews = b.Rews[:0]
	b.Vals = b.Vals[:0]
	b.Logps = b.Logps[:0]
	b.Advs = b.Advs[:0]
	b.Rets = b.Rets[:0]
	b.pathStart = 0
}

func meanStd(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	m := 0.0
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	return m, math.Sqrt(v / float64(len(xs)))
}
