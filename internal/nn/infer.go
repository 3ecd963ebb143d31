package nn

import (
	"fmt"
	"sync"

	ag "rlsched/internal/autograd"
)

// This file is the serving-time inference fast path. Training goes through
// the autograd graph (Logits); serving must not: building graph nodes and
// backward closures per request allocates far too much for a hot decision
// loop. InferLogits runs the same arithmetic on raw float64 slices with
// pooled scratch buffers. Weights are only ever read, so any number of
// goroutines may infer concurrently — the only rule is that no training
// update may run at the same time (the serving daemon never trains; it
// swaps whole models atomically instead).

// Inferer is the graph-free fast path of a PolicyNet: an allocation-light
// forward pass that is safe for concurrent use. Every PolicyNet implements
// it, so both the serving daemon and the training rollout collector select
// actions without ever touching the autograd engine.
type Inferer interface {
	// InferLogits scores a batch of flattened observations
	// obs[batch, maxObs·feat] into out[batch·maxObs].
	InferLogits(obs []float64, batch int, out []float64)
}

// ValueInferer is the critic's graph-free fast path, used by rollout
// collection for per-step value estimates.
type ValueInferer interface {
	// InferValues predicts one value per observation: obs[batch,
	// maxObs·feat] into out[batch].
	InferValues(obs []float64, batch int, out []float64)
}

// AsInferer returns net's graph-free fast path, which every PolicyNet
// carries.
func AsInferer(net PolicyNet) Inferer { return net }

// SyncParams is a cheap weight refresh: it copies every parameter tensor of
// src into dst in Params() order without allocating (unlike a snapshot
// round-trip). dst and src must be architecturally identical. Callers own
// the synchronization — no forward pass may read dst concurrently.
func SyncParams(dst, src Module) error {
	dp, sp := dst.Params(), src.Params()
	if len(dp) != len(sp) {
		return fmt.Errorf("nn: sync across models with %d vs %d tensors", len(dp), len(sp))
	}
	for i, p := range dp {
		if p.Size() != sp[i].Size() {
			return fmt.Errorf("nn: sync tensor %d: %d vs %d values", i, p.Size(), sp[i].Size())
		}
		copy(p.Data, sp[i].Data)
	}
	return nil
}

// scratchPool recycles the intermediate activation buffers of infer runs.
var scratchPool = sync.Pool{New: func() interface{} { return new([]float64) }}

func getScratch(n int) *[]float64 {
	p := scratchPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	return p
}

// infer runs rows x[n, sizes[0]] through the stack without touching the
// autograd engine, writing the last layer's output to out[n, lastWidth].
// Each layer is ag.DenseRows, the forward kernel training's ag.Dense runs,
// so inference and the autograd forward pass agree to the bit.
func (m *MLP) infer(x []float64, n int, out []float64) {
	widest := 0
	for _, l := range m.Layers {
		if w := l.W.Shape[1]; w > widest {
			widest = w
		}
	}
	a := getScratch(n * widest)
	b := getScratch(n * widest)
	defer scratchPool.Put(a)
	defer scratchPool.Put(b)

	src, dst, spare := x, *a, *b
	for li, l := range m.Layers {
		in, width := l.W.Shape[0], l.W.Shape[1]
		act := m.Act.denseCode()
		if li+1 == len(m.Layers) {
			act, dst = ag.DenseActNone, out
		}
		ag.DenseRows(src[:n*in], l.W.Data, l.B.Data, dst[:n*width], in, width, act)
		src, dst, spare = dst, spare, dst
	}
}

// reluInPlace clamps the negative entries of v to 0.
func reluInPlace(v []float64) {
	for i, x := range v {
		if x < 0 {
			v[i] = 0
		}
	}
}

// InferLogits implements Inferer: the kernel network's reshape trick means
// the batch is just batch·maxObs independent rows through the shared MLP.
func (k *KernelNet) InferLogits(obs []float64, batch int, out []float64) {
	if len(obs) != batch*k.maxObs*k.feat || len(out) != batch*k.maxObs {
		panic("nn: InferLogits buffer sizes do not match network dims")
	}
	k.mlp.infer(obs, batch*k.maxObs, out)
}

// InferLogits implements Inferer for the order-sensitive MLP baselines.
func (m *MLPPolicy) InferLogits(obs []float64, batch int, out []float64) {
	if len(obs) != batch*m.maxObs*m.feat || len(out) != batch*m.maxObs {
		panic("nn: InferLogits buffer sizes do not match network dims")
	}
	m.mlp.infer(obs, batch, out)
}

// InferLogits implements Inferer for the convolutional baseline: the two
// (conv, relu, pool) stages run through the Conv2D/MaxPool2D inference
// twins on pooled scratch, then the dense stack.
func (l *LeNet) InferLogits(obs []float64, batch int, out []float64) {
	if len(obs) != batch*l.maxObs*l.feat || len(out) != batch*l.maxObs {
		panic("nn: InferLogits buffer sizes do not match network dims")
	}
	h1, w1 := l.maxObs-2, l.feat-2 // conv1 3×3 valid
	h1p, w1p := h1/2, w1           // pool 2×1
	h2, w2 := h1p-2, w1p-2         // conv2 3×3 valid
	h2p, w2p := h2/2, w2           // pool 2×1

	c1 := getScratch(batch * 4 * h1 * w1)
	p1 := getScratch(batch * 4 * h1p * w1p)
	c2 := getScratch(batch * 8 * h2 * w2)
	p2 := getScratch(batch * 8 * h2p * w2p)
	defer scratchPool.Put(c1)
	defer scratchPool.Put(p1)
	defer scratchPool.Put(c2)
	defer scratchPool.Put(p2)

	b1 := (*c1)[:batch*4*h1*w1]
	ag.Conv2DInfer(obs, batch, 1, l.maxObs, l.feat, l.w1.Data, l.b1.Data, 4, 3, 3, b1)
	reluInPlace(b1)
	b2 := (*p1)[:batch*4*h1p*w1p]
	ag.MaxPool2DInfer(b1, batch, 4, h1, w1, 2, 1, b2)
	b3 := (*c2)[:batch*8*h2*w2]
	ag.Conv2DInfer(b2, batch, 4, h1p, w1p, l.w2.Data, l.b2.Data, 8, 3, 3, b3)
	reluInPlace(b3)
	b4 := (*p2)[:batch*8*h2p*w2p]
	ag.MaxPool2DInfer(b3, batch, 8, h2, w2, 2, 1, b4)
	l.dense.infer(b4, batch, out)
}

// InferValues implements ValueInferer: the critic is a plain MLP, so the
// shared graph-free stack applies directly.
func (v *ValueNet) InferValues(obs []float64, batch int, out []float64) {
	if len(obs) != batch*v.maxObs*v.feat || len(out) != batch {
		panic("nn: InferValues buffer sizes do not match network dims")
	}
	v.mlp.infer(obs, batch, out)
}

// Compile-time proof that the critic has the fast path (NewPolicy proves
// it for every policy architecture).
var _ ValueInferer = (*ValueNet)(nil)
