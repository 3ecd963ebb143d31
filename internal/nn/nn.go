// Package nn builds the neural networks of §IV-B on top of the autograd
// engine: the order-insensitive kernel-based policy network that is the
// paper's architectural contribution, the MLP v1/v2/v3 and LeNet baselines
// of Table IV, and the 3-layer value network of the actor–critic model.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	ag "rlsched/internal/autograd"
)

// Module is anything exposing trainable parameters.
type Module interface {
	Params() []*ag.Tensor
}

// Activation selects the nonlinearity between layers.
type Activation int

const (
	// ActTanh is the default hidden activation (SpinningUp's default).
	ActTanh Activation = iota
	// ActReLU is the rectifier.
	ActReLU
	// ActIdentity applies no nonlinearity.
	ActIdentity
)

// denseCode maps the activation to the fused ag.Dense layer code.
func (a Activation) denseCode() int {
	switch a {
	case ActTanh:
		return ag.DenseActTanh
	case ActReLU:
		return ag.DenseActReLU
	default:
		return ag.DenseActNone
	}
}

// Linear is a fully connected layer y = xW + b.
type Linear struct {
	W, B *ag.Tensor
}

// NewLinear returns a layer with Xavier/Glorot-uniform weights.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	scale := math.Sqrt(6.0 / float64(in+out))
	w := ag.RandParam(rng, scale, in, out)
	b := ag.Param(make([]float64, out), 1, out)
	return &Linear{W: w, B: b}
}

// Params implements Module.
func (l *Linear) Params() []*ag.Tensor { return []*ag.Tensor{l.W, l.B} }

// MLP is a stack of Linear layers with a hidden activation applied after
// every layer except the last.
type MLP struct {
	Layers []*Linear
	Act    Activation
}

// NewMLP builds an MLP with the given layer sizes, e.g. sizes
// [in, 32, 16, 8, out].
func NewMLP(rng *rand.Rand, sizes []int, act Activation) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{Act: act}
	for i := 0; i+1 < len(sizes); i++ {
		m.Layers = append(m.Layers, NewLinear(rng, sizes[i], sizes[i+1]))
	}
	return m
}

// Forward applies the stack to x. Every layer is one fused ag.Dense node
// (matmul + bias + activation), keeping the graph small on the training
// hot path.
func (m *MLP) Forward(x *ag.Tensor) *ag.Tensor {
	for i, l := range m.Layers {
		act := ag.DenseActNone
		if i+1 < len(m.Layers) {
			act = m.Act.denseCode()
		}
		x = ag.Dense(x, l.W, l.B, act)
	}
	return x
}

// Params implements Module.
func (m *MLP) Params() []*ag.Tensor {
	var ps []*ag.Tensor
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ParamCount sums the elements of all parameters of a module.
func ParamCount(m Module) int {
	n := 0
	for _, p := range m.Params() {
		n += p.Size()
	}
	return n
}

// PolicyNet maps a batch of flattened observations [B, maxObs·feat] to one
// logit per observable job slot [B, maxObs]. Implementations differ only in
// architecture; the PPO machinery is architecture-agnostic. Logits builds
// the autograd graph training differentiates; the embedded Inferer is the
// graph-free forward pass every decision runs, equal to it bit for bit.
type PolicyNet interface {
	Module
	Inferer
	// Logits scores every slot of every observation in the batch.
	Logits(obs *ag.Tensor) *ag.Tensor
	// Kind names the architecture for serialization and reports.
	Kind() string
	// Dims returns (maxObs, features) the network was built for.
	Dims() (int, int)
}

func checkObs(obs *ag.Tensor, maxObs, feat int) int {
	if len(obs.Shape) != 2 || obs.Shape[1] != maxObs*feat {
		panic(fmt.Sprintf("nn: observation shape %v, want [B,%d]", obs.Shape, maxObs*feat))
	}
	return obs.Shape[0]
}
