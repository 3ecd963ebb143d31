// Package optim provides the gradient-descent machinery used to train
// RLScheduler's networks: Adam (the paper trains with learning rate 1e-3)
// and global gradient-norm clipping.
package optim

import (
	"math"

	ag "rlsched/internal/autograd"
)

// Adam implements Kingma & Ba's Adam with bias correction.
type Adam struct {
	params []*ag.Tensor
	lr     float64
	beta1  float64
	beta2  float64
	eps    float64
	m, v   [][]float64
	t      int
}

// NewAdam returns an Adam optimizer with the standard betas (0.9, 0.999).
func NewAdam(params []*ag.Tensor, lr float64) *Adam {
	a := &Adam{params: params, lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
	a.m = make([][]float64, len(params))
	a.v = make([][]float64, len(params))
	for i, p := range params {
		a.m[i] = make([]float64, p.Size())
		a.v[i] = make([]float64, p.Size())
	}
	return a
}

// Step applies one update from the current gradients.
func (a *Adam) Step() {
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	for i, p := range a.params {
		if p.Grad == nil {
			continue
		}
		m, v := a.m[i], a.v[i]
		for j := range p.Data {
			g := p.Grad[j]
			m[j] = a.beta1*m[j] + (1-a.beta1)*g
			v[j] = a.beta2*v[j] + (1-a.beta2)*g*g
			mHat := m[j] / c1
			vHat := v[j] / c2
			p.Data[j] -= a.lr * mHat / (math.Sqrt(vHat) + a.eps)
		}
	}
}

// ZeroGrad clears all parameter gradients.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.ZeroGrad()
	}
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm, returning the pre-clip norm (a standard PPO stabilizer).
func ClipGradNorm(params []*ag.Tensor, maxNorm float64) float64 {
	total := 0.0
	for _, p := range params {
		for _, g := range p.Grad {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		f := maxNorm / norm
		for _, p := range params {
			for j := range p.Grad {
				p.Grad[j] *= f
			}
		}
	}
	return norm
}
