package optim

import (
	"math"
	"math/rand"
	"testing"

	ag "rlsched/internal/autograd"
)

// quadratic loss (p - target)² summed; gradient is analytic.
func lossOf(p *ag.Tensor, target []float64) *ag.Tensor {
	t := ag.FromSlice(target, p.Shape...)
	return ag.Sum(ag.Square(ag.Sub(p, t)))
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := ag.RandParam(rng, 3, 4, 4)
	target := make([]float64, 16)
	for i := range target {
		target[i] = rng.NormFloat64()
	}
	opt := NewAdam([]*ag.Tensor{p}, 0.05)
	var last float64
	for i := 0; i < 500; i++ {
		opt.ZeroGrad()
		l := lossOf(p, target)
		l.Backward()
		opt.Step()
		last = l.Item()
	}
	if last > 1e-3 {
		t.Errorf("Adam final loss = %g, want < 1e-3", last)
	}
}

func TestAdamFirstStepMagnitude(t *testing.T) {
	// With bias correction, the very first Adam step ≈ lr regardless of
	// gradient scale.
	p := ag.Param([]float64{0}, 1, 1)
	opt := NewAdam([]*ag.Tensor{p}, 0.001)
	p.Grad[0] = 1e6
	opt.Step()
	if math.Abs(math.Abs(p.Data[0])-0.001) > 1e-6 {
		t.Errorf("first Adam step = %g, want ≈ lr", p.Data[0])
	}
}

func TestZeroGrad(t *testing.T) {
	p := ag.Param([]float64{1, 2}, 1, 2)
	p.Grad[0], p.Grad[1] = 3, 4
	NewAdam([]*ag.Tensor{p}, 0.1).ZeroGrad()
	if p.Grad[0] != 0 || p.Grad[1] != 0 {
		t.Error("ZeroGrad must clear gradients")
	}
}

func TestNilGradSkipped(t *testing.T) {
	p := &ag.Tensor{Shape: []int{1}, Data: []float64{7}} // no grad buffer
	NewAdam([]*ag.Tensor{p}, 0.1).Step()
	if p.Data[0] != 7 {
		t.Error("parameters without gradients must be untouched")
	}
}

func TestClipGradNorm(t *testing.T) {
	p := ag.Param([]float64{0, 0}, 1, 2)
	p.Grad[0], p.Grad[1] = 3, 4 // norm 5
	norm := ClipGradNorm([]*ag.Tensor{p}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Errorf("pre-clip norm = %g, want 5", norm)
	}
	got := math.Hypot(p.Grad[0], p.Grad[1])
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("post-clip norm = %g, want 1", got)
	}
	// Under the cap: untouched.
	p.Grad[0], p.Grad[1] = 0.3, 0.4
	ClipGradNorm([]*ag.Tensor{p}, 1)
	if p.Grad[0] != 0.3 {
		t.Error("gradients under the cap must be untouched")
	}
}
