// Package autograd is a tape-free reverse-mode automatic differentiation
// engine over dense float64 tensors. It provides exactly the operator set
// the RLScheduler networks need — matrix multiplication, elementwise
// arithmetic, ReLU/Tanh, (log-)softmax, gather, reductions, 2-D convolution
// and max-pooling — with gradients verified against finite differences in
// the test suite. There is no mature autograd stack in Go, so this package
// is the substrate standing in for the paper's TensorFlow (DESIGN.md §3).
package autograd

import (
	"fmt"
	"math/rand"
	"sync/atomic"
)

// Tensor is a dense row-major float64 tensor participating in a dynamically
// built computation graph. Tensors created by operators record a backward
// closure and their operands; calling Backward on a scalar result
// propagates gradients to every upstream tensor with RequiresGrad set.
type Tensor struct {
	Shape []int
	Data  []float64
	Grad  []float64

	// RequiresGrad marks leaf tensors (parameters) whose gradients are
	// wanted. Interior nodes always receive gradients while the graph is
	// unwound but only leaves keep meaningful state across steps.
	RequiresGrad bool

	op     string
	prev   []*Tensor
	backFn func()
}

// numel returns the product of dims.
func numel(shape []int) int {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("autograd: non-positive dim in shape %v", shape))
		}
		n *= d
	}
	return n
}

// New returns a zero tensor of the given shape.
func New(shape ...int) *Tensor {
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, numel(shape))}
}

// FromSlice wraps data (not copied) in a tensor of the given shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	if len(data) != numel(shape) {
		panic(fmt.Sprintf("autograd: %d values for shape %v", len(data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Param returns a gradient-tracking leaf initialized with data (copied).
func Param(data []float64, shape ...int) *Tensor {
	t := New(shape...)
	copy(t.Data, data)
	t.RequiresGrad = true
	t.Grad = make([]float64, len(t.Data))
	return t
}

// RandParam returns a gradient-tracking leaf with entries uniform in
// [-scale, scale].
func RandParam(rng *rand.Rand, scale float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = (rng.Float64()*2 - 1) * scale
	}
	t.RequiresGrad = true
	t.Grad = make([]float64, len(t.Data))
	return t
}

// Size returns the number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

func (t *Tensor) want2D() {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("autograd: want 2-D tensor, have shape %v", t.Shape))
	}
}

// item returns the single value of a scalar tensor.
func (t *Tensor) Item() float64 {
	if len(t.Data) != 1 {
		panic(fmt.Sprintf("autograd: Item on tensor with %d elements", len(t.Data)))
	}
	return t.Data[0]
}

// ensureGrad lazily allocates the gradient buffer.
func (t *Tensor) ensureGrad() {
	if t.Grad == nil {
		t.Grad = make([]float64, len(t.Data))
	}
}

// needsGrad reports whether gradients flowing into t serve any purpose:
// either t is a parameter leaf (RequiresGrad) or an interior node whose
// backward closure propagates further. Gradients of plain data leaves
// (batch observations, targets) are write-only — expensive operators skip
// computing them.
func (t *Tensor) needsGrad() bool { return t.RequiresGrad || t.backFn != nil }

// ZeroGrad clears the gradient buffer.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// graphNodes counts every operator node ever wired into a computation
// graph. Hot inference paths must stay graph-free; tests assert the count
// does not move across a rollout or serving decision.
var graphNodes atomic.Int64

// GraphNodeCount returns the number of graph nodes constructed since
// process start. The absolute value is meaningless; deltas prove a code
// path did (or did not) touch the autograd engine.
func GraphNodeCount() int64 { return graphNodes.Load() }

// newFrom builds an operator result wired to its operands.
func newFrom(op string, shape []int, prev ...*Tensor) *Tensor {
	graphNodes.Add(1)
	t := New(shape...)
	t.op = op
	t.prev = prev
	return t
}

// Backward runs reverse-mode differentiation from a scalar tensor, seeding
// its gradient with 1 and visiting the graph in reverse topological order.
// Gradients accumulate into .Grad buffers; callers zero parameter grads
// between optimization steps.
func (t *Tensor) Backward() {
	if len(t.Data) != 1 {
		panic("autograd: Backward requires a scalar loss")
	}
	// Topological order by depth-first post-order.
	var order []*Tensor
	visited := map[*Tensor]bool{}
	var visit func(n *Tensor)
	visit = func(n *Tensor) {
		if visited[n] {
			return
		}
		visited[n] = true
		for _, p := range n.prev {
			visit(p)
		}
		order = append(order, n)
	}
	visit(t)
	// Plain data leaves get no buffer up front: nothing reads their
	// gradient, the expensive operators skip them (needsGrad), and the
	// rest allocate one lazily.
	for _, n := range order {
		if n.needsGrad() {
			n.ensureGrad()
		}
	}
	t.ensureGrad()
	t.Grad[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		if order[i].backFn != nil {
			order[i].backFn()
		}
	}
}

// String summarizes the tensor.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor(shape=%v, op=%q)", t.Shape, t.op)
}

func sameShape(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

func assertSameShape(op string, a, b *Tensor) {
	if !sameShape(a, b) {
		panic(fmt.Sprintf("autograd: %s shape mismatch %v vs %v", op, a.Shape, b.Shape))
	}
}
