package autograd

import (
	"fmt"
	"math"
)

// Sub returns a - b (identical shapes).
func Sub(a, b *Tensor) *Tensor {
	assertSameShape("Sub", a, b)
	out := newFrom("sub", a.Shape, a, b)
	for i := range out.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	out.backFn = func() {
		if a.needsGrad() {
			a.ensureGrad()
			for i, g := range out.Grad {
				a.Grad[i] += g
			}
		}
		if b.needsGrad() {
			b.ensureGrad()
			for i, g := range out.Grad {
				b.Grad[i] -= g
			}
		}
	}
	return out
}

// Mul returns the elementwise product a ⊙ b (identical shapes).
func Mul(a, b *Tensor) *Tensor {
	assertSameShape("Mul", a, b)
	out := newFrom("mul", a.Shape, a, b)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	out.backFn = func() {
		if a.needsGrad() {
			a.ensureGrad()
			for i, g := range out.Grad {
				a.Grad[i] += g * b.Data[i]
			}
		}
		if b.needsGrad() {
			b.ensureGrad()
			for i, g := range out.Grad {
				b.Grad[i] += g * a.Data[i]
			}
		}
	}
	return out
}

// Scale returns s · a.
func Scale(a *Tensor, s float64) *Tensor {
	out := newFrom("scale", a.Shape, a)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * s
	}
	out.backFn = func() {
		a.ensureGrad()
		for i, g := range out.Grad {
			a.Grad[i] += g * s
		}
	}
	return out
}

// ReLU returns max(a, 0).
func ReLU(a *Tensor) *Tensor {
	out := newFrom("relu", a.Shape, a)
	for i, v := range a.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	out.backFn = func() {
		a.ensureGrad()
		for i, g := range out.Grad {
			if a.Data[i] > 0 {
				a.Grad[i] += g
			}
		}
	}
	return out
}

// Exp returns eᵃ.
func Exp(a *Tensor) *Tensor {
	out := newFrom("exp", a.Shape, a)
	for i, v := range a.Data {
		out.Data[i] = math.Exp(v)
	}
	out.backFn = func() {
		a.ensureGrad()
		for i, g := range out.Grad {
			a.Grad[i] += g * out.Data[i]
		}
	}
	return out
}

// Square returns a².
func Square(a *Tensor) *Tensor {
	out := newFrom("square", a.Shape, a)
	for i, v := range a.Data {
		out.Data[i] = v * v
	}
	out.backFn = func() {
		a.ensureGrad()
		for i, g := range out.Grad {
			a.Grad[i] += 2 * a.Data[i] * g
		}
	}
	return out
}

// Minimum returns the elementwise minimum of a and b; gradient flows to the
// smaller operand (ties favour a), which is exactly the PPO clipped
// surrogate's subgradient convention.
func Minimum(a, b *Tensor) *Tensor {
	assertSameShape("Minimum", a, b)
	out := newFrom("min", a.Shape, a, b)
	for i := range out.Data {
		if a.Data[i] <= b.Data[i] {
			out.Data[i] = a.Data[i]
		} else {
			out.Data[i] = b.Data[i]
		}
	}
	out.backFn = func() {
		a.ensureGrad()
		b.ensureGrad()
		for i, g := range out.Grad {
			if a.Data[i] <= b.Data[i] {
				a.Grad[i] += g
			} else {
				b.Grad[i] += g
			}
		}
	}
	return out
}

// Clamp limits a to [lo, hi] with zero gradient outside the interval.
func Clamp(a *Tensor, lo, hi float64) *Tensor {
	out := newFrom("clamp", a.Shape, a)
	for i, v := range a.Data {
		switch {
		case v < lo:
			out.Data[i] = lo
		case v > hi:
			out.Data[i] = hi
		default:
			out.Data[i] = v
		}
	}
	out.backFn = func() {
		a.ensureGrad()
		for i, g := range out.Grad {
			if a.Data[i] >= lo && a.Data[i] <= hi {
				a.Grad[i] += g
			}
		}
	}
	return out
}

// Sum reduces to a scalar.
func Sum(a *Tensor) *Tensor {
	out := newFrom("sum", []int{1}, a)
	s := 0.0
	for _, v := range a.Data {
		s += v
	}
	out.Data[0] = s
	out.backFn = func() {
		a.ensureGrad()
		g := out.Grad[0]
		for i := range a.Grad {
			a.Grad[i] += g
		}
	}
	return out
}

// Mean reduces to the scalar average.
func Mean(a *Tensor) *Tensor {
	out := newFrom("mean", []int{1}, a)
	s := 0.0
	for _, v := range a.Data {
		s += v
	}
	n := float64(len(a.Data))
	out.Data[0] = s / n
	out.backFn = func() {
		a.ensureGrad()
		g := out.Grad[0] / n
		for i := range a.Grad {
			a.Grad[i] += g
		}
	}
	return out
}

// Reshape reinterprets a with a new shape of equal element count. When a
// is a plain data leaf (no gradient consumer), the result is a view
// sharing a's backing array — reshaping a big observation batch costs
// nothing; callers must not mutate either tensor through the other.
func Reshape(a *Tensor, shape ...int) *Tensor {
	if numel(shape) != len(a.Data) {
		panic(fmt.Sprintf("autograd: Reshape %v -> %v", a.Shape, shape))
	}
	if !a.needsGrad() {
		return FromSlice(a.Data, shape...)
	}
	out := newFrom("reshape", shape, a)
	copy(out.Data, a.Data)
	out.backFn = func() {
		a.ensureGrad()
		for i, g := range out.Grad {
			a.Grad[i] += g
		}
	}
	return out
}

// expUnderflow is math.Exp's underflow bound: below it the result is
// exactly 0.
const expUnderflow = -7.45133219101941108420e+02

// ExpOrZero returns math.Exp(x) for every x, without calling it where the
// result is exactly 0. Log-softmax rows are mostly masked cells sitting
// near the mask penalty, far below the bound, so sums of exponentials over
// them keep every bit and lose most of the calls.
func ExpOrZero(x float64) float64 {
	if x < expUnderflow {
		return 0
	}
	return math.Exp(x)
}

// logSoftmaxRows replaces every row of the 2-D t with its log-softmax,
// shifted by the row maximum for stability.
func logSoftmaxRows(t *Tensor) {
	n := t.Shape[1]
	for i := 0; i < t.Shape[0]; i++ {
		row := t.Data[i*n : (i+1)*n]
		max := row[0]
		for _, v := range row[1:] {
			if v > max {
				max = v
			}
		}
		var lse float64
		for _, v := range row {
			lse += ExpOrZero(v - max)
		}
		lse = math.Log(lse) + max
		for j := range row {
			row[j] -= lse
		}
	}
}

// logSoftmaxBackward adds the log-softmax gradient of out into a.Grad:
// d a_j = g_j - softmax_j * sum(g), softmax_j being exp(out_j).
func logSoftmaxBackward(a, out *Tensor) {
	a.ensureGrad()
	n := out.Shape[1]
	for i := 0; i < out.Shape[0]; i++ {
		grow := out.Grad[i*n : (i+1)*n]
		orow := out.Data[i*n : (i+1)*n]
		agrow := a.Grad[i*n : (i+1)*n]
		var gsum float64
		for _, g := range grow {
			gsum += g
		}
		for j, o := range orow {
			agrow[j] += grow[j] - ExpOrZero(o)*gsum
		}
	}
}

// GatherRows picks one column per row: out[i] = a[i, idx[i]], shape [m,1].
func GatherRows(a *Tensor, idx []int) *Tensor {
	a.want2D()
	m, n := a.Shape[0], a.Shape[1]
	if len(idx) != m {
		panic(fmt.Sprintf("autograd: GatherRows %d indices for %d rows", len(idx), m))
	}
	out := newFrom("gather", []int{m, 1}, a)
	for i, j := range idx {
		if j < 0 || j >= n {
			panic(fmt.Sprintf("autograd: GatherRows index %d out of %d cols", j, n))
		}
		out.Data[i] = a.Data[i*n+j]
	}
	out.backFn = func() {
		a.ensureGrad()
		for i, j := range idx {
			a.Grad[i*n+j] += out.Grad[i]
		}
	}
	return out
}

// SelectRows gathers whole rows of a[m,n]: out[r,:] = a[idx[r],:]. Indices
// may repeat; gradients accumulate into the selected rows.
func SelectRows(a *Tensor, idx []int) *Tensor {
	a.want2D()
	m, n := a.Shape[0], a.Shape[1]
	// Selecting from a plain data leaf yields another leaf, so downstream
	// consumers skip computing its gradient entirely.
	var out *Tensor
	if a.needsGrad() {
		out = newFrom("selectrows", []int{len(idx), n}, a)
	} else {
		out = New(len(idx), n)
	}
	for r, i := range idx {
		if i < 0 || i >= m {
			panic(fmt.Sprintf("autograd: SelectRows index %d out of %d rows", i, m))
		}
		copy(out.Data[r*n:(r+1)*n], a.Data[i*n:(i+1)*n])
	}
	if !a.needsGrad() {
		return out
	}
	out.backFn = func() {
		a.ensureGrad()
		for r, i := range idx {
			grow := out.Grad[r*n : (r+1)*n]
			agrow := a.Grad[i*n : (i+1)*n]
			for j, g := range grow {
				agrow[j] += g
			}
		}
	}
	return out
}

// ScatterRowsFill spreads a[r,:] into out[idx[r],:] of an [m,n] result;
// every row of out not named by idx receives a copy of a's fill-th row.
// The backward pass routes each output row's gradient to its source, so
// the fill row accumulates the summed gradient of every filled row. It is
// the inverse of compacting a batch whose dropped rows were all identical
// (e.g. all-zero padding rows scored by a shared kernel network).
func ScatterRowsFill(a *Tensor, idx []int, m, fill int) *Tensor {
	a.want2D()
	rows, n := a.Shape[0], a.Shape[1]
	if fill < 0 || fill >= rows {
		panic(fmt.Sprintf("autograd: ScatterRowsFill fill row %d of %d", fill, rows))
	}
	if len(idx) > m {
		panic(fmt.Sprintf("autograd: ScatterRowsFill %d indices into %d rows", len(idx), m))
	}
	out := newFrom("scatterrows", []int{m, n}, a)
	src := make([]int, m)
	for i := range src {
		src[i] = fill
	}
	for r, i := range idx {
		if i < 0 || i >= m {
			panic(fmt.Sprintf("autograd: ScatterRowsFill index %d out of %d rows", i, m))
		}
		if r >= rows {
			panic("autograd: ScatterRowsFill more indices than input rows")
		}
		src[i] = r
	}
	for i := 0; i < m; i++ {
		copy(out.Data[i*n:(i+1)*n], a.Data[src[i]*n:(src[i]+1)*n])
	}
	out.backFn = func() {
		a.ensureGrad()
		for i := 0; i < m; i++ {
			grow := out.Grad[i*n : (i+1)*n]
			agrow := a.Grad[src[i]*n : (src[i]+1)*n]
			for j, g := range grow {
				agrow[j] += g
			}
		}
	}
	return out
}

// MaskedLogSoftmax is the row-wise log-softmax of a + penalty·(1-mask) as
// one node: invalid cells (mask[i] false, flat row-major like a) are
// pushed to penalty before the stable log-softmax, with no penalty tensor
// or add node. With every cell valid it is the plain log-softmax.
func MaskedLogSoftmax(a *Tensor, mask []bool, penalty float64) *Tensor {
	a.want2D()
	m, n := a.Shape[0], a.Shape[1]
	if len(mask) != m*n {
		panic(fmt.Sprintf("autograd: MaskedLogSoftmax %d flags for %dx%d", len(mask), m, n))
	}
	out := newFrom("maskedlogsoftmax", a.Shape, a)
	for i, v := range a.Data {
		if !mask[i] {
			v += penalty
		}
		out.Data[i] = v
	}
	logSoftmaxRows(out)
	// The penalty shift is constant, so the Jacobian is log-softmax's.
	out.backFn = func() { logSoftmaxBackward(a, out) }
	return out
}
