package autograd

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// numericGrad estimates d loss / d p[i] by central differences, where loss
// rebuilds the computation from scratch each call.
func numericGrad(p *Tensor, loss func() float64) []float64 {
	const eps = 1e-6
	g := make([]float64, len(p.Data))
	for i := range p.Data {
		orig := p.Data[i]
		p.Data[i] = orig + eps
		up := loss()
		p.Data[i] = orig - eps
		down := loss()
		p.Data[i] = orig
		g[i] = (up - down) / (2 * eps)
	}
	return g
}

// checkGrads compares analytic and numeric gradients for every parameter.
func checkGrads(t *testing.T, name string, params []*Tensor, build func() *Tensor) {
	t.Helper()
	loss := build()
	for _, p := range params {
		p.ensureGrad()
		p.ZeroGrad()
	}
	loss = build()
	loss.Backward()
	for pi, p := range params {
		num := numericGrad(p, func() float64 { return build().Item() })
		for i := range num {
			got := p.Grad[i]
			want := num[i]
			tol := 1e-4 * (1 + math.Abs(want))
			if math.Abs(got-want) > tol {
				t.Errorf("%s: param %d grad[%d] = %g, numeric %g", name, pi, i, got, want)
				return
			}
		}
	}
}

func randParam(rng *rand.Rand, shape ...int) *Tensor {
	return RandParam(rng, 1, shape...)
}

func TestGradElementwiseOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randParam(rng, 3, 4)
	b := randParam(rng, 3, 4)
	checkGrads(t, "sub", []*Tensor{a, b}, func() *Tensor { return Mean(Sub(a, b)) })
	checkGrads(t, "mul", []*Tensor{a, b}, func() *Tensor { return Sum(Mul(a, b)) })
	checkGrads(t, "scale", []*Tensor{a}, func() *Tensor { return Sum(Scale(a, -2.5)) })
	checkGrads(t, "square", []*Tensor{a}, func() *Tensor { return Sum(Square(a)) })
	checkGrads(t, "exp", []*Tensor{a}, func() *Tensor { return Sum(Exp(a)) })
	checkGrads(t, "composite", []*Tensor{a, b}, func() *Tensor {
		return Mean(Square(Sub(Exp(Mul(a, b)), a)))
	})
}

// TestGradMatMulAndBias checks a Dense layer's weight and bias gradients
// when its input is a plain data batch (the policy update's case: the
// observations need no gradient, so the dA pass does not run).
func TestGradMatMulAndBias(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := FromSlice([]float64{0.5, 0, -1, 2, 0, 0, 0.25, -0.5, 1, 0, 3, -2}, 4, 3)
	w := randParam(rng, 3, 5)
	b := randParam(rng, 1, 5)
	checkGrads(t, "matmul", []*Tensor{w, b}, func() *Tensor {
		return Sum(Dense(x, w, b, DenseActTanh))
	})
	if x.Grad != nil {
		t.Errorf("data batch got a %d-value gradient", len(x.Grad))
	}
}

func TestGradReLU(t *testing.T) {
	// Use inputs away from the kink so numeric gradients are valid.
	a := Param([]float64{-2, -1, 0.5, 1, 2, -0.5}, 2, 3)
	checkGrads(t, "relu", []*Tensor{a}, func() *Tensor { return Sum(Square(ReLU(a))) })
}

func TestGradMinimumAndClamp(t *testing.T) {
	a := Param([]float64{-1, 0.3, 2, -0.2}, 2, 2)
	b := Param([]float64{0.5, -0.4, 1, 0.9}, 2, 2)
	checkGrads(t, "minimum", []*Tensor{a, b}, func() *Tensor { return Sum(Minimum(a, b)) })
	c := Param([]float64{-2, -0.5, 0.2, 3}, 2, 2)
	checkGrads(t, "clamp", []*Tensor{c}, func() *Tensor { return Sum(Square(Clamp(c, -1, 1))) })
}

func TestGradLogSoftmaxAndGather(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randParam(rng, 4, 6)
	idx := []int{1, 0, 5, 3}
	valid := slices.Repeat([]bool{true}, 4*6)
	checkGrads(t, "logsoftmax", []*Tensor{a}, func() *Tensor {
		return Mean(GatherRows(MaskedLogSoftmax(a, valid, -1e9), idx))
	})
	checkGrads(t, "softmax-entropyish", []*Tensor{a}, func() *Tensor {
		ls := MaskedLogSoftmax(a, valid, -1e9)
		return Sum(Mul(Exp(ls), ls))
	})
}

func TestGradReshape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randParam(rng, 2, 6)
	checkGrads(t, "reshape", []*Tensor{a}, func() *Tensor {
		return Sum(Square(Reshape(a, 3, 4)))
	})
}

func TestGradConv2D(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randParam(rng, 2, 2, 5, 4) // N=2,C=2,H=5,W=4
	w := randParam(rng, 3, 2, 3, 2) // F=3,KH=3,KW=2
	b := randParam(rng, 1, 3)
	checkGrads(t, "conv2d", []*Tensor{x, w, b}, func() *Tensor {
		return Sum(Square(Conv2D(x, w, b)))
	})
}

func TestGradMaxPool2D(t *testing.T) {
	// Distinct values so the argmax is stable under eps-perturbation.
	data := make([]float64, 1*2*4*4)
	for i := range data {
		data[i] = float64(i%7)*1.3 + float64(i)*0.01
	}
	x := Param(data, 1, 2, 4, 4)
	checkGrads(t, "maxpool", []*Tensor{x}, func() *Tensor {
		return Sum(Square(MaxPool2D(x, 2, 2)))
	})
}

func TestGradConvPoolPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randParam(rng, 1, 1, 6, 5)
	w := randParam(rng, 2, 1, 3, 3)
	b := randParam(rng, 1, 2)
	// conv: 6x5 -> 4x3; pool 2x1 -> 2x3; flatten 2*2*3 = 12.
	w2 := randParam(rng, 12, 4)
	b2 := randParam(rng, 1, 4)
	checkGrads(t, "conv-pool-dense", []*Tensor{x, w, b, w2, b2}, func() *Tensor {
		c := ReLU(Conv2D(x, w, b))
		p := MaxPool2D(c, 2, 1)
		f := Reshape(p, 1, 12)
		return Mean(Square(Dense(f, w2, b2, DenseActNone)))
	})
}

func TestGradDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randParam(rng, 4, 3)
	w := randParam(rng, 3, 5)
	b := randParam(rng, 1, 5)
	for act, name := range map[int]string{
		DenseActNone: "dense-none",
		DenseActReLU: "dense-relu",
		DenseActTanh: "dense-tanh",
	} {
		checkGrads(t, name, []*Tensor{x, w, b}, func() *Tensor {
			return Sum(Square(Dense(x, w, b, act)))
		})
	}
}

// TestDenseMatchesUnfused checks Dense's forward and backward against the
// plain loops of refDense, bit for bit, on a small serial-path shape.
func TestDenseMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := randParam(rng, 6, 4)
	w := randParam(rng, 4, 3)
	b := randParam(rng, 1, 3)
	checkAgainstRefDense(t, x, w, b, DenseActReLU)
}

// checkAgainstRefDense runs Dense(x, w, b, act) forward and backward from
// the loss sum(out²) with zeroed parameter gradients, and requires the
// output and every gradient to carry refDense's bits.
func checkAgainstRefDense(t *testing.T, x, w, b *Tensor, act int) {
	t.Helper()
	for _, p := range []*Tensor{x, w, b} {
		p.ZeroGrad()
	}
	m, k, n := x.Shape[0], x.Shape[1], w.Shape[1]
	fused := Dense(x, w, b, act)
	Sum(Square(fused)).Backward()
	gout := make([]float64, m*n)
	for i, v := range fused.Data {
		gout[i] = 2 * v
	}
	da, dw, db := make([]float64, m*k), make([]float64, k*n), make([]float64, n)
	want := refDense(x.Data, w.Data, b.Data, m, k, n, act, gout, da, dw, db)
	for _, c := range []struct {
		name      string
		got, want []float64
	}{{"out", fused.Data, want}, {"dA", x.Grad, da}, {"dW", w.Grad, dw}, {"dBias", b.Grad, db}} {
		for i := range c.want {
			if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
				t.Fatalf("m=%d: %s[%d] = %v, refDense %v", m, c.name, i, c.got[i], c.want[i])
			}
		}
	}
}

func TestGradSelectScatterRows(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randParam(rng, 5, 3)
	checkGrads(t, "selectrows", []*Tensor{a}, func() *Tensor {
		return Sum(Square(SelectRows(a, []int{4, 0, 2, 0})))
	})
	checkGrads(t, "scatterrowsfill", []*Tensor{a}, func() *Tensor {
		// Rows 1 and 3 of the output come from input rows 0 and 2; the
		// remaining 4 output rows replicate fill row 4.
		return Sum(Square(ScatterRowsFill(a, []int{1, 3}, 6, 4)))
	})
	checkGrads(t, "select-scatter-pipeline", []*Tensor{a}, func() *Tensor {
		sel := SelectRows(a, []int{1, 2, 0})
		return Mean(Square(ScatterRowsFill(sel, []int{0, 3}, 5, 2)))
	})
}

func TestGraphNodeCountMoves(t *testing.T) {
	before := GraphNodeCount()
	_ = Sum(Square(Param([]float64{1, 2}, 1, 2)))
	if GraphNodeCount()-before != 2 {
		t.Errorf("expected 2 graph nodes, counter moved by %d", GraphNodeCount()-before)
	}
}

// TestDenseBlockedPath exercises the blocked (parallelizable) Dense path
// (m >= denseBlockRows) against refDense, and proves the
// results are bit-identical whatever GOMAXPROCS is — the blocked reduction
// order is fixed by the shape, not the machine.
func TestDenseBlockedPath(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m, k, n := denseBlockRows+37, 9, 6
	mk := make([]float64, m*k)
	for i := range mk {
		if i%3 != 0 { // leave zeros so the skip paths run
			mk[i] = rng.NormFloat64()
		}
	}
	w := randParam(rng, k, n)
	b := randParam(rng, 1, n)

	run := func(procs int) ([]float64, []float64, []float64) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		x := Param(mk, m, k)
		wp := Param(w.Data, k, n)
		bp := Param(b.Data, 1, n)
		loss := Sum(Square(Dense(x, wp, bp, DenseActReLU)))
		loss.Backward()
		return x.Grad, wp.Grad, bp.Grad
	}
	x1, w1, b1 := run(1)
	x4, w4, b4 := run(4)
	for name, pair := range map[string][2][]float64{
		"x": {x1, x4}, "w": {w1, w4}, "b": {b1, b4},
	} {
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("%s grad[%d] differs across GOMAXPROCS: %g vs %g",
					name, i, pair[0][i], pair[1][i])
			}
		}
	}

	// Cross-check the blocked forward/backward against the plain loops.
	checkAgainstRefDense(t, Param(mk, m, k), Param(w.Data, k, n), Param(b.Data, 1, n), DenseActReLU)
}

func TestGradMaskedLogSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randParam(rng, 3, 5)
	mask := []bool{
		true, true, false, true, false,
		false, true, true, true, true,
		true, false, true, false, true,
	}
	idx := []int{0, 2, 4}
	checkGrads(t, "maskedlogsoftmax", []*Tensor{a}, func() *Tensor {
		return Mean(GatherRows(MaskedLogSoftmax(a, mask, -1e9), idx))
	})
	// Rows masked everywhere but one cell (the other cells sit ~1e9 below
	// math.Exp's underflow bound), one row with two valid cells and one
	// with none masked: forward and backward must carry the bits of the
	// formula that calls math.Exp on every cell.
	const m, n = 4, 6
	b := randParam(rng, m, n)
	mask = []bool{
		false, false, true, false, false, false,
		true, false, false, false, false, false,
		false, true, false, false, true, false,
		true, true, true, true, true, true,
	}
	g := make([]float64, m*n)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	out := MaskedLogSoftmax(b, mask, -1e9)
	out.Grad = g
	out.backFn()
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = b.Data[i*n+j]
			if !mask[i*n+j] {
				row[j] += -1e9
			}
		}
		max := slices.Max(row)
		var lse, gsum float64
		for j := range row {
			lse += math.Exp(row[j] - max)
			gsum += g[i*n+j]
		}
		lse = math.Log(lse) + max
		for j := range row {
			at := i*n + j
			o := row[j] - lse
			if math.Float64bits(out.Data[at]) != math.Float64bits(o) {
				t.Fatalf("out[%d] = %v, every-cell formula %v", at, out.Data[at], o)
			}
			if d := g[at] - math.Exp(o)*gsum; math.Float64bits(b.Grad[at]) != math.Float64bits(d) {
				t.Fatalf("grad[%d] = %v, every-cell formula %v", at, b.Grad[at], d)
			}
		}
	}
}

// refDense is the reference the Dense kernels are checked against: the
// plain loops that add one term per sweep over an output row, with the
// same serial/blocked split, fixed block partition and block-order
// reduction. It returns act(a×w + bias) and adds the backward pass of
// upstream gradient gout into da, dw and db, skipping each one that is nil.
func refDense(a, w, bias []float64, m, k, n, act int, gout, da, dw, db []float64) []float64 {
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		copy(orow, bias)
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			wrow := w[kk*n : (kk+1)*n]
			for j, wv := range wrow {
				orow[j] += av * wv
			}
		}
		switch act {
		case DenseActReLU:
			for j, v := range orow {
				if v < 0 {
					orow[j] = 0
				}
			}
		case DenseActTanh:
			for j, v := range orow {
				orow[j] = math.Tanh(v)
			}
		}
	}
	backward := func(lo, hi int, dpre, wgrad, bgrad []float64) {
		for i := lo; i < hi; i++ {
			grow := gout[i*n : (i+1)*n]
			orow := out[i*n : (i+1)*n]
			allZero := true
			switch act {
			case DenseActReLU:
				for j, g := range grow {
					if g != 0 && orow[j] > 0 {
						dpre[j] = g
						allZero = false
					} else {
						dpre[j] = 0
					}
				}
			case DenseActTanh:
				for j, g := range grow {
					d := g * (1 - orow[j]*orow[j])
					dpre[j] = d
					if d != 0 {
						allZero = false
					}
				}
			default:
				for j, g := range grow {
					dpre[j] = g
					if g != 0 {
						allZero = false
					}
				}
			}
			if allZero {
				continue
			}
			arow := a[i*k : (i+1)*k]
			if da != nil {
				agrow := da[i*k : (i+1)*k]
				for kk := 0; kk < k; kk++ {
					wrow := w[kk*n : (kk+1)*n]
					var s float64
					for j, d := range dpre {
						s += d * wrow[j]
					}
					agrow[kk] += s
				}
			}
			if wgrad != nil {
				for kk := 0; kk < k; kk++ {
					if av := arow[kk]; av != 0 {
						wgrow := wgrad[kk*n : (kk+1)*n]
						for j, d := range dpre {
							wgrow[j] += av * d
						}
					}
				}
			}
			if bgrad != nil {
				for j, d := range dpre {
					bgrad[j] += d
				}
			}
		}
	}
	if m < denseBlockRows {
		backward(0, m, make([]float64, n), dw, db)
		return out
	}
	for b := 0; b < denseBlocks; b++ {
		lo, hi := blockRange(m, b)
		wpart, bpart := make([]float64, k*n), make([]float64, n)
		backward(lo, hi, make([]float64, n), wpart, bpart)
		if dw != nil {
			for i, v := range wpart {
				dw[i] += v
			}
		}
		if db != nil {
			for j, v := range bpart {
				db[j] += v
			}
		}
	}
	return out
}

// denseCase is one shape and setting of the bit-exactness property.
type denseCase struct {
	m, k, n, act     int
	sparsity         float64 // share of zero inputs
	doA, doW, doBias bool    // which operands track gradients
}

// checkDenseBits runs Dense forward and backward on random operands and
// requires the output and every wanted gradient to carry the reference's
// bits. Gradients start from random values, since the kernels add into
// what is there; about a quarter of the upstream gradient rows are all
// zero and another quarter half zero.
func checkDenseBits(t *testing.T, rng *rand.Rand, c denseCase) {
	t.Helper()
	normal := func(size int) []float64 {
		s := make([]float64, size)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		return s
	}
	a := normal(c.m * c.k)
	for i := range a {
		if rng.Float64() < c.sparsity {
			a[i] = 0
		}
	}
	w, bias, gout := normal(c.k*c.n), normal(c.n), normal(c.m*c.n)
	for i := 0; i < c.m; i++ {
		switch rng.Intn(4) {
		case 0:
			clear(gout[i*c.n : (i+1)*c.n])
		case 1:
			for j := i * c.n; j < (i+1)*c.n; j += 2 {
				gout[j] = 0
			}
		}
	}
	start := func(want bool, size int) []float64 {
		if !want {
			return nil
		}
		return normal(size)
	}
	da0, dw0, db0 := start(c.doA, c.m*c.k), start(c.doW, c.k*c.n), start(c.doBias, c.n)
	wantA, wantW, wantB := slices.Clone(da0), slices.Clone(dw0), slices.Clone(db0)
	want := refDense(a, w, bias, c.m, c.k, c.n, c.act, gout, wantA, wantW, wantB)

	operand := func(data, grad []float64, shape ...int) *Tensor {
		x := FromSlice(data, shape...)
		x.Grad, x.RequiresGrad = slices.Clone(grad), grad != nil
		return x
	}
	at := operand(a, da0, c.m, c.k)
	wt := operand(w, dw0, c.k, c.n)
	bt := operand(bias, db0, 1, c.n)
	out := Dense(at, wt, bt, c.act)
	out.Grad = gout
	out.backFn()
	for _, x := range []struct {
		name      string
		got, want []float64
	}{{"out", out.Data, want}, {"dA", at.Grad, wantA}, {"dW", wt.Grad, wantW}, {"dBias", bt.Grad, wantB}} {
		if len(x.got) != len(x.want) {
			t.Fatalf("%+v: %s has %d values, reference %d", c, x.name, len(x.got), len(x.want))
		}
		for i := range x.want {
			if math.Float64bits(x.got[i]) != math.Float64bits(x.want[i]) {
				t.Fatalf("%+v: %s[%d] = %v, reference %v", c, x.name, i, x.got[i], x.want[i])
			}
		}
	}
}

// TestDenseKernelsBitExact requires the Dense kernels to give the
// reference loops' bits: every k×n pair of the widths below and all three
// activations at small m (around the dW row queue's length), and the
// blocked path on either side of denseBlockRows, each case at input
// sparsity 0/50/95/100 % and under every doA/doW/doBias combination in
// turn, at GOMAXPROCS 1 and 4, with each addScaled body the host can run.
func TestDenseKernelsBitExact(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			forEachKernel(t, checkDenseCases)
		})
	}
}

// checkDenseCases draws TestDenseKernelsBitExact's cases from a fixed seed
// and checks each.
func checkDenseCases(t *testing.T) {
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 31, 32, 64, 65}
	sparsities := []float64{0, 0.5, 0.95, 1}
	acts := []int{DenseActNone, DenseActReLU, DenseActTanh}
	smallM := []int{1, 2, 3, 5, denseGather - 1, denseGather, denseGather + 1, 2*denseGather + 3}
	blockedM := []int{denseBlockRows - 1, denseBlockRows, denseBlockRows + 37}
	rng := rand.New(rand.NewSource(13))
	var cases []denseCase
	for _, k := range widths {
		for _, n := range widths {
			for _, act := range acts {
				cases = append(cases, denseCase{m: smallM[rng.Intn(len(smallM))], k: k, n: n, act: act})
			}
		}
	}
	for _, m := range blockedM {
		for _, act := range acts {
			for range sparsities {
				k, n := widths[rng.Intn(len(widths))], widths[rng.Intn(len(widths))]
				cases = append(cases, denseCase{m: m, k: k, n: n, act: act})
			}
		}
	}
	for i, c := range cases {
		c.sparsity = sparsities[i%len(sparsities)]
		do := i / len(sparsities)
		c.doA, c.doW, c.doBias = do&1 != 0, do&2 != 0, do&4 != 0
		checkDenseBits(t, rng, c)
	}
}
