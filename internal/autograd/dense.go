package autograd

import (
	"fmt"
	"math"
)

// Activation codes for the fused Dense layer.
const (
	DenseActNone = iota
	DenseActReLU
	DenseActTanh
)

// The Dense kernels are one primitive, addScaled, which adds scaled rows of
// a matrix into an output row. The forward pass adds the weight rows of a
// row's non-zero inputs into the output row; the dA pass adds the rows of
// Wᵀ of a gradient row's non-zero entries into a zeroed accumulator that
// then joins the input gradient; the dW/dBias pass queues rows with a
// non-zero gradient and adds them to each weight row (the rows whose input
// is non-zero) and to the bias. Every output is still its initial value
// plus its non-zero terms in input order (forward, dA) or row order (dW,
// dBias), each product rounded before it is added, so the results are
// bit-identical to the plain one-term-per-sweep loops grad_test.go keeps
// as the reference, whichever body addScaled runs.

// Dense returns act(a[m,k] × w[k,n] + bias[1,n]) as a single fused graph
// node. Fusing the matrix product, bias add and activation saves two full
// [m,n] tensor allocations and two backward passes per layer over three
// separate nodes — the training update spends most of its time here, so
// the layer fusion is a measurable share of epoch wall-time.
func Dense(a, w, bias *Tensor, act int) *Tensor {
	a.want2D()
	w.want2D()
	m, k := a.Shape[0], a.Shape[1]
	k2, n := w.Shape[0], w.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("autograd: Dense inner dims %d vs %d", k, k2))
	}
	if bias.Shape[0] != 1 || bias.Shape[1] != n {
		panic(fmt.Sprintf("autograd: Dense bias shape %v for width %d", bias.Shape, n))
	}
	out := newFrom("dense", []int{m, n}, a, w, bias)
	if m >= denseBlockRows {
		runBlocks(func(b int) {
			lo, hi := blockRange(m, b)
			DenseRows(a.Data[lo*k:hi*k], w.Data, bias.Data, out.Data[lo*n:hi*n], k, n, act)
		})
	} else {
		DenseRows(a.Data, w.Data, bias.Data, out.Data, k, n, act)
	}
	out.backFn = func() {
		g := denseBackward{a: a.Data, w: w.Data, out: out.Data, grad: out.Grad, k: k, n: n, act: act}
		if a.needsGrad() {
			a.ensureGrad()
			g.da = a.Grad
			wt := getZeroed(k * n)
			defer scratchPool.Put(wt)
			g.wT = *wt
			for kk := 0; kk < k; kk++ {
				for j, v := range w.Data[kk*n : (kk+1)*n] {
					g.wT[j*k+kk] = v
				}
			}
		}
		doW, doBias := w.needsGrad(), bias.needsGrad()
		if doW {
			w.ensureGrad()
		}
		if doBias {
			bias.ensureGrad()
		}
		if m < denseBlockRows {
			var dw, db []float64
			if doW {
				dw = w.Grad
			}
			if doBias {
				db = bias.Grad
			}
			buf := make([]float64, k+min(m, denseGather)*n)
			g.rows(0, m, buf[k:], buf[:k], dw, db)
			return
		}
		// Blocked path: per-block partial gradients for the shared W and
		// bias, reduced in block order so the summation order is fixed by
		// the shape alone (GOMAXPROCS only changes wall-clock).
		wparts := make([]*[]float64, denseBlocks)
		bparts := make([]*[]float64, denseBlocks)
		runBlocks(func(b int) {
			lo, hi := blockRange(m, b)
			var dw, db []float64
			if doW {
				wparts[b] = getZeroed(k * n)
				dw = *wparts[b]
			}
			if doBias {
				bparts[b] = getZeroed(n)
				db = *bparts[b]
			}
			buf := getZeroed(k + denseGather*n)
			g.rows(lo, hi, (*buf)[k:], (*buf)[:k], dw, db)
			scratchPool.Put(buf)
		})
		for b := 0; b < denseBlocks; b++ {
			if doW {
				for i, v := range *wparts[b] {
					w.Grad[i] += v
				}
				scratchPool.Put(wparts[b])
			}
			if doBias {
				for j, v := range *bparts[b] {
					bias.Grad[j] += v
				}
				scratchPool.Put(bparts[b])
			}
		}
	}
	return out
}

// DenseRows is the forward kernel of Dense, shared with graph-free
// inference: out[i,:] = act(a[i,:] × w + bias) for every row i of a, where
// a holds len(a)/k rows of k inputs, w is [k,n] and out has room for
// len(a)/k rows of n outputs. It does not allocate, and every output is the
// bias plus a[i,kk]·w[kk,j] for each non-zero input in input order —
// Dense's training forward pass gives the same bits.
func DenseRows(a, w, bias, out []float64, k, n, act int) {
	var g gather
	for i := 0; i < len(a)/k; i++ {
		orow := out[i*n : (i+1)*n]
		copy(orow, bias)
		g.addRows(orow, a[i*k:(i+1)*k], w, n)
		switch act {
		case DenseActReLU:
			for j, o := range orow {
				orow[j] = relu(o)
			}
		case DenseActTanh:
			for j, o := range orow {
				orow[j] = math.Tanh(o)
			}
		}
	}
}

// gather holds the terms of one addScaled call: the coefficients and the
// offsets of the rows they scale. A kernel call keeps one for all of its
// rows, so that its 1 KB is not zeroed per row.
type gather struct {
	c   [denseGather]float64
	off [denseGather]int
}

// addRows adds x × m into dst: m holds len(x) rows of stride values, and
// each dst[j] gets x[r]·m[r·stride+j] for every non-zero x[r] in r order.
// It gathers the non-zero x[r] (the stores are unconditional so that only
// the count depends on the data) and hands them to addScaled denseGather
// at a time.
func (g *gather) addRows(dst, x, m []float64, stride int) {
	t := 0
	for r, xv := range x {
		g.c[t], g.off[t] = xv, r*stride
		if xv != 0 {
			t++
		}
		if t == denseGather {
			addScaled(dst, m, g.c[:], g.off[:])
			t = 0
		}
	}
	addScaled(dst, m, g.c[:t], g.off[:t])
}

// denseGather is how many non-zero inputs addRows gathers before it adds
// their rows, and how many rows the backward pass queues for one dW/dBias
// pass. Gathering many lets addScaled keep each running sum in a register
// across more terms.
const denseGather = 64

// addScaledPortable adds c[0]·src[off[0]+j] + c[1]·src[off[1]+j] + … into
// each dst[j], one term at a time in that order, each product rounded
// before it is added: four terms per sweep over dst, the running sum in a
// register. The float64 conversions forbid the compiler to fuse a product
// with its add. It is addScaled's body on every GOARCH but amd64, and
// there for CPUs without AVX and for the len(dst)%4 tail.
func addScaledPortable(dst, src, c []float64, off []int) {
	for ; len(c) >= 4; c, off = c[4:], off[4:] {
		c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
		v0 := src[off[0]:][:len(dst)]
		v1 := src[off[1]:][:len(dst)]
		v2 := src[off[2]:][:len(dst)]
		v3 := src[off[3]:][:len(dst)]
		for j, o := range dst {
			o += float64(c0 * v0[j])
			o += float64(c1 * v1[j])
			o += float64(c2 * v2[j])
			o += float64(c3 * v3[j])
			dst[j] = o
		}
	}
	switch len(c) {
	case 3:
		c0, c1, c2 := c[0], c[1], c[2]
		v0 := src[off[0]:][:len(dst)]
		v1 := src[off[1]:][:len(dst)]
		v2 := src[off[2]:][:len(dst)]
		for j, o := range dst {
			o += float64(c0 * v0[j])
			o += float64(c1 * v1[j])
			o += float64(c2 * v2[j])
			dst[j] = o
		}
	case 2:
		c0, c1 := c[0], c[1]
		v0 := src[off[0]:][:len(dst)]
		v1 := src[off[1]:][:len(dst)]
		for j, o := range dst {
			o += float64(c0 * v0[j])
			o += float64(c1 * v1[j])
			dst[j] = o
		}
	case 1:
		c0, v0 := c[0], src[off[0]:][:len(dst)]
		for j, o := range dst {
			dst[j] = o + float64(c0*v0[j])
		}
	}
}

// relu returns 0 for o < 0 and o otherwise (-0 and NaN included). The
// test is on o's bits as an integer: o < 0 exactly when they lie between
// those of -5e-324 and of -Inf. An integer condition compiles to a
// conditional move, and with half of a layer's outputs negative in no
// predictable pattern a branch here costs more than the rest of the row.
func relu(o float64) float64 {
	b := math.Float64bits(o)
	if b-(1<<63+1) < 0x7ff0000000000000 {
		b = 0
	}
	return math.Float64frombits(b)
}

// reluGrad returns the bits of g when out > 0 and g != 0, else those of
// +0, with integer conditions for the reason relu gives: out > 0 exactly
// when its bits lie between those of 5e-324 and of +Inf, g == 0 when its
// bits without the sign are 0.
func reluGrad(g, out float64) uint64 {
	gb := math.Float64bits(g)
	if math.Float64bits(out)-1 >= 0x7ff0000000000000 {
		gb = 0
	}
	if gb<<1 == 0 {
		gb = 0
	}
	return gb
}

// denseBackward holds one Dense node's backward operands. da is nil when
// the input gradient has no consumer; wT is then w transposed, [n,k].
type denseBackward struct {
	a, w, out, grad []float64
	da, wT          []float64
	k, n, act       int
}

// rows runs the backward pass of rows [lo, hi): dA straight into da (rows
// are block-private), dW/dBias into the given accumulators, either of which
// may be nil when not wanted. dpre is scratch for the pre-activation
// gradients of up to denseGather rows, which queue there in row order for
// a shared dW/dBias pass; acc is scratch for one row's dA terms.
func (g *denseBackward) rows(lo, hi int, dpre, acc, dw, db []float64) {
	n := g.n
	var gt gather
	var queued [denseGather]int
	t := 0
	for i := lo; i < hi; i++ {
		d := dpre[t*n : (t+1)*n]
		if !g.preActGrad(i, d) {
			continue
		}
		if g.da != nil {
			// The reference adds every term of each dot product, from +0.
			// acc starts at +0 too, and a sum that starts at +0 can never
			// become -0, so the ±0 terms addRows skips would not have
			// changed it (for finite weights).
			clear(acc)
			gt.addRows(acc, d, g.wT, g.k)
			for kk, s := range acc {
				g.da[i*g.k+kk] += s
			}
		}
		if dw == nil && db == nil {
			continue
		}
		queued[t] = i
		if t++; t == denseGather {
			g.paramGrad(&gt, queued[:], dpre, dw, db)
			t = 0
		}
	}
	g.paramGrad(&gt, queued[:t], dpre, dw, db)
}

// preActGrad writes row i's gradient with respect to the pre-activation
// into d and reports whether any of it is non-zero.
func (g *denseBackward) preActGrad(i int, d []float64) bool {
	n := g.n
	grow := g.grad[i*n : (i+1)*n]
	orow := g.out[i*n : (i+1)*n][:len(grow)]
	d = d[:len(grow)]
	nonZero := false
	switch g.act {
	case DenseActReLU:
		// out > 0 ⟺ pre-activation > 0 (exact zeros stay dead,
		// matching ReLU's subgradient convention).
		var set uint64
		for j, gv := range grow {
			dv := reluGrad(gv, orow[j])
			d[j] = math.Float64frombits(dv)
			set |= dv
		}
		return set != 0
	case DenseActTanh:
		for j, gv := range grow {
			dv := gv * (1 - orow[j]*orow[j])
			d[j] = dv
			if dv != 0 {
				nonZero = true
			}
		}
	default:
		for j, gv := range grow {
			d[j] = gv
			if gv != 0 {
				nonZero = true
			}
		}
	}
	return nonZero
}

// paramGrad adds the dW and dBias terms of the queued rows (in row order,
// their pre-activation gradients in dpre's leading slots): each weight row
// gets the rows whose input is non-zero, the bias every row.
func (g *denseBackward) paramGrad(gt *gather, queued []int, dpre, dw, db []float64) {
	if len(queued) == 0 {
		return
	}
	k, n := g.k, g.n
	c, off := gt.c[:], gt.off[:]
	if db != nil {
		for r := range queued {
			c[r], off[r] = 1, r*n // 1·x is x, bit for bit
		}
		addScaled(db, dpre, c[:len(queued)], off[:len(queued)])
	}
	if dw == nil {
		return
	}
	var base [denseGather]int
	for r, i := range queued {
		base[r] = i * k
	}
	for kk := 0; kk < k; kk++ {
		t := 0
		for r, b := range base[:len(queued)] {
			av := g.a[b+kk]
			c[t], off[t] = av, r*n
			if av != 0 {
				t++
			}
		}
		addScaled(dw[kk*n:(kk+1)*n], dpre, c[:t], off[:t])
	}
}
