package autograd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCreationAndAccessors(t *testing.T) {
	z := New(2, 3)
	if z.Size() != 6 || z.Shape[0] != 2 || z.Shape[1] != 3 {
		t.Fatalf("New(2,3): size=%d shape=%v", z.Size(), z.Shape)
	}
	f := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	if f.Data[2] != 3 {
		t.Errorf("row 1, column 0 = %g, want 3", f.Data[2])
	}
	p := Param([]float64{5}, 1)
	if !p.RequiresGrad || p.Grad == nil {
		t.Error("Param must track gradients")
	}
	if p.Item() != 5 {
		t.Errorf("Item = %g, want 5", p.Item())
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s must panic", name)
			}
		}()
		f()
	}
	mustPanic("bad shape", func() { New(0, 2) })
	mustPanic("FromSlice mismatch", func() { FromSlice([]float64{1}, 2, 2) })
	mustPanic("Item non-scalar", func() { New(2, 2).Item() })
	mustPanic("SelectRows on 1-D", func() { SelectRows(New(4), nil) })
	mustPanic("Sub mismatch", func() { Sub(New(2, 2), New(2, 3)) })
	mustPanic("Dense mismatch", func() { Dense(New(2, 3), New(2, 3), New(1, 3), DenseActNone) })
	mustPanic("Dense bias mismatch", func() { Dense(New(2, 3), New(3, 2), New(1, 3), DenseActNone) })
	mustPanic("SelectRows bad idx", func() { SelectRows(New(2, 2), []int{2}) })
	mustPanic("ScatterRowsFill bad fill", func() { ScatterRowsFill(New(2, 2), nil, 3, 2) })
	mustPanic("ScatterRowsFill too many idx", func() { ScatterRowsFill(New(2, 2), []int{0, 1, 2, 3}, 3, 0) })
	mustPanic("ScatterRowsFill bad idx", func() { ScatterRowsFill(New(2, 2), []int{3}, 3, 0) })
	mustPanic("ScatterRowsFill idx past input", func() { ScatterRowsFill(New(2, 2), []int{0, 1, 2}, 3, 0) })
	mustPanic("MaskedLogSoftmax mask length", func() { MaskedLogSoftmax(New(2, 2), []bool{true}, -1) })
	mustPanic("Backward non-scalar", func() { New(2, 2).Backward() })
	mustPanic("Gather bad idx", func() { GatherRows(New(2, 2), []int{0, 5}) })
	mustPanic("Reshape mismatch", func() { Reshape(New(2, 2), 3, 3) })
	mustPanic("Conv2D too big", func() {
		Conv2D(New(1, 1, 2, 2), New(1, 1, 5, 5), New(1, 1))
	})
}

func TestBackwardAccumulatesAcrossUses(t *testing.T) {
	// y = a ⊙ a: dy/da = 2a per element.
	a := Param([]float64{1, 2}, 1, 2)
	Sum(Mul(a, a)).Backward()
	if a.Grad[0] != 2 || a.Grad[1] != 4 {
		t.Errorf("grad = %v, want [2 4] (shared subexpression)", a.Grad)
	}
	// A second Backward without ZeroGrad accumulates further.
	Sum(Mul(a, a)).Backward()
	if a.Grad[0] != 4 {
		t.Errorf("grad after 2nd backward = %g, want 4", a.Grad[0])
	}
	a.ZeroGrad()
	if a.Grad[0] != 0 {
		t.Error("ZeroGrad must clear")
	}
}

// TestCloneIndependent: Param copies its data, so the leaf and the
// caller's slice never alias.
func TestCloneIndependent(t *testing.T) {
	data := []float64{1, 2}
	p := Param(data, 2)
	data[0] = 99
	p.Data[1] = -1
	if p.Data[0] != 1 || data[1] != 2 {
		t.Errorf("Param shares its data: leaf %v, slice %v", p.Data, data)
	}
}

// TestSoftmaxRowsSumToOne: exp of MaskedLogSoftmax is a distribution over
// each row's valid cells whatever the logits, and with every cell valid it
// is the plain softmax.
func TestSoftmaxRowsSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 1+r.Intn(5), 2+r.Intn(8)
		a := New(m, n)
		mask := make([]bool, m*n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64() * 10
			mask[i] = seed%2 == 0 || i%n == 0 || r.Intn(2) == 0
		}
		s := Exp(MaskedLogSoftmax(a, mask, -1e9))
		for i := 0; i < m; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				v := s.Data[i*n+j]
				if v < 0 || v > 1 || math.IsNaN(v) || (!mask[i*n+j] && v != 0) {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLogSoftmaxStability(t *testing.T) {
	// Huge logits must not overflow.
	a := FromSlice([]float64{1e6, 1e6 - 1, -1e6}, 1, 3)
	ls := MaskedLogSoftmax(a, []bool{true, true, true}, -1e9)
	for _, v := range ls.Data {
		if math.IsNaN(v) || math.IsInf(v, 1) {
			t.Fatalf("unstable logsoftmax: %v", ls.Data)
		}
	}
	// The max logit dominates: its log-prob ≈ log(1/(1+e^-1)).
	want := -math.Log(1 + math.Exp(-1))
	if math.Abs(ls.Data[0]-want) > 1e-9 {
		t.Errorf("ls[0] = %g, want %g", ls.Data[0], want)
	}
}

// TestMatMulValues: Dense with a zero bias and no activation is the matrix
// product, checked against hand-computed values.
func TestMatMulValues(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	c := Dense(a, b, New(1, 2), DenseActNone)
	want := []float64{19, 22, 43, 50}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("a×b = %v, want %v", c.Data, want)
		}
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	// A 1x1 kernel of weight 1 with zero bias reproduces the input.
	x := FromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	w := FromSlice([]float64{1}, 1, 1, 1, 1)
	b := FromSlice([]float64{0}, 1, 1)
	out := Conv2D(x, w, b)
	for i := range x.Data {
		if out.Data[i] != x.Data[i] {
			t.Fatalf("identity conv = %v", out.Data)
		}
	}
}

func TestMaxPoolValues(t *testing.T) {
	x := FromSlice([]float64{
		1, 5, 2, 0,
		3, 4, 1, 9,
	}, 1, 1, 2, 4)
	out := MaxPool2D(x, 2, 2)
	if out.Data[0] != 5 || out.Data[1] != 9 {
		t.Fatalf("maxpool = %v, want [5 9]", out.Data)
	}
}

func TestRandParamRange(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := RandParam(rng, 0.5, 10, 10)
	for _, v := range p.Data {
		if v < -0.5 || v > 0.5 {
			t.Fatalf("RandParam value %g out of [-0.5, 0.5]", v)
		}
	}
}

func TestBackwardLeavesDataLeavesBare(t *testing.T) {
	// An observation batch is a plain data leaf: nothing reads its
	// gradient, so Backward must not allocate (and zero) one for it.
	x := FromSlice([]float64{1, 0, 2, 3, 0, 1}, 2, 3)
	w := Param([]float64{0.5, -1, 2, 0.25, -0.5, 1}, 3, 2)
	b := Param([]float64{0.1, -0.2}, 1, 2)
	Sum(Dense(x, w, b, DenseActTanh)).Backward()
	if x.Grad != nil {
		t.Errorf("data leaf got a %d-value gradient buffer", len(x.Grad))
	}
	if w.Grad[0] == 0 || b.Grad[0] == 0 {
		t.Errorf("parameters got no gradient: w %v, b %v", w.Grad, b.Grad)
	}
}
