package nn

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	ag "rlsched/internal/autograd"
)

const (
	testMaxObs = 16
	testFeat   = 7
)

func randObs(rng *rand.Rand, batch int) *ag.Tensor {
	t := ag.New(batch, testMaxObs*testFeat)
	for i := range t.Data {
		t.Data[i] = rng.Float64()
	}
	return t
}

func TestLinearShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, 4, 3)
	if !slices.Equal(l.W.Shape, []int{4, 3}) || !slices.Equal(l.B.Shape, []int{1, 3}) {
		t.Fatalf("Linear shapes W %v B %v, want [4 3] and [1 3]", l.W.Shape, l.B.Shape)
	}
	if len(l.Params()) != 2 {
		t.Fatalf("Linear params = %d, want 2", len(l.Params()))
	}
}

func TestXavierInitScale(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(rng, 100, 100)
	bound := math.Sqrt(6.0 / 200)
	for _, v := range l.W.Data {
		if math.Abs(v) > bound {
			t.Fatalf("weight %g beyond Xavier bound %g", v, bound)
		}
	}
	for _, v := range l.B.Data {
		if v != 0 {
			t.Fatal("bias must start at zero")
		}
	}
}

func TestMLPForward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP(rng, []int{6, 8, 4, 2}, ActTanh)
	y := m.Forward(ag.New(3, 6))
	if y.Shape[0] != 3 || y.Shape[1] != 2 {
		t.Fatalf("MLP out shape %v", y.Shape)
	}
	if got := len(m.Params()); got != 6 {
		t.Fatalf("MLP params = %d, want 6 (3 layers × 2)", got)
	}
}

func TestPolicyFactoryAndShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, kind := range PolicyKinds {
		p, err := NewPolicy(rng, kind, testMaxObs, testFeat)
		if err != nil {
			t.Fatalf("NewPolicy(%s): %v", kind, err)
		}
		if p.Kind() != kind {
			t.Errorf("Kind() = %q, want %q", p.Kind(), kind)
		}
		mo, f := p.Dims()
		if mo != testMaxObs || f != testFeat {
			t.Errorf("%s Dims = %d,%d", kind, mo, f)
		}
		obs := randObs(rng, 3)
		logits := p.Logits(obs)
		if logits.Shape[0] != 3 || logits.Shape[1] != testMaxObs {
			t.Fatalf("%s logits shape %v, want [3,%d]", kind, logits.Shape, testMaxObs)
		}
		for _, v := range logits.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s produced non-finite logit", kind)
			}
		}
	}
	if _, err := NewPolicy(rng, "bogus", 8, 7); err == nil {
		t.Error("unknown policy kind must error")
	}
}

func TestKernelNetParameterBudget(t *testing.T) {
	// §IV-B1: "we are able to control the parameter size of the policy
	// network less than 1,000".
	rng := rand.New(rand.NewSource(5))
	k := NewKernelNet(rng, 128, testFeat, nil)
	if n := ParamCount(k); n >= 1000 {
		t.Errorf("kernel net has %d params, paper promises < 1000", n)
	}
	// The flattened MLPs are much bigger — that asymmetry is the point.
	m := NewMLPPolicy(rng, 128, testFeat, "mlp-v1")
	if ParamCount(m) < 10*ParamCount(k) {
		t.Error("mlp-v1 should dwarf the kernel net in parameters")
	}
}

// TestKernelNetPermutationEquivariance is the architectural property of
// §III-1: permuting the job rows permutes the scores identically, so the
// chosen job does not depend on queue position.
func TestKernelNetPermutationEquivariance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	k := NewKernelNet(rng, testMaxObs, testFeat, nil)
	obs := randObs(rng, 1)
	logits := k.Logits(obs).Data

	perm := rng.Perm(testMaxObs)
	permObs := ag.New(1, testMaxObs*testFeat)
	for to, from := range perm {
		copy(permObs.Data[to*testFeat:(to+1)*testFeat], obs.Data[from*testFeat:(from+1)*testFeat])
	}
	permLogits := k.Logits(permObs).Data
	for to, from := range perm {
		if math.Abs(permLogits[to]-logits[from]) > 1e-12 {
			t.Fatalf("kernel net not permutation-equivariant: slot %d->%d: %g vs %g",
				from, to, logits[from], permLogits[to])
		}
	}
}

// TestMLPIsOrderSensitive documents the contrast: the flattened MLP
// generally does NOT commute with permutations (the motivation for the
// kernel design).
func TestMLPIsOrderSensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMLPPolicy(rng, testMaxObs, testFeat, "mlp-v2")
	obs := randObs(rng, 1)
	logits := m.Logits(obs).Data

	// Swap rows 0 and 1.
	permObs := ag.New(1, testMaxObs*testFeat)
	copy(permObs.Data, obs.Data)
	for f := 0; f < testFeat; f++ {
		permObs.Data[f], permObs.Data[testFeat+f] = permObs.Data[testFeat+f], permObs.Data[f]
	}
	permLogits := m.Logits(permObs).Data
	diff := math.Abs(permLogits[0]-logits[1]) + math.Abs(permLogits[1]-logits[0])
	if diff < 1e-9 {
		t.Skip("degenerate draw: MLP accidentally equivariant")
	}
}

func TestValueNet(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	v := NewValueNet(rng, testMaxObs, testFeat, nil)
	out := v.Value(randObs(rng, 5))
	if out.Shape[0] != 5 || out.Shape[1] != 1 {
		t.Fatalf("value shape %v, want [5,1]", out.Shape)
	}
}

func TestLeNetRejectsTinyObs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("LeNet on a tiny observation must panic")
		}
	}()
	NewLeNet(rand.New(rand.NewSource(9)), 4, 7)
}

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, kind := range []string{"kernel", "mlp-v2", "lenet"} {
		p, err := NewPolicy(rng, kind, testMaxObs, testFeat)
		if err != nil {
			t.Fatal(err)
		}
		v := NewValueNet(rng, testMaxObs, testFeat, nil)
		obs := randObs(rng, 2)
		wantLogits := append([]float64(nil), p.Logits(obs).Data...)
		wantValue := v.Value(obs).Data[0]

		var buf bytes.Buffer
		if err := Snap(p, v, nil).Write(&buf); err != nil {
			t.Fatal(err)
		}
		snap, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		p2, v2, err := snap.Materialize(rand.New(rand.NewSource(999)))
		if err != nil {
			t.Fatal(err)
		}
		gotLogits := p2.Logits(obs).Data
		for i := range wantLogits {
			if math.Abs(gotLogits[i]-wantLogits[i]) > 1e-12 {
				t.Fatalf("%s: logits diverge after round trip", kind)
			}
		}
		if got := v2.Value(obs).Data[0]; math.Abs(got-wantValue) > 1e-12 {
			t.Fatalf("%s: value diverges after round trip", kind)
		}
	}
}

func TestSnapshotRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p, _ := NewPolicy(rng, "kernel", testMaxObs, testFeat)
	v := NewValueNet(rng, testMaxObs, testFeat, nil)
	s := Snap(p, v, nil)
	s.Policy = s.Policy[:1]
	if _, _, err := s.Materialize(rng); err == nil {
		t.Error("truncated snapshot must fail to materialize")
	}
	var bad bytes.Buffer
	bad.WriteString("{not json")
	if _, err := ReadSnapshot(&bad); err == nil {
		t.Error("broken JSON must fail")
	}
}

// TestMalformedSnapshotIsAnError: dimensions no network can be built with,
// and blobs the policy or critic would not build or the file's floats do
// not back, are refused by ReadSnapshot — an error each time, never a panic
// or a huge allocation. Materialize refuses a LeNet too small for its
// conv/pool stages on its own too.
func TestMalformedSnapshotIsAnError(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p, _ := NewPolicy(rng, "kernel", testMaxObs, testFeat)
	v := NewValueNet(rng, testMaxObs, testFeat, nil)
	lenet2x2 := func(s *Snapshot) {
		s.PolicyKind, s.MaxObs, s.Features = "lenet", 2, 2
		s.Value = blobs(NewValueNet(rng, 2, 2, nil))
	}
	for _, c := range []struct {
		name string
		edit func(s *Snapshot)
	}{
		{"features 0", func(s *Snapshot) { s.Features = 0 }},
		{"features -1", func(s *Snapshot) { s.Features = -1 }},
		{"max_obs 0", func(s *Snapshot) { s.MaxObs = 0 }},
		{"max_obs -1", func(s *Snapshot) { s.MaxObs = -1 }},
		{"value_hidden [-1]", func(s *Snapshot) { s.ValueHidden = []int{-1} }},
		{"value_hidden [32 0]", func(s *Snapshot) { s.ValueHidden = []int{32, 0} }},
		{"kernel max_obs 1e9", func(s *Snapshot) { s.MaxObs = 1e9 }},
		{"mlp-v1 max_obs 1e9", func(s *Snapshot) { s.PolicyKind, s.MaxObs = "mlp-v1", 1e9 }},
		{"value_hidden [1 1e9]", func(s *Snapshot) { s.ValueHidden = []int{1, 1e9} }},
		{"shape overflows", func(s *Snapshot) { s.Policy[0].Shape = []int{1 << 40, 1 << 40} }},
		{"shape != data", func(s *Snapshot) { s.Value[1].Data = s.Value[1].Data[1:] }},
		{"lenet 2x2", lenet2x2},
		{"unknown kind", func(s *Snapshot) { s.PolicyKind = "mlp-v9" }},
		{"policy shape transposed", func(s *Snapshot) {
			sh := s.Policy[0].Shape
			s.Policy[0].Shape = []int{sh[1], sh[0]}
		}},
		// A bare critic sized by max_obs·features backs the file, but the
		// policy it declares is missing: building that policy would cost
		// ~300 MB before the tensor count mismatch surfaced.
		{"mlp-v1 policy [] at max_obs 20000", func(s *Snapshot) {
			s.PolicyKind, s.MaxObs, s.ValueHidden, s.Policy = "mlp-v1", 20000, []int{}, nil
			s.Value = blobs(NewValueNet(rng, 20000, testFeat, []int{}))
		}},
	} {
		s := Snap(p, v, nil)
		c.edit(s)
		var buf bytes.Buffer
		if err := s.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshot(&buf); err == nil {
			t.Errorf("%s: ReadSnapshot accepted it", c.name)
		}
	}
	s := Snap(p, v, nil)
	lenet2x2(s)
	if _, err := s.MaterializePolicy(rng); err == nil {
		t.Error("lenet 2x2: MaterializePolicy accepted it")
	}
	if _, _, err := s.Materialize(rng); err == nil {
		t.Error("lenet 2x2: Materialize accepted it")
	}
}

// TestPolicyShapesMatchNewPolicy: the shapes ReadSnapshot checks policy
// blobs against are the ones NewPolicy builds, for every architecture.
func TestPolicyShapesMatchNewPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, kind := range PolicyKinds {
		for _, dims := range [][2]int{{testMaxObs, testFeat}, {12, 5}, {33, 9}} {
			p, err := NewPolicy(rng, kind, dims[0], dims[1])
			if err != nil {
				t.Fatal(err)
			}
			want, err := policyShapes(kind, dims[0], dims[1])
			if err != nil {
				t.Fatal(err)
			}
			ps := p.Params()
			if len(ps) != len(want) {
				t.Fatalf("%s %v: %d shapes for %d tensors", kind, dims, len(want), len(ps))
			}
			for i, q := range ps {
				if !slices.Equal(q.Shape, want[i]) {
					t.Errorf("%s %v: tensor %d has shape %v, policyShapes says %v", kind, dims, i, q.Shape, want[i])
				}
			}
		}
	}
	if _, err := policyShapes("lenet", 2, 2); err == nil {
		t.Error("policyShapes must refuse a LeNet NewPolicy refuses")
	}
}

// TestSnapshotEmptyValueHidden: "value_hidden": [] is a critic with no
// hidden layer, whose one layer ReadSnapshot sizes at max_obs·features×1.
func TestSnapshotEmptyValueHidden(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	p, _ := NewPolicy(rng, "kernel", testMaxObs, testFeat)
	v := NewValueNet(rng, testMaxObs, testFeat, []int{})
	var buf bytes.Buffer
	if err := Snap(p, v, []int{}).Write(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := snap.Materialize(rng); err != nil {
		t.Fatal(err)
	}
}

// TestActivations: each Activation selects its fused ag.Dense
// nonlinearity (through an identity layer, so the output is act(x)).
func TestActivations(t *testing.T) {
	x := ag.FromSlice([]float64{-1, 0, 2}, 1, 3)
	eye := ag.FromSlice([]float64{1, 0, 0, 0, 1, 0, 0, 0, 1}, 3, 3)
	bias := ag.New(1, 3)
	apply := func(a Activation) []float64 { return ag.Dense(x, eye, bias, a.denseCode()).Data }
	if r := apply(ActReLU); r[0] != 0 || r[2] != 2 {
		t.Errorf("relu = %v", r)
	}
	if th := apply(ActTanh); math.Abs(th[2]-math.Tanh(2)) > 1e-12 {
		t.Errorf("tanh = %v", th)
	}
	if id := apply(ActIdentity); !slices.Equal(id, x.Data) {
		t.Errorf("identity = %v, must pass through", id)
	}
}
