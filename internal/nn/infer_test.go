package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	ag "rlsched/internal/autograd"
)

// inferParity checks the graph-free fast path against the autograd forward
// pass on random observations: both run ag.DenseRows, so the logits must
// agree to the bit.
func inferParity(t *testing.T, net PolicyNet, batch int) {
	t.Helper()
	maxObs, feat := net.Dims()
	rng := rand.New(rand.NewSource(7))
	obs := make([]float64, batch*maxObs*feat)
	for i := range obs {
		obs[i] = rng.Float64()
	}
	want := net.Logits(ag.FromSlice(obs, batch, maxObs*feat)).Data
	got := make([]float64, batch*maxObs)
	net.InferLogits(obs, batch, got)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s logit %d: fast=%g autograd=%g", net.Kind(), i, got[i], want[i])
		}
	}
}

func TestInferLogitsMatchesAutograd(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for _, batch := range []int{1, 3, 16} {
			inferParity(t, NewKernelNet(rng, 24, 7, nil), batch)
			inferParity(t, NewMLPPolicy(rng, 24, 7, "mlp-v2"), batch)
			inferParity(t, NewMLPPolicy(rng, 24, 7, "mlp-v1"), batch)
			inferParity(t, NewLeNet(rng, 16, 7), batch)
		}
	})
}

func TestEveryPolicyKindInfers(t *testing.T) {
	// Every registered architecture's fast path matches its autograd
	// forward pass — the rollout collector and the serving daemon both
	// rely on it.
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		for _, kind := range PolicyKinds {
			net, err := NewPolicy(rng, kind, 16, 7)
			if err != nil {
				t.Fatal(err)
			}
			inferParity(t, net, 2)
		}
	})
}

func TestInferValuesMatchesAutograd(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		v := NewValueNet(rng, 24, 7, nil)
		for _, batch := range []int{1, 5} {
			obs := make([]float64, batch*24*7)
			for i := range obs {
				obs[i] = rng.Float64()
			}
			want := v.Value(ag.FromSlice(obs, batch, 24*7)).Data
			got := make([]float64, batch)
			v.InferValues(obs, batch, got)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("value %d: fast=%g autograd=%g", i, got[i], want[i])
				}
			}
		}
	})
}

func TestInferLogitsDoesNotAllocate(t *testing.T) {
	// The serving and rollout hot path: one observation through the
	// kernel net's shared forward kernel, scratch from the pool.
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch under -race")
	}
	rng := rand.New(rand.NewSource(8))
	net := NewKernelNet(rng, 128, 7, nil)
	obs := make([]float64, 128*7)
	for i := range obs {
		if i%3 != 0 {
			obs[i] = rng.Float64()
		}
	}
	out := make([]float64, 128)
	forEachKernel(t, func(t *testing.T) {
		if allocs := testing.AllocsPerRun(100, func() { net.InferLogits(obs, 1, out) }); allocs != 0 {
			t.Errorf("KernelNet.InferLogits allocates %v times per call", allocs)
		}
	})
}

func TestInferRejectsMismatchedBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	obs, out := make([]float64, 16*7), make([]float64, 16)
	for name, f := range map[string]func(){
		"kernel obs": func() { NewKernelNet(rng, 16, 7, nil).InferLogits(obs[1:], 1, out) },
		"mlp out":    func() { NewMLPPolicy(rng, 16, 7, "mlp-v1").InferLogits(obs, 1, out[1:]) },
		"lenet obs":  func() { NewLeNet(rng, 16, 7).InferLogits(obs, 2, out) },
		"value out":  func() { NewValueNet(rng, 16, 7, nil).InferValues(obs, 1, out) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: mismatched buffer sizes must panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSyncParams(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	src := NewKernelNet(rng, 16, 7, nil)
	dst := NewKernelNet(rng, 16, 7, nil)
	if err := SyncParams(dst, src); err != nil {
		t.Fatal(err)
	}
	obs := make([]float64, 16*7)
	for i := range obs {
		obs[i] = rng.Float64()
	}
	a, b := make([]float64, 16), make([]float64, 16)
	src.InferLogits(obs, 1, a)
	dst.InferLogits(obs, 1, b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("logit %d differs after SyncParams: %g vs %g", i, a[i], b[i])
		}
	}
	// Shape mismatch must be rejected.
	other := NewKernelNet(rng, 16, 7, []int{4})
	if err := SyncParams(other, src); err == nil {
		t.Error("SyncParams across architectures must error")
	}
}

func TestInferLogitsConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewKernelNet(rng, 16, 7, nil)
	obs := make([]float64, 16*7)
	for i := range obs {
		obs[i] = rng.Float64()
	}
	want := make([]float64, 16)
	net.InferLogits(obs, 1, want)

	// Many goroutines infer on shared weights; run with -race to prove
	// the serving path is data-race-free.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, 16)
			for i := 0; i < 200; i++ {
				net.InferLogits(obs, 1, out)
				for j := range out {
					if out[j] != want[j] {
						t.Errorf("concurrent inference diverged at %d", j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestMaterializePolicyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pol := NewKernelNet(rng, 16, 7, nil)
	val := NewValueNet(rng, 16, 7, nil)
	snap := Snap(pol, val, nil)

	got, err := snap.MaterializePolicy(rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	obs := make([]float64, 16*7)
	for i := range obs {
		obs[i] = rng.Float64()
	}
	a := pol.Logits(ag.FromSlice(obs, 1, len(obs))).Data
	b := got.Logits(ag.FromSlice(obs, 1, len(obs))).Data
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("logit %d differs after MaterializePolicy: %g vs %g", i, a[i], b[i])
		}
	}
}
