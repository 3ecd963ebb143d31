package trace

import (
	"math"
	"math/rand"
	"testing"
)

func TestGammaSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ shape, scale float64 }{
		{0.5, 2}, {1, 1}, {4.2, 220}, {9, 0.5},
	} {
		n := 20000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += gammaSample(rng, tc.shape, tc.scale)
		}
		mean := sum / float64(n)
		want := tc.shape * tc.scale
		if rel := math.Abs(mean-want) / want; rel > 0.08 {
			t.Errorf("gamma(%g,%g) mean = %g, want %g", tc.shape, tc.scale, mean, want)
		}
	}
	if gammaSample(rand.New(rand.NewSource(1)), 0, 1) != 0 {
		t.Error("gamma with zero shape must be 0")
	}
}

func TestExpAndLogNormalMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 30000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += expSample(rng, 500)
	}
	if m := sum / float64(n); math.Abs(m-500)/500 > 0.05 {
		t.Errorf("exp mean = %g, want 500", m)
	}
	sum = 0
	for i := 0; i < n; i++ {
		sum += logNormalSample(rng, 1000, 1.5)
	}
	if m := sum / float64(n); math.Abs(m-1000)/1000 > 0.25 {
		t.Errorf("lognormal mean = %g, want ≈1000", m)
	}
	if expSample(rng, 0) != 0 || logNormalSample(rng, 0, 1) != 0 {
		t.Error("non-positive means must yield 0")
	}
}

func TestPow2Picker(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, target := range []float64{2, 6, 11, 39, 5063} {
		maxP := 128
		if target > 100 {
			maxP = 163840
		}
		p := newPow2Picker(maxP, target, 0)
		sum := 0.0
		n := 20000
		for i := 0; i < n; i++ {
			s := p.sample(rng)
			if s < 1 || s > maxP {
				t.Fatalf("sample %d out of [1,%d]", s, maxP)
			}
			if s&(s-1) != 0 {
				t.Fatalf("sample %d not a power of two", s)
			}
			sum += float64(s)
		}
		mean := sum / float64(n)
		if rel := math.Abs(mean-target) / target; rel > 0.35 {
			t.Errorf("pow2 mean = %.1f, want ≈%g", mean, target)
		}
	}
}

func TestPow2PickerSerialProb(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	p := newPow2Picker(64, 16, 0.5)
	ones := 0
	n := 10000
	for i := 0; i < n; i++ {
		if p.sample(rng) == 1 {
			ones++
		}
	}
	if frac := float64(ones) / float64(n); frac < 0.45 {
		t.Errorf("serial fraction = %.2f, want >= 0.45", frac)
	}
}

func TestZipfWeights(t *testing.T) {
	w := zipfWeights(10, 1.2)
	sum := 0.0
	for i, x := range w {
		sum += x
		if i > 0 && x > w[i-1] {
			t.Error("zipf weights must be non-increasing")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("zipf weights sum = %g, want 1", sum)
	}
}

func TestWeightedPickDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	w := []float64{0.7, 0.2, 0.1}
	counts := make([]int, 3)
	n := 30000
	for i := 0; i < n; i++ {
		counts[weightedPick(rng, w)]++
	}
	for i, want := range w {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("pick[%d] freq = %.3f, want %.1f", i, got, want)
		}
	}
}

func TestHyperGammaMixture(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	// p=1: always component 1; p=0: always component 2.
	n := 5000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += hyperGamma(rng, 1, 2, 10, 100, 100)
	}
	if m := sum / float64(n); math.Abs(m-20)/20 > 0.1 {
		t.Errorf("hyperGamma(p=1) mean = %g, want 20", m)
	}
	sum = 0
	for i := 0; i < n; i++ {
		sum += hyperGamma(rng, 0, 2, 10, 100, 100)
	}
	if m := sum / float64(n); math.Abs(m-10000)/10000 > 0.1 {
		t.Errorf("hyperGamma(p=0) mean = %g, want 10000", m)
	}
}

func TestLublinGeneratorTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cfg := DefaultLublin(256, 3000)
	cfg.TargetMeanInterarrival = 771
	cfg.TargetMeanRuntime = 4862
	tr := GenerateLublin(cfg, rng)
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	s := tr.ComputeStats()
	if rel := math.Abs(s.MeanRunTime-4862) / 4862; rel > 0.02 {
		t.Errorf("mean runtime = %.0f, want 4862 (rescaled exactly)", s.MeanRunTime)
	}
	if rel := math.Abs(s.MeanInterarrival-771) / 771; rel > 0.05 {
		t.Errorf("mean interarrival = %.0f, want ≈771", s.MeanInterarrival)
	}
	if s.Users == 0 {
		t.Error("default Lublin config should assign users")
	}
	for _, j := range tr.Jobs {
		if j.RequestedTime < j.RunTime {
			t.Fatal("estimates must be >= runtime with EstimateFactor > 1")
		}
	}
}

func TestLublinEmptyConfig(t *testing.T) {
	tr := GenerateLublin(LublinConfig{}, rand.New(rand.NewSource(1)))
	if tr.Len() != 0 {
		t.Error("empty config must give empty trace")
	}
}

func TestRescale(t *testing.T) {
	xs := []float64{1, 2, 3}
	rescale(xs, 4)
	if m := (xs[0] + xs[1] + xs[2]) / 3; math.Abs(m-4) > 1e-12 {
		t.Errorf("rescaled mean = %g, want 4", m)
	}
	ys := []float64{5}
	rescale(ys, 0) // no-op
	if ys[0] != 5 {
		t.Error("rescale with target 0 must be a no-op")
	}
	zs := []float64{0, 0}
	rescale(zs, 10) // zero mean: no-op, no NaN
	if zs[0] != 0 {
		t.Error("rescale of zeros must be a no-op")
	}
}

// BenchmarkLublinGeneration10K times synthesizing a 10k-job Lublin trace
// on 256 processors.
func BenchmarkLublinGeneration10K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		GenerateLublin(DefaultLublin(256, 10000), rand.New(rand.NewSource(int64(i))))
	}
}
