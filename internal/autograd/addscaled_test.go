package autograd

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// edgyFloat draws from normal values, ±0, subnormals and magnitudes near
// 1e±300, whose products overflow to ±Inf or underflow to subnormals and
// 0, and whose sums reach Inf-Inf = NaN.
func edgyFloat(rng *rand.Rand) float64 {
	sign := 1.0
	if rng.Intn(2) == 0 {
		sign = -1
	}
	switch rng.Intn(6) {
	case 0:
		return sign * 0
	case 1:
		return sign * math.Float64frombits(1+uint64(rng.Int63n(1<<52-1))) // subnormal
	case 2:
		return sign * 1e300 * (1 + rng.Float64())
	case 3:
		return sign * 1e-300 * (1 + rng.Float64())
	default:
		return rng.NormFloat64()
	}
}

// TestAddScaledVectorMatchesPortable holds the vector addScaled to the
// portable loop's bits: every len(dst) from 1 to 70 (so every len%4 and
// all three column blocks), 0 to 64 terms, offsets that include the last
// legal one, and operands with ±0, subnormals and magnitudes near 1e±300.
func TestAddScaledVectorMatchesPortable(t *testing.T) {
	if !vectorKernel {
		t.Skip("no vector addScaled on this CPU")
	}
	rng := rand.New(rand.NewSource(17))
	fill := func(s []float64) {
		for i := range s {
			s[i] = edgyFloat(rng)
		}
	}
	for n := 1; n <= 70; n++ {
		for terms := 0; terms <= denseGather; terms++ {
			src := make([]float64, n+rng.Intn(3*n))
			c, off := make([]float64, terms), make([]int, terms)
			fill(src)
			fill(c)
			last := len(src) - n
			for i := range off {
				if off[i] = rng.Intn(last + 1); rng.Intn(4) == 0 {
					off[i] = last
				}
			}
			want := make([]float64, n)
			fill(want)
			got := append([]float64(nil), want...)
			addScaledPortable(want, src, c, off)
			addScaled(got, src, c, off)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("len %d, %d terms: dst[%d] = %v (%#x), portable %v (%#x)",
						n, terms, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
				}
			}
		}
	}
}

// TestAddScaledChecksOffsets: an offset that would read past src or before
// it, or any offset into a src shorter than dst, panics before any kernel
// reads memory, with either body.
func TestAddScaledChecksOffsets(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		for _, n := range []int{3, 4, 17} {
			for name, c := range map[string]struct{ srcLen, off int }{
				"past":   {2 * n, n + 1},
				"before": {2 * n, -1},
				"short":  {n - 1, 0},
			} {
				func() {
					defer func() {
						r := recover()
						if r == nil {
							t.Fatalf("len %d, %s src: no panic", n, name)
						}
						if msg := fmt.Sprint(r); vectorKernel && n >= 4 && !strings.Contains(msg, "addScaled offset") {
							t.Fatalf("len %d, %s src: panic %q is not the wrapper's", n, name, msg)
						}
					}()
					addScaled(make([]float64, n), make([]float64, c.srcLen), []float64{1, 1}, []int{0, c.off})
				}()
			}
		}
	})
}

// BenchmarkDense times one forward and backward pass through two Dense
// stacks shaped like train_epoch's networks, with each addScaled body: the
// kernel policy MLP (7→32→16→8→1, ReLU) over 8192 job rows with a fifth of
// the inputs zero, and the critic (896→64→32→1, tanh) over 1024
// observations with three quarters of the inputs zero.
func BenchmarkDense(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	have := vectorKernel
	defer func() { vectorKernel = have }()
	stacks := []struct {
		name  string
		rows  int
		sizes []int
		act   int
		zeros float64
	}{
		{"kernel", 8192, []int{7, 32, 16, 8, 1}, DenseActReLU, 0.2},
		{"value", 1024, []int{896, 64, 32, 1}, DenseActTanh, 0.75},
	}
	for _, st := range stacks {
		x := make([]float64, st.rows*st.sizes[0])
		for i := range x {
			if rng.Float64() >= st.zeros {
				x[i] = rng.NormFloat64()
			}
		}
		var params []*Tensor
		for l := 0; l+1 < len(st.sizes); l++ {
			params = append(params, RandParam(rng, 0.3, st.sizes[l], st.sizes[l+1]), RandParam(rng, 0.1, 1, st.sizes[l+1]))
		}
		for _, vec := range []bool{false, true} {
			if vec && !have {
				continue
			}
			vectorKernel = vec
			b.Run(st.name+"/"+kernelName(vec), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					h := FromSlice(x, st.rows, st.sizes[0])
					for l := 0; l < len(params); l += 2 {
						act := st.act
						if l+2 == len(params) {
							act = DenseActNone
						}
						h = Dense(h, params[l], params[l+1], act)
					}
					Sum(h).Backward()
				}
			})
		}
	}
}
