package nn

import (
	"fmt"
	"math/rand"

	ag "rlsched/internal/autograd"
)

// KernelNet is the paper's kernel-based policy network (§IV-B1, Fig 5): a
// small MLP applied to every job vector independently, like a 1-D
// convolution kernel sliding over the queue, emitting one score per job.
// Because the same weights score every slot, permuting the jobs permutes
// the scores identically — the network is insensitive to queue order by
// construction, and its parameter count stays tiny (< 1000 with the
// default 32/16/8 sizes).
type KernelNet struct {
	mlp    *MLP
	maxObs int
	feat   int
}

// DefaultKernelSizes are the paper's kernel MLP hidden sizes (Table IV).
var DefaultKernelSizes = []int{32, 16, 8}

// NewKernelNet builds the kernel network for maxObs job slots of feat
// features, with the given hidden sizes (nil for the paper defaults).
func NewKernelNet(rng *rand.Rand, maxObs, feat int, hidden []int) *KernelNet {
	if hidden == nil {
		hidden = DefaultKernelSizes
	}
	sizes := append([]int{feat}, hidden...)
	sizes = append(sizes, 1)
	return &KernelNet{mlp: NewMLP(rng, sizes, ActReLU), maxObs: maxObs, feat: feat}
}

// Logits implements PolicyNet: reshape [B, maxObs·feat] → [B·maxObs, feat],
// score every job with the shared MLP, reshape back to [B, maxObs].
//
// Padding rows are compacted away first: they are exactly zero (real jobs
// always carry the presence flag), so one representative zero row stands in
// for all of them — its score is copied to every padding slot and its
// gradient accumulates theirs. Training batches are typically dominated by
// padding (a 128-slot window over a lightly backed-up queue), so the MLP
// sees a fraction of the rows with bit-identical results.
func (k *KernelNet) Logits(obs *ag.Tensor) *ag.Tensor {
	b := checkObs(obs, k.maxObs, k.feat)
	total := b * k.maxObs
	rows := ag.Reshape(obs, total, k.feat)
	idx := make([]int, 0, total)
	pad := -1
	for i := 0; i < total; i++ {
		row := rows.Data[i*k.feat : (i+1)*k.feat]
		zero := true
		for _, v := range row {
			if v != 0 {
				zero = false
				break
			}
		}
		if zero {
			if pad < 0 {
				pad = i
			}
		} else {
			idx = append(idx, i)
		}
	}
	if pad < 0 { // no padding anywhere: score the batch as-is
		scores := k.mlp.Forward(rows) // [B·maxObs, 1]
		return ag.Reshape(scores, b, k.maxObs)
	}
	compact := ag.SelectRows(rows, append(idx, pad))
	scores := k.mlp.Forward(compact) // [len(idx)+1, 1]
	full := ag.ScatterRowsFill(scores, idx, total, len(idx))
	return ag.Reshape(full, b, k.maxObs)
}

// Params implements Module.
func (k *KernelNet) Params() []*ag.Tensor { return k.mlp.Params() }

// Kind implements PolicyNet.
func (k *KernelNet) Kind() string { return "kernel" }

// Dims implements PolicyNet.
func (k *KernelNet) Dims() (int, int) { return k.maxObs, k.feat }

// MLPPolicy is the order-sensitive baseline of Table IV: the whole
// observation matrix is flattened into one vector and mapped to maxObs
// logits by a plain MLP (variants v1: 128/128/128, v2: 32/16/8,
// v3: 32×5).
type MLPPolicy struct {
	mlp     *MLP
	maxObs  int
	feat    int
	variant string
}

// MLPVariants lists the Table IV MLP configurations.
var MLPVariants = map[string][]int{
	"mlp-v1": {128, 128, 128},
	"mlp-v2": {32, 16, 8},
	"mlp-v3": {32, 32, 32, 32, 32},
}

// NewMLPPolicy builds the named Table IV variant ("mlp-v1", "mlp-v2",
// "mlp-v3").
func NewMLPPolicy(rng *rand.Rand, maxObs, feat int, variant string) *MLPPolicy {
	hidden, ok := MLPVariants[variant]
	if !ok {
		panic(fmt.Sprintf("nn: unknown MLP variant %q", variant))
	}
	sizes := append([]int{maxObs * feat}, hidden...)
	sizes = append(sizes, maxObs)
	return &MLPPolicy{
		mlp:     NewMLP(rng, sizes, ActReLU),
		maxObs:  maxObs,
		feat:    feat,
		variant: variant,
	}
}

// Logits implements PolicyNet.
func (m *MLPPolicy) Logits(obs *ag.Tensor) *ag.Tensor {
	checkObs(obs, m.maxObs, m.feat)
	return m.mlp.Forward(obs)
}

// Params implements Module.
func (m *MLPPolicy) Params() []*ag.Tensor { return m.mlp.Params() }

// Kind implements PolicyNet.
func (m *MLPPolicy) Kind() string { return m.variant }

// Dims implements PolicyNet.
func (m *MLPPolicy) Dims() (int, int) { return m.maxObs, m.feat }

// LeNet is the convolutional baseline of Table IV: two (conv, max-pool)
// stages over the observation treated as a 1-channel maxObs×feat image,
// then dense layers. The paper finds its pooling and dense layers mix job
// order and hurt training — it exists here to reproduce Fig 8.
type LeNet struct {
	w1, b1 *ag.Tensor // conv1: 4 filters 3×3
	w2, b2 *ag.Tensor // conv2: 8 filters 3×3
	dense  *MLP
	maxObs int
	feat   int
	flat   int
}

// lenetFlat returns the width of LeNet's flattened conv output for a
// maxObs×feat observation, or an error when the two conv/pool stages do
// not fit.
func lenetFlat(maxObs, feat int) (int, error) {
	h1, w1 := maxObs-2, feat-2 // conv1 3×3 valid
	h1p, w1p := h1/2, w1       // pool 2×1
	h2, w2 := h1p-2, w1p-2     // conv2 3×3 valid
	h2p, w2p := h2/2, w2       // pool 2×1
	if h2p <= 0 || w2p <= 0 {
		return 0, fmt.Errorf("nn: LeNet needs a larger observation than %dx%d", maxObs, feat)
	}
	return 8 * h2p * w2p, nil
}

// NewLeNet builds the convolutional baseline. maxObs must be ≥ 12 and feat
// ≥ 7 for the two conv/pool stages to fit; it panics otherwise (NewPolicy
// returns the same condition as an error).
func NewLeNet(rng *rand.Rand, maxObs, feat int) *LeNet {
	flat, err := lenetFlat(maxObs, feat)
	if err != nil {
		panic(err.Error())
	}
	scale1 := 0.5
	return &LeNet{
		w1:     ag.RandParam(rng, scale1, 4, 1, 3, 3),
		b1:     ag.Param(make([]float64, 4), 1, 4),
		w2:     ag.RandParam(rng, scale1/2, 8, 4, 3, 3),
		b2:     ag.Param(make([]float64, 8), 1, 8),
		dense:  NewMLP(rng, []int{flat, 64, maxObs}, ActReLU),
		maxObs: maxObs,
		feat:   feat,
		flat:   flat,
	}
}

// Logits implements PolicyNet.
func (l *LeNet) Logits(obs *ag.Tensor) *ag.Tensor {
	b := checkObs(obs, l.maxObs, l.feat)
	img := ag.Reshape(obs, b, 1, l.maxObs, l.feat)
	c1 := ag.MaxPool2D(ag.ReLU(ag.Conv2D(img, l.w1, l.b1)), 2, 1)
	c2 := ag.MaxPool2D(ag.ReLU(ag.Conv2D(c1, l.w2, l.b2)), 2, 1)
	flat := ag.Reshape(c2, b, l.flat)
	return l.dense.Forward(flat)
}

// Params implements Module.
func (l *LeNet) Params() []*ag.Tensor {
	ps := []*ag.Tensor{l.w1, l.b1, l.w2, l.b2}
	return append(ps, l.dense.Params()...)
}

// Kind implements PolicyNet.
func (l *LeNet) Kind() string { return "lenet" }

// Dims implements PolicyNet.
func (l *LeNet) Dims() (int, int) { return l.maxObs, l.feat }

// ValueNet is the critic (§IV-B2, Fig 6): a plain 3-layer MLP reading the
// whole flattened observation and predicting the expected reward of the
// sequence under the current policy.
type ValueNet struct {
	mlp    *MLP
	maxObs int
	feat   int
}

// DefaultValueSizes are the value network hidden sizes.
var DefaultValueSizes = []int{64, 32}

// NewValueNet builds the critic (nil hidden for defaults).
func NewValueNet(rng *rand.Rand, maxObs, feat int, hidden []int) *ValueNet {
	if hidden == nil {
		hidden = DefaultValueSizes
	}
	sizes := append([]int{maxObs * feat}, hidden...)
	sizes = append(sizes, 1)
	return &ValueNet{mlp: NewMLP(rng, sizes, ActTanh), maxObs: maxObs, feat: feat}
}

// Value returns the scalar prediction per observation: [B,1].
func (v *ValueNet) Value(obs *ag.Tensor) *ag.Tensor {
	checkObs(obs, v.maxObs, v.feat)
	return v.mlp.Forward(obs)
}

// Params implements Module.
func (v *ValueNet) Params() []*ag.Tensor { return v.mlp.Params() }

// NewPolicy constructs a policy network by kind name: "kernel", "mlp-v1",
// "mlp-v2", "mlp-v3", or "lenet".
func NewPolicy(rng *rand.Rand, kind string, maxObs, feat int) (PolicyNet, error) {
	switch kind {
	case "kernel":
		return NewKernelNet(rng, maxObs, feat, nil), nil
	case "mlp-v1", "mlp-v2", "mlp-v3":
		return NewMLPPolicy(rng, maxObs, feat, kind), nil
	case "lenet":
		if _, err := lenetFlat(maxObs, feat); err != nil {
			return nil, err
		}
		return NewLeNet(rng, maxObs, feat), nil
	}
	return nil, fmt.Errorf("nn: unknown policy kind %q", kind)
}

// policyShapes lists, in Params order, the tensor shapes NewPolicy builds
// for kind at maxObs×feat, without building anything (maxObs·feat must not
// overflow). It fails exactly where NewPolicy does.
func policyShapes(kind string, maxObs, feat int) ([][]int, error) {
	switch kind {
	case "kernel":
		return mlpShapes(append(append([]int{feat}, DefaultKernelSizes...), 1)...), nil
	case "mlp-v1", "mlp-v2", "mlp-v3":
		return mlpShapes(append(append([]int{maxObs * feat}, MLPVariants[kind]...), maxObs)...), nil
	case "lenet":
		flat, err := lenetFlat(maxObs, feat)
		if err != nil {
			return nil, err
		}
		conv := [][]int{{4, 1, 3, 3}, {1, 4}, {8, 4, 3, 3}, {1, 8}}
		return append(conv, mlpShapes(flat, 64, maxObs)...), nil
	}
	return nil, fmt.Errorf("nn: unknown policy kind %q", kind)
}

// mlpShapes lists, in Params order, the tensor shapes NewMLP builds for
// sizes: each layer's weights, then its bias.
func mlpShapes(sizes ...int) [][]int {
	var out [][]int
	for i := 0; i+1 < len(sizes); i++ {
		out = append(out, []int{sizes[i], sizes[i+1]}, []int{1, sizes[i+1]})
	}
	return out
}

// PolicyKinds lists the Table IV architectures in comparison order.
var PolicyKinds = []string{"mlp-v1", "mlp-v2", "mlp-v3", "lenet", "kernel"}
