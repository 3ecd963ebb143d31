package nn

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
)

// Snapshot is a serializable model state: the architecture identity plus
// every parameter tensor. Policy and value networks snapshot together so a
// trained agent round-trips through one file.
type Snapshot struct {
	// PolicyKind names the policy architecture ("kernel", "mlp-v1", ...).
	PolicyKind string `json:"policy_kind"`
	MaxObs     int    `json:"max_obs"`
	Features   int    `json:"features"`
	// ValueHidden records the critic hidden sizes.
	ValueHidden []int `json:"value_hidden"`
	// Policy and Value hold the flattened parameters in Params() order.
	Policy []ParamBlob `json:"policy"`
	Value  []ParamBlob `json:"value"`
}

// ParamBlob is one tensor's shape and data.
type ParamBlob struct {
	Shape []int     `json:"shape"`
	Data  []float64 `json:"data"`
}

func blobs(m Module) []ParamBlob {
	var out []ParamBlob
	for _, p := range m.Params() {
		out = append(out, ParamBlob{
			Shape: append([]int(nil), p.Shape...),
			Data:  append([]float64(nil), p.Data...),
		})
	}
	return out
}

func restore(m Module, bs []ParamBlob) error {
	ps := m.Params()
	if len(ps) != len(bs) {
		return fmt.Errorf("nn: snapshot has %d tensors, model has %d", len(bs), len(ps))
	}
	for i, p := range ps {
		if len(bs[i].Data) != p.Size() {
			return fmt.Errorf("nn: snapshot tensor %d has %d values, model wants %d",
				i, len(bs[i].Data), p.Size())
		}
		copy(p.Data, bs[i].Data)
	}
	return nil
}

// Snap captures the current weights of a policy/value pair.
func Snap(policy PolicyNet, value *ValueNet, valueHidden []int) *Snapshot {
	maxObs, feat := policy.Dims()
	if valueHidden == nil {
		valueHidden = DefaultValueSizes
	}
	return &Snapshot{
		PolicyKind:  policy.Kind(),
		MaxObs:      maxObs,
		Features:    feat,
		ValueHidden: append([]int{}, valueHidden...), // [] stays [], not null
		Policy:      blobs(policy),
		Value:       blobs(value),
	}
}

// Materialize rebuilds a policy/value pair from the snapshot. The rng only
// seeds construction; weights are overwritten from the snapshot.
func (s *Snapshot) Materialize(rng *rand.Rand) (PolicyNet, *ValueNet, error) {
	policy, err := NewPolicy(rng, s.PolicyKind, s.MaxObs, s.Features)
	if err != nil {
		return nil, nil, err
	}
	value := NewValueNet(rng, s.MaxObs, s.Features, s.ValueHidden)
	if err := restore(policy, s.Policy); err != nil {
		return nil, nil, err
	}
	if err := restore(value, s.Value); err != nil {
		return nil, nil, err
	}
	return policy, value, nil
}

// MaterializePolicy rebuilds only the policy network from the snapshot —
// the serving path has no use for the critic and skips restoring it.
func (s *Snapshot) MaterializePolicy(rng *rand.Rand) (PolicyNet, error) {
	policy, err := NewPolicy(rng, s.PolicyKind, s.MaxObs, s.Features)
	if err != nil {
		return nil, err
	}
	if err := restore(policy, s.Policy); err != nil {
		return nil, err
	}
	return policy, nil
}

// Write encodes the snapshot as JSON.
func (s *Snapshot) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(s)
}

// ReadSnapshot decodes a snapshot from JSON. It refuses dims no network
// can be built with or the file's floats do not back — every blob holds the
// product of its shape, the critic's weights what NewValueNet builds — so a
// malformed model file is an error here, not a panic or an allocation
// without bound in Materialize.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("nn: decode snapshot: %w", err)
	}
	if s.MaxObs <= 0 || s.Features <= 0 {
		return nil, fmt.Errorf("nn: snapshot dims max_obs=%d features=%d must be positive", s.MaxObs, s.Features)
	}
	for _, bs := range [][]ParamBlob{s.Policy, s.Value} {
		for i, b := range bs {
			if n, ok := product(b.Shape...); !ok || n != len(b.Data) {
				return nil, fmt.Errorf("nn: snapshot tensor %d of shape %v holds %d values", i, b.Shape, len(b.Data))
			}
		}
	}
	hidden := s.ValueHidden
	if hidden == nil {
		hidden = DefaultValueSizes
	}
	// Critic layer k is Linear(in, out) — weights, then bias — and layer 0's
	// in is max_obs·features, kept as two factors for product.
	in := []int{s.MaxObs, s.Features}
	for k, out := range append(hidden[:len(hidden):len(hidden)], 1) {
		n, ok := product(append(in, out)...)
		if out <= 0 || !ok || 2*k >= len(s.Value) || len(s.Value[2*k].Data) != n {
			return nil, fmt.Errorf("nn: snapshot value_hidden %v: critic layer %d does not hold %v×%d weights", s.ValueHidden, k, in, out)
		}
		in = []int{out}
	}
	return &s, nil
}

// product multiplies dims; ok is false for a negative dim or an overflow.
func product(dims ...int) (int, bool) {
	n := 1
	for _, d := range dims {
		if d < 0 || d > 0 && n > math.MaxInt/d {
			return 0, false
		}
		n *= d
	}
	return n, true
}

// CopyParams copies weights from src to dst (same architecture). It is
// SyncParams under the historical name.
func CopyParams(dst, src Module) error {
	return SyncParams(dst, src)
}
