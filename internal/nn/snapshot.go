package nn

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
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
// can be built with, and blobs that differ in count or shape from what
// NewPolicy and NewValueNet build or that the file's floats do not fill.
// Every tensor Materialize allocates is then backed by the file itself, so
// a malformed model file is an error here, not a panic or an allocation
// without bound in Materialize.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("nn: decode snapshot: %w", err)
	}
	in, ok := product(s.MaxObs, s.Features)
	if s.MaxObs <= 0 || s.Features <= 0 || !ok {
		return nil, fmt.Errorf("nn: snapshot dims max_obs=%d features=%d must be positive with a product that fits an int", s.MaxObs, s.Features)
	}
	hidden := s.ValueHidden
	if hidden == nil {
		hidden = DefaultValueSizes
	}
	for _, h := range hidden {
		if h <= 0 {
			return nil, fmt.Errorf("nn: snapshot value_hidden %v must be positive", s.ValueHidden)
		}
	}
	policy, err := policyShapes(s.PolicyKind, s.MaxObs, s.Features)
	if err != nil {
		return nil, err
	}
	if err := checkBlobs("policy", s.Policy, policy); err != nil {
		return nil, err
	}
	sizes := append(append([]int{in}, hidden...), 1)
	if err := checkBlobs("value", s.Value, mlpShapes(sizes...)); err != nil {
		return nil, err
	}
	return &s, nil
}

// checkBlobs refuses blobs that differ in count or shape from want, or
// whose data does not fill its shape.
func checkBlobs(net string, bs []ParamBlob, want [][]int) error {
	if len(bs) != len(want) {
		return fmt.Errorf("nn: snapshot %s has %d tensors, model has %d", net, len(bs), len(want))
	}
	for i, b := range bs {
		if !slices.Equal(b.Shape, want[i]) {
			return fmt.Errorf("nn: snapshot %s tensor %d has shape %v, model wants %v", net, i, b.Shape, want[i])
		}
		if n, ok := product(b.Shape...); !ok || n != len(b.Data) {
			return fmt.Errorf("nn: snapshot %s tensor %d of shape %v holds %d values", net, i, b.Shape, len(b.Data))
		}
	}
	return nil
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
