package nn

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzReadSnapshot: whatever ReadSnapshot accepts, Materialize builds —
// ReadSnapshot is the whole validation of a model file, so /reload can
// never accept a file that then fails, panics or allocates past what the
// file itself backs. Seeds are Snap of every architecture at small dims,
// weights zeroed so the seeds stay short.
func FuzzReadSnapshot(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, kind := range PolicyKinds {
		p, err := NewPolicy(rng, kind, 10, 5)
		if err != nil {
			f.Fatal(err)
		}
		s := Snap(p, NewValueNet(rng, 10, 5, []int{4}), []int{4})
		for _, b := range append(s.Policy, s.Value...) {
			clear(b.Data)
		}
		var buf bytes.Buffer
		if err := s.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, _, err := s.Materialize(rand.New(rand.NewSource(0))); err != nil {
			t.Fatalf("ReadSnapshot accepted a snapshot Materialize refuses: %v", err)
		}
	})
}
