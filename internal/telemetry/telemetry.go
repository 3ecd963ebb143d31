// Package telemetry is the repository's deterministic time-series core:
// named append-only series collected into an exportable Set, and
// log-bucketed windowed histograms with quantile queries. Nothing in the
// package reads a clock — every operation takes an explicit `now`, so the
// series run off the simulation clock inside deterministic fleet runs
// (internal/fleet health sampling). The windowed histogram's remaining
// caller is the system benchmark (bench/), which times its Observe. The
// package is single-writer by design: the fleet sampler is serial, and a
// concurrent user wraps calls in its own lock.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Point is one (time, value) sample of a series. It marshals as the
// two-element array [t, v] so exported artifacts stay compact.
type Point struct {
	// T is the sample instant (simulation or wall-clock seconds).
	T float64
	// V is the sampled value.
	V float64
}

// MarshalJSON renders the point as [t, v].
func (p Point) MarshalJSON() ([]byte, error) {
	return json.Marshal([2]float64{p.T, p.V})
}

// UnmarshalJSON accepts the [t, v] form MarshalJSON produces.
func (p *Point) UnmarshalJSON(b []byte) error {
	var a [2]float64
	if err := json.Unmarshal(b, &a); err != nil {
		return err
	}
	p.T, p.V = a[0], a[1]
	return nil
}

// Series is one named, append-only trajectory of samples.
type Series struct {
	// Name identifies the series (e.g. "cluster.large-256.util").
	Name string `json:"name"`
	// Points are the samples in append order (callers append in
	// non-decreasing time order).
	Points []Point `json:"points"`
}

// Add appends one sample.
func (s *Series) Add(t, v float64) { s.Points = append(s.Points, Point{T: t, V: v}) }

// Last returns the most recent sample (zero Point when empty).
func (s *Series) Last() Point {
	if len(s.Points) == 0 {
		return Point{}
	}
	return s.Points[len(s.Points)-1]
}

// Set is a collection of named series, created on first use and exported
// as a JSON artifact. Series iterate in creation order, which is
// deterministic for deterministic writers.
type Set struct {
	series []*Series
	index  map[string]*Series
}

// NewSet returns an empty collection.
func NewSet() *Set { return &Set{index: map[string]*Series{}} }

// Series returns the named series, creating it on first use.
func (s *Set) Series(name string) *Series {
	if sr, ok := s.index[name]; ok {
		return sr
	}
	sr := &Series{Name: name}
	s.index[name] = sr
	s.series = append(s.series, sr)
	return sr
}

// Get returns the named series or nil (never creates).
func (s *Set) Get(name string) *Series { return s.index[name] }

// All returns the series in creation order (shared slices — read-only use
// intended).
func (s *Set) All() []*Series { return s.series }

// Len reports the number of series.
func (s *Set) Len() int { return len(s.series) }

// Reset drops every series, returning the Set to empty (a sampler resets
// its Set at the start of each run so artifacts cover exactly one run).
func (s *Set) Reset() {
	s.series = s.series[:0]
	for k := range s.index {
		delete(s.index, k)
	}
}

// setJSON is the exported artifact shape.
type setJSON struct {
	Series []*Series `json:"series"`
}

// WriteJSON renders the collection as a compact JSON artifact:
// {"series": [{"name": ..., "points": [[t,v], ...]}, ...]}. Compact on
// purpose — a long run emits tens of thousands of points.
func (s *Set) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(setJSON{Series: s.series})
}

// WriteFile writes the JSON artifact to a file path.
func (s *Set) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("telemetry: write %s: %w", path, err)
	}
	return f.Close()
}

// ReadJSON parses an artifact produced by WriteJSON into a fresh Set
// (round-trip surface for tests and offline tooling).
func ReadJSON(r io.Reader) (*Set, error) {
	var raw setJSON
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return nil, fmt.Errorf("telemetry: parse artifact: %w", err)
	}
	s := NewSet()
	for _, sr := range raw.Series {
		dst := s.Series(sr.Name)
		dst.Points = sr.Points
	}
	return s, nil
}
