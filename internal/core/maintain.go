package core

import "fmt"

// Maintainer keeps a materialized sequence synchronized with its raw data
// under point updates and positional inserts and deletes: the slice-backed
// Store of the §2.3 rules (store.go). Every operation touches only the
// sequence positions whose window contains the modified raw position (plus,
// for insert/delete, the suffix shift).
//
// The maintainer owns a copy of the raw data: a data warehouse maintains a
// view against its base table, and §2.3's rules reference both old sequence
// values and raw values.
type Maintainer struct {
	raw []float64
	seq *Sequence

	// Touched counts sequence positions written by incremental maintenance
	// since the last ResetStats — the "locality" the paper argues for.
	Touched int
}

// NewMaintainer materializes the sequence for w/agg over raw and returns a
// maintainer for it. MIN/MAX sequences are only maintainable in the
// "widening" direction (see Apply); the paper's footnote in §2.3 makes the
// same restriction.
func NewMaintainer(raw []float64, w Window, agg Agg) (*Maintainer, error) {
	if agg == Avg {
		return nil, fmt.Errorf("maintain SUM and divide by Window.Count for AVG; AVG alone is not incrementally maintainable")
	}
	seq, err := ComputePipelined(raw, w, agg)
	if err != nil {
		return nil, err
	}
	return &Maintainer{raw: append([]float64(nil), raw...), seq: seq}, nil
}

// Seq returns the maintained sequence. Callers must not mutate it.
func (m *Maintainer) Seq() *Sequence { return m.seq }

// Raw returns a read-only view of the current raw data. The slice aliases
// the maintainer's internal state: callers must not mutate it or hold it
// across maintenance operations (use RawCopy for an owned copy). The hot
// callers only need Len or a transient read, and the old copy-per-call
// behavior dominated maintenance profiles.
func (m *Maintainer) Raw() []float64 { return m.raw }

// RawCopy returns an owned copy of the current raw data.
func (m *Maintainer) RawCopy() []float64 {
	return append([]float64(nil), m.raw...)
}

// Len returns the raw cardinality n.
func (m *Maintainer) Len() int { return len(m.raw) }

// ResetStats zeroes the Touched counter.
func (m *Maintainer) ResetStats() { m.Touched = 0 }

// apply runs op over the maintainer's sequence once the raw data holds the
// change.
func (m *Maintainer) apply(op Op) error {
	t, err := Apply(sliceStore{m}, m.seq.Win, m.seq.Agg, op)
	m.Touched += t
	return err
}

// Update changes the raw value at position k (1-based) to v and patches the
// affected sequence values with the §2.3 update rule
//
//	x̃'_i = x̃_i − x_k + x'_k    for k−h ≤ i ≤ k+l,
//
// leaving every other position untouched.
func (m *Maintainer) Update(k int, v float64) error {
	if k < 1 || k > len(m.raw) {
		return fmt.Errorf("update position %d out of range [1,%d]", k, len(m.raw))
	}
	old := m.raw[k-1]
	m.raw[k-1] = v
	return m.apply(Op{Kind: OpUpdate, K: k, Old: old, New: v})
}

// Insert inserts raw value v at position k (1-based; existing positions
// k, k+1, … shift right) and patches the sequence with the §2.3 insert rule:
//
//	x̃'_i = x̃_i                      i < k−h      (unchanged)
//	x̃'_i = v + x̃_i − x_{i+h}        k−h ≤ i ≤ k+l (band: window gains v,
//	                                               loses its old last value)
//	x̃'_i = x̃_{i−1}                  i > k+l      (pure shift)
//
// The sequence grows by one position at its trailer.
func (m *Maintainer) Insert(k int, v float64) error {
	if k < 1 || k > len(m.raw)+1 {
		return fmt.Errorf("insert position %d out of range [1,%d]", k, len(m.raw)+1)
	}
	m.raw = append(m.raw[:k-1:k-1], append([]float64{v}, m.raw[k-1:]...)...)
	return m.apply(Op{Kind: OpInsert, K: k, New: v, Shift: true})
}

// Delete removes the raw value at position k (1-based) and patches the
// sequence with the §2.3 delete rule:
//
//	x̃'_i = x̃_i                      i < k−h       (unchanged)
//	x̃'_i = x̃_i − x_k + x_{i+h+1}    k−h ≤ i < k+l (band)
//	x̃'_i = x̃_{i+1}                  i ≥ k+l       (pure shift)
func (m *Maintainer) Delete(k int) error {
	if k < 1 || k > len(m.raw) {
		return fmt.Errorf("delete position %d out of range [1,%d]", k, len(m.raw))
	}
	old := m.raw[k-1]
	m.raw = append(m.raw[:k-1:k-1], m.raw[k:]...)
	return m.apply(Op{Kind: OpDelete, K: k, Old: old, Shift: true})
}

// sliceStore is the Store over a Maintainer's sequence and raw slice.
type sliceStore struct{ m *Maintainer }

func (s sliceStore) Read(lo, hi int) ([]Cell, error) {
	seq := s.m.seq
	var out []Cell
	for k := max(lo, seq.Lo()); k <= min(hi, seq.Hi()); k++ {
		if v, ok := seq.AtOK(k); ok {
			out = append(out, Cell{k, v})
		}
	}
	return out, nil
}

func (s sliceStore) Write(lo, hi int, cells []Cell, n int) error {
	old := s.m.seq
	seq := old
	if n >= 0 && n != old.N {
		// The stored range moves with n: copy what the write leaves alone.
		seq = newSequence(old.Win, old.Agg, n)
		for k := seq.Lo(); k <= seq.Hi(); k++ {
			if k < lo || k > hi {
				v, ok := old.AtOK(k)
				seq.set(k, v, ok)
			}
		}
	}
	for k := max(lo, seq.Lo()); k <= min(hi, seq.Hi()); k++ {
		seq.set(k, 0, false)
	}
	for _, c := range cells {
		seq.set(c.Pos, c.Val, true)
	}
	s.m.seq = seq
	return nil
}

func (s sliceStore) Raw(lo, hi int) ([]float64, error) { return s.m.raw[lo-1 : hi], nil }
