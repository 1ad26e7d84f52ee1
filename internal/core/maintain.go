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
type Maintainer[T Num] struct {
	raw []T
	seq *Sequence[T]

	// Touched counts sequence positions written by incremental maintenance
	// since the last ResetStats — the "locality" the paper argues for.
	Touched int
}

// NewMaintainer materializes the sequence for w/agg over raw and returns a
// maintainer for it. MIN/MAX sequences are only maintainable in the
// "widening" direction (see Apply); the paper's footnote in §2.3 makes the
// same restriction.
func NewMaintainer[T Num](raw []T, w Window, agg Agg) (*Maintainer[T], error) {
	if agg == Avg {
		return nil, fmt.Errorf("maintain SUM and divide by Window.Count for AVG; AVG alone is not incrementally maintainable")
	}
	seq, err := ComputePipelined(raw, w, agg)
	if err != nil {
		return nil, err
	}
	return &Maintainer[T]{raw: append([]T(nil), raw...), seq: seq}, nil
}

// Seq returns the maintained sequence. Callers must not mutate it.
func (m *Maintainer[T]) Seq() *Sequence[T] { return m.seq }

// Raw returns a read-only view of the current raw data. The slice aliases
// the maintainer's internal state: callers must not mutate it or hold it
// across maintenance operations (use RawCopy for an owned copy). The hot
// callers only need Len or a transient read, and the old copy-per-call
// behavior dominated maintenance profiles.
func (m *Maintainer[T]) Raw() []T { return m.raw }

// RawCopy returns an owned copy of the current raw data.
func (m *Maintainer[T]) RawCopy() []T {
	return append([]T(nil), m.raw...)
}

// Len returns the raw cardinality n.
func (m *Maintainer[T]) Len() int { return len(m.raw) }

// ResetStats zeroes the Touched counter.
func (m *Maintainer[T]) ResetStats() { m.Touched = 0 }

// apply runs op over the maintainer's sequence once the raw data holds the
// change.
func (m *Maintainer[T]) apply(op Op[T]) error {
	t, err := Apply[T](sliceStore[T]{m}, m.seq.Win, m.seq.Agg, op)
	m.Touched += t
	return err
}

// Update changes the raw value at position k (1-based) to v and patches the
// affected sequence values with the §2.3 update rule
//
//	x̃'_i = x̃_i − x_k + x'_k    for k−h ≤ i ≤ k+l,
//
// leaving every other position untouched.
func (m *Maintainer[T]) Update(k int, v T) error {
	if k < 1 || k > len(m.raw) {
		return fmt.Errorf("update position %d out of range [1,%d]", k, len(m.raw))
	}
	old := m.raw[k-1]
	m.raw[k-1] = v
	return m.apply(Op[T]{Kind: OpUpdate, K: k, Old: old, New: v})
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
func (m *Maintainer[T]) Insert(k int, v T) error {
	if k < 1 || k > len(m.raw)+1 {
		return fmt.Errorf("insert position %d out of range [1,%d]", k, len(m.raw)+1)
	}
	m.raw = append(m.raw[:k-1:k-1], append([]T{v}, m.raw[k-1:]...)...)
	return m.apply(Op[T]{Kind: OpInsert, K: k, New: v, Shift: true})
}

// Delete removes the raw value at position k (1-based) and patches the
// sequence with the §2.3 delete rule:
//
//	x̃'_i = x̃_i                      i < k−h       (unchanged)
//	x̃'_i = x̃_i − x_k + x_{i+h+1}    k−h ≤ i < k+l (band)
//	x̃'_i = x̃_{i+1}                  i ≥ k+l       (pure shift)
func (m *Maintainer[T]) Delete(k int) error {
	if k < 1 || k > len(m.raw) {
		return fmt.Errorf("delete position %d out of range [1,%d]", k, len(m.raw))
	}
	old := m.raw[k-1]
	m.raw = append(m.raw[:k-1:k-1], m.raw[k:]...)
	return m.apply(Op[T]{Kind: OpDelete, K: k, Old: old, Shift: true})
}

// sliceStore is the Store over a Maintainer's sequence and raw slice.
type sliceStore[T Num] struct{ m *Maintainer[T] }

func (s sliceStore[T]) Read(lo, hi int) ([]Cell[T], error) {
	seq := s.m.seq
	var out []Cell[T]
	for k := max(lo, seq.Lo()); k <= min(hi, seq.Hi()); k++ {
		if v, ok := seq.AtOK(k); ok {
			out = append(out, Cell[T]{k, v})
		}
	}
	return out, nil
}

func (s sliceStore[T]) Write(lo, hi int, cells []Cell[T], n int) error {
	old := s.m.seq
	seq := old
	if n >= 0 && n != old.N {
		// The stored range moves with n: copy what the write leaves alone.
		seq = newSequence[T](old.Win, old.Agg, n)
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

func (s sliceStore[T]) Raw(lo, hi int) ([]T, error) { return s.m.raw[lo-1 : hi], nil }
