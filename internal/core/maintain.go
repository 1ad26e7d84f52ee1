package core

import (
	"fmt"
	"math"
)

// Maintainer keeps a materialized sequence synchronized with its raw data
// under point updates, inserts and deletes, using the incremental rules of
// §2.3. Every operation touches only the sequence positions whose window
// contains the modified raw position (plus, for insert/delete, the suffix
// shift) — it never recomputes a window aggregate from scratch.
//
// The maintainer owns a copy of the raw data: a data warehouse maintains a
// view against its base table, and §2.3's rules reference both old sequence
// values and raw values.
type Maintainer struct {
	raw []float64
	seq *Sequence

	// exotic counts raw values whose bit pattern the incremental rules cannot
	// reproduce exactly: NaN and ±Inf poison running sums, and −0 creates
	// ties that MIN/MAX band recomputes and pipelined refreshes break
	// differently. While any such value is present, every mutation falls back
	// to a full pipelined recompute, which is bit-identical to REFRESH by
	// construction.
	exotic int

	// Touched counts sequence positions written by incremental maintenance
	// since the last ResetStats — the "locality" the paper argues for.
	Touched int

	// lastFull records whether the most recent mutation took the
	// recomputeAll fallback instead of patching the §2.3 band. Callers that
	// mirror the sequence elsewhere need to know: NaN and Inf poison the
	// pipelined running sums past the band, so the rebuilt sequence can
	// differ at every stored position.
	lastFull bool
}

// FullRecompute reports whether the most recent Update/Insert/Delete rebuilt
// the whole sequence (the exotic-value fallback) rather than patching the
// local band.
func (m *Maintainer) FullRecompute() bool { return m.lastFull }

// exoticVal reports whether v defeats bit-exact incremental maintenance.
func exoticVal(v float64) bool {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return true
	}
	return v == 0 && math.Signbit(v) // −0: compares equal to +0, differs bitwise
}

func countExotic(raw []float64) int {
	n := 0
	for _, v := range raw {
		if exoticVal(v) {
			n++
		}
	}
	return n
}

// NewMaintainer materializes the sequence for w/agg over raw and returns a
// maintainer for it. MIN/MAX sequences are only maintainable in the
// "widening" direction (see Update); the paper's footnote in §2.3 makes the
// same restriction.
func NewMaintainer(raw []float64, w Window, agg Agg) (*Maintainer, error) {
	if agg == Avg {
		return nil, fmt.Errorf("maintain SUM and divide by Window.Count for AVG; AVG alone is not incrementally maintainable")
	}
	seq, err := ComputePipelined(raw, w, agg)
	if err != nil {
		return nil, err
	}
	m := &Maintainer{raw: append([]float64(nil), raw...), seq: seq, exotic: countExotic(raw)}
	return m, nil
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

// recomputeAll rebuilds the whole sequence with the pipelined algorithm —
// the fallback while exotic values (NaN, ±Inf, −0) are present. The result
// is bit-identical to a full refresh, which is exactly the contract
// incremental maintenance must preserve.
func (m *Maintainer) recomputeAll() error {
	seq, err := ComputePipelined(m.raw, m.seq.Win, m.seq.Agg)
	if err != nil {
		return err
	}
	m.seq = seq
	m.Touched += seq.Len()
	m.lastFull = true
	return nil
}

// ResetStats zeroes the Touched counter.
func (m *Maintainer) ResetStats() { m.Touched = 0 }

// affected returns the inclusive range of sequence positions whose window
// contains raw position k, clipped to the stored range.
func (m *Maintainer) affected(k int) (lo, hi int) {
	if m.seq.Win.Cumulative {
		lo, hi = k, m.seq.Hi()
	} else {
		lo, hi = k-m.seq.Win.Following, k+m.seq.Win.Preceding
	}
	if lo < m.seq.Lo() {
		lo = m.seq.Lo()
	}
	if hi > m.seq.Hi() {
		hi = m.seq.Hi()
	}
	return lo, hi
}

// Update changes the raw value at position k (1-based) to v and patches the
// affected sequence values with the §2.3 update rule
//
//	x̃'_i = x̃_i − x_k + x'_k    for k−h ≤ i ≤ k+l,
//
// leaving every other position untouched. For MIN/MAX the rule
// x̃'_i = min(x̃_i, x'_k) applies only when the new value can't *raise* a
// minimum (resp. lower a maximum); otherwise the affected band is
// recomputed — still local, as the paper's footnote concedes.
func (m *Maintainer) Update(k int, v float64) error {
	m.lastFull = false
	if k < 1 || k > len(m.raw) {
		return fmt.Errorf("update position %d out of range [1,%d]", k, len(m.raw))
	}
	old := m.raw[k-1]
	m.raw[k-1] = v
	if exoticVal(old) {
		m.exotic--
	}
	if exoticVal(v) {
		m.exotic++
	}
	// An exotic value anywhere in the raw data — or one leaving right now,
	// whose bits still contaminate the old sequence values the incremental
	// rules difference against — forces the refresh-identical fallback.
	if m.exotic > 0 || exoticVal(old) || exoticVal(v) {
		return m.recomputeAll()
	}
	lo, hi := m.affected(k)
	switch m.seq.Agg {
	case Sum:
		delta := v - old
		for i := lo; i <= hi; i++ {
			m.seq.set(i, m.seq.At(i)+delta, true)
			m.Touched++
		}
	case Count:
		// COUNT is invariant under value updates.
	case Min, Max:
		improves := (m.seq.Agg == Min && v <= old) || (m.seq.Agg == Max && v >= old)
		for i := lo; i <= hi; i++ {
			if improves {
				cur, ok := m.seq.AtOK(i)
				if !ok || (m.seq.Agg == Min && v < cur) || (m.seq.Agg == Max && v > cur) {
					m.seq.set(i, v, true)
				}
			} else {
				wlo, whi := m.seq.Win.Bounds(i)
				nv, ok := aggregate(m.raw, m.seq.Agg, wlo, whi)
				m.seq.set(i, nv, ok)
			}
			m.Touched++
		}
	}
	return nil
}

// Insert inserts raw value v at position k (1-based; existing positions
// k, k+1, … shift right) and patches the sequence with the §2.3 insert rule:
//
//	x̃'_i = x̃_i                      i < k−h      (unchanged)
//	x̃'_i = v + x̃_i − x_{i+h}        k−h ≤ i ≤ k+l (band: window gains v,
//	                                               loses its old last value)
//	x̃'_i = x̃_{i−1}                  i > k+l      (pure shift)
//
// The raw values on the right-hand side are the *pre-insert* ones. The
// sequence grows by one position at each end of its stored range.
func (m *Maintainer) Insert(k int, v float64) error {
	m.lastFull = false
	n := len(m.raw)
	if k < 1 || k > n+1 {
		return fmt.Errorf("insert position %d out of range [1,%d]", k, n+1)
	}
	oldRaw := m.raw
	oldSeq := m.seq
	// Splice the raw data.
	m.raw = make([]float64, 0, n+1)
	m.raw = append(m.raw, oldRaw[:k-1]...)
	m.raw = append(m.raw, v)
	m.raw = append(m.raw, oldRaw[k-1:]...)
	if exoticVal(v) {
		m.exotic++
	}
	if m.exotic > 0 {
		return m.recomputeAll()
	}

	if m.seq.Win.Cumulative {
		// Cumulative insert: prefix unchanged, suffix shifts and gains v.
		ns := newSequence(Cumul(), oldSeq.Agg, n+1)
		for i := 0; i < k; i++ {
			ov, ook := oldSeq.AtOK(i)
			ns.set(i, ov, ook)
		}
		for i := k; i <= n+1; i++ {
			switch oldSeq.Agg {
			case Sum:
				ns.set(i, oldSeq.At(i-1)+v, true)
			case Count:
				ns.set(i, float64(i), true)
			case Min, Max:
				prev, ok := ns.AtOK(i - 1)
				v2, ok2 := combineMinMax(oldSeq.Agg, prev, ok, rawAtNew(m.raw, i))
				ns.set(i, v2, ok2)
			}
			m.Touched++
		}
		m.seq = ns
		return nil
	}

	l, h := oldSeq.Win.Preceding, oldSeq.Win.Following
	ns := newSequence(oldSeq.Win, oldSeq.Agg, n+1)
	for i := ns.Lo(); i <= ns.Hi(); i++ {
		switch {
		case i < k-h:
			ov, ook := oldSeq.AtOK(i)
			ns.set(i, ov, ook)
		case i > k+l:
			ov, ook := oldSeq.AtOK(i - 1)
			ns.set(i, ov, ook)
		default: // band
			m.Touched++
			switch oldSeq.Agg {
			case Sum:
				ns.set(i, v+oldSeq.At(i)-rawAt(oldRaw, i+h), true)
			case Count:
				wlo, whi := ns.Win.Bounds(i)
				cv, cok := aggregate(m.raw, Count, wlo, whi)
				ns.set(i, cv, cok)
			case Min, Max:
				wlo, whi := ns.Win.Bounds(i)
				nv, ok := aggregate(m.raw, oldSeq.Agg, wlo, whi)
				ns.set(i, nv, ok)
			}
		}
	}
	m.seq = ns
	return nil
}

// Delete removes the raw value at position k (1-based) and patches the
// sequence with the §2.3 delete rule:
//
//	x̃'_i = x̃_i                      i < k−h       (unchanged)
//	x̃'_i = x̃_i − x_k + x_{i+h+1}    k−h ≤ i < k+l (band)
//	x̃'_i = x̃_{i+1}                  i ≥ k+l       (pure shift)
//
// with pre-delete raw values on the right.
func (m *Maintainer) Delete(k int) error {
	m.lastFull = false
	n := len(m.raw)
	if k < 1 || k > n {
		return fmt.Errorf("delete position %d out of range [1,%d]", k, n)
	}
	oldRaw := m.raw
	oldSeq := m.seq
	deleted := oldRaw[k-1]
	m.raw = append(append([]float64(nil), oldRaw[:k-1]...), oldRaw[k:]...)
	if exoticVal(deleted) {
		m.exotic--
	}
	if m.exotic > 0 || exoticVal(deleted) {
		return m.recomputeAll()
	}

	if oldSeq.Win.Cumulative {
		ns := newSequence(Cumul(), oldSeq.Agg, n-1)
		for i := 0; i < k; i++ {
			ov, ook := oldSeq.AtOK(i)
			ns.set(i, ov, ook)
		}
		for i := k; i <= n-1; i++ {
			switch oldSeq.Agg {
			case Sum:
				ns.set(i, oldSeq.At(i+1)-deleted, true)
			case Count:
				ns.set(i, float64(i), true)
			case Min, Max:
				v, ok := aggregate(m.raw, oldSeq.Agg, 1, i)
				ns.set(i, v, ok)
			}
			m.Touched++
		}
		m.seq = ns
		return nil
	}

	l, h := oldSeq.Win.Preceding, oldSeq.Win.Following
	ns := newSequence(oldSeq.Win, oldSeq.Agg, n-1)
	for i := ns.Lo(); i <= ns.Hi(); i++ {
		switch {
		case i < k-h:
			ov, ook := oldSeq.AtOK(i)
			ns.set(i, ov, ook)
		case i >= k+l:
			ov, ook := oldSeq.AtOK(i + 1)
			ns.set(i, ov, ook)
		default: // band: k−h ≤ i < k+l
			m.Touched++
			switch oldSeq.Agg {
			case Sum:
				ns.set(i, oldSeq.At(i)-deleted+rawAt(oldRaw, i+h+1), true)
			default:
				wlo, whi := ns.Win.Bounds(i)
				nv, ok := aggregate(m.raw, oldSeq.Agg, wlo, whi)
				ns.set(i, nv, ok)
			}
		}
	}
	m.seq = ns
	return nil
}

// rawAtNew is rawAt against the post-modification raw slice.
func rawAtNew(raw []float64, k int) float64 { return rawAt(raw, k) }

func combineMinMax(agg Agg, prev float64, prevOK bool, cur float64) (float64, bool) {
	if !prevOK {
		return cur, true
	}
	if agg == Min {
		if cur < prev {
			return cur, true
		}
		return prev, true
	}
	if cur > prev {
		return cur, true
	}
	return prev, true
}
