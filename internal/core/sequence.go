package core

import "fmt"

// Sequence is a *complete simple sequence* (§3, Definition "Complete Simple
// Sequence"): the materialized values of a reporting function over raw data
// x_1 … x_n, including the sequence header (positions 1-h … 0) and trailer
// (positions n+1 … n+l) whose windows still touch the raw data.
//
// Positions outside the stored range are defined by the paper's convention
// x_i = 0 for i outside [1, n]:
//
//   - for algebraic aggregates, At returns 0 left of the header and right of
//     the trailer (cumulative sequences stay at the grand total right of n);
//   - for MIN/MAX, windows that contain no raw position are *empty* and
//     AtOK reports false.
type Sequence[T Num] struct {
	Win Window
	Agg Agg
	N   int // cardinality of the raw data

	lo    int    // position of vals[0]
	vals  []T    // stored sequence values
	valid []bool // nil unless Agg is Min or Max (empty-window tracking)
}

// Num is the type of a sequence's values: its column's, int64 for INTEGER
// and COUNT, float64 for FLOAT. int64 arithmetic wraps around, so an
// identity that telescopes (MinOA, MaxOA's compensation, cumulative to
// sliding) is exact whenever its answer fits; an AVG of int64 values is the
// quotient truncated toward zero, so AVG over INTEGER divides a SUM sequence
// by Window.Count at the read.
type Num interface{ int64 | float64 }

// storedRange returns the [lo, hi] positions a complete sequence over n raw
// values materializes for window w.
func storedRange(w Window, n int) (lo, hi int) {
	if w.Cumulative {
		return 0, n // position 0 carries the empty prefix (value 0)
	}
	return 1 - w.Following, n + w.Preceding
}

// Lo returns the first stored position (the head of the header).
func (s *Sequence[T]) Lo() int { return s.lo }

// Hi returns the last stored position (the tail of the trailer).
func (s *Sequence[T]) Hi() int { return s.lo + len(s.vals) - 1 }

// Len returns the number of stored positions.
func (s *Sequence[T]) Len() int { return len(s.vals) }

// At returns the sequence value at position k, extended outside the stored
// range by the zero convention (see the type comment). For MIN/MAX use AtOK
// to distinguish empty windows.
func (s *Sequence[T]) At(k int) T {
	v, _ := s.AtOK(k)
	return v
}

// AtOK returns the sequence value at position k and whether the window at k
// contains at least one raw position.
func (s *Sequence[T]) AtOK(k int) (T, bool) {
	if k >= s.lo && k <= s.Hi() {
		i := k - s.lo
		if s.valid != nil {
			return s.vals[i], s.valid[i]
		}
		return s.vals[i], true
	}
	if s.Win.Cumulative {
		if k < s.lo {
			return 0, s.Agg.Algebraic() // empty prefix
		}
		// Right of n the cumulative value stays at the grand total.
		i := len(s.vals) - 1
		if s.valid != nil {
			return s.vals[i], s.valid[i]
		}
		return s.vals[i], true
	}
	return 0, false // sliding window entirely outside [1, n]
}

// set stores v at position k, which must lie inside the stored range.
func (s *Sequence[T]) set(k int, v T, ok bool) {
	i := k - s.lo
	s.vals[i] = v
	if s.valid != nil {
		s.valid[i] = ok
	}
}

// Values returns a copy of the stored values from Lo to Hi.
func (s *Sequence[T]) Values() []T {
	out := make([]T, len(s.vals))
	copy(out, s.vals)
	return out
}

// Body returns the sequence values at positions 1 … n (header and trailer
// stripped), which is what the reporting function returns to the user.
func (s *Sequence[T]) Body() []T {
	out := make([]T, s.N)
	for k := 1; k <= s.N; k++ {
		out[k-1] = s.At(k)
	}
	return out
}

// newSequence allocates a complete sequence shell for window w over n raw
// values; the values are filled in by the compute functions.
func newSequence[T Num](w Window, agg Agg, n int) *Sequence[T] {
	lo, hi := storedRange(w, n)
	s := &Sequence[T]{Win: w, Agg: agg, N: n, lo: lo, vals: make([]T, hi-lo+1)}
	if agg == Min || agg == Max {
		s.valid = make([]bool, hi-lo+1)
	}
	return s
}

// aggregate applies agg to raw positions [lo, hi] ∩ [1, n].
func aggregate[T Num](raw []T, agg Agg, lo, hi int) (T, bool) {
	if lo, hi = max(lo, 1), min(hi, len(raw)); lo > hi {
		return 0, agg.Algebraic()
	}
	switch agg {
	case Sum, Avg:
		var v T
		for i := lo; i <= hi; i++ {
			v += raw[i-1]
		}
		if agg == Avg {
			v = T(float64(v) / float64(hi-lo+1))
		}
		return v, true
	case Count:
		return T(hi - lo + 1), true
	case Min, Max:
		v := raw[lo-1]
		for i := lo + 1; i <= hi; i++ {
			v = extreme(v, raw[i-1], agg == Min)
		}
		return v, true
	}
	return 0, false
}

// ComputeNaive materializes the complete sequence for window w and aggregate
// agg over raw by evaluating the explicit form at every position — the
// O(n·W) strategy of §2.2 that a relational self-join simulates.
func ComputeNaive[T Num](raw []T, w Window, agg Agg) (*Sequence[T], error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	s := newSequence[T](w, agg, len(raw))
	for k := s.lo; k <= s.Hi(); k++ {
		lo, hi := w.Bounds(k)
		v, ok := aggregate(raw, agg, lo, hi)
		s.set(k, v, ok)
	}
	return s, nil
}

// ComputePipelined materializes the complete sequence in a single pass
// (§2.2): SUM adds the value that enters each window and removes the one
// that leaves it — for a sliding window
//
//	x̃_k = x̃_{k-1} + x_{k+h} − x_{k−l−1}
//
// three operations per position, independent of the window size — and a
// cumulative window only adds. MIN and MAX, which admit no inverse, use a
// monotonic deque and are still O(n) amortized — the kind of "special
// operator" support the paper attributes to engines with native reporting
// functionality. COUNT is the closed form Window.Count, AVG the SUM pass
// divided by it (§2.1). It is a Stream's one-chunk use, so the passes are
// slide.go's kernels, the ones the native window operator runs.
func ComputePipelined[T Num](raw []T, w Window, agg Agg) (*Sequence[T], error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if agg > Max {
		return nil, fmt.Errorf("unknown aggregate %v", agg)
	}
	s := newSequence[T](w, agg, len(raw))
	st := NewStream(w, agg.Stored(), func(c Cell[T]) error {
		s.set(c.Pos, c.Val, true)
		return nil
	})
	st.raw, st.n = raw[:len(raw):len(raw)], len(raw)
	if err := st.Close(); err != nil {
		return nil, err
	}
	if agg == Avg {
		// A window that holds no raw value sums to 0, which stays the quotient.
		for i := range s.vals {
			s.vals[i] = T(float64(s.vals[i]) / float64(max(w.Count(s.lo+i, len(raw)), 1)))
		}
	}
	return s, nil
}

// ceilDiv returns ⌈a/b⌉ for b > 0.
func ceilDiv(a, b int) int {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
