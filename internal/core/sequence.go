package core

import (
	"fmt"
	"math"
)

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
type Sequence struct {
	Win Window
	Agg Agg
	N   int // cardinality of the raw data

	lo    int       // position of vals[0]
	vals  []float64 // stored sequence values
	valid []bool    // nil unless Agg is Min or Max (empty-window tracking)
}

// storedRange returns the [lo, hi] positions a complete sequence over n raw
// values materializes for window w.
func storedRange(w Window, n int) (lo, hi int) {
	if w.Cumulative {
		return 0, n // position 0 carries the empty prefix (value 0)
	}
	return 1 - w.Following, n + w.Preceding
}

// Lo returns the first stored position (the head of the header).
func (s *Sequence) Lo() int { return s.lo }

// Hi returns the last stored position (the tail of the trailer).
func (s *Sequence) Hi() int { return s.lo + len(s.vals) - 1 }

// Len returns the number of stored positions.
func (s *Sequence) Len() int { return len(s.vals) }

// At returns the sequence value at position k, extended outside the stored
// range by the zero convention (see the type comment). For MIN/MAX use AtOK
// to distinguish empty windows.
func (s *Sequence) At(k int) float64 {
	v, _ := s.AtOK(k)
	return v
}

// AtOK returns the sequence value at position k and whether the window at k
// contains at least one raw position.
func (s *Sequence) AtOK(k int) (float64, bool) {
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
func (s *Sequence) set(k int, v float64, ok bool) {
	i := k - s.lo
	s.vals[i] = v
	if s.valid != nil {
		s.valid[i] = ok
	}
}

// Values returns a copy of the stored values from Lo to Hi.
func (s *Sequence) Values() []float64 {
	out := make([]float64, len(s.vals))
	copy(out, s.vals)
	return out
}

// Body returns the sequence values at positions 1 … n (header and trailer
// stripped), which is what the reporting function returns to the user.
func (s *Sequence) Body() []float64 {
	out := make([]float64, s.N)
	for k := 1; k <= s.N; k++ {
		out[k-1] = s.At(k)
	}
	return out
}

// newSequence allocates a complete sequence shell for window w over n raw
// values; the values are filled in by the compute functions.
func newSequence(w Window, agg Agg, n int) *Sequence {
	lo, hi := storedRange(w, n)
	s := &Sequence{Win: w, Agg: agg, N: n, lo: lo, vals: make([]float64, hi-lo+1)}
	if agg == Min || agg == Max {
		s.valid = make([]bool, hi-lo+1)
	}
	return s
}

// rawAt returns x_k under the zero-extension convention.
func rawAt(raw []float64, k int) float64 {
	if k < 1 || k > len(raw) {
		return 0
	}
	return raw[k-1]
}

// aggregate applies agg to raw positions [lo, hi] ∩ [1, n].
func aggregate(raw []float64, agg Agg, lo, hi int) (float64, bool) {
	if lo < 1 {
		lo = 1
	}
	if hi > len(raw) {
		hi = len(raw)
	}
	if lo > hi {
		if agg.Algebraic() {
			return 0, true
		}
		return 0, false
	}
	switch agg {
	case Sum:
		v := 0.0
		for i := lo; i <= hi; i++ {
			v += raw[i-1]
		}
		return v, true
	case Count:
		return float64(hi - lo + 1), true
	case Avg:
		v := 0.0
		for i := lo; i <= hi; i++ {
			v += raw[i-1]
		}
		return v / float64(hi-lo+1), true
	case Min:
		v := math.Inf(1)
		for i := lo; i <= hi; i++ {
			if raw[i-1] < v {
				v = raw[i-1]
			}
		}
		return v, true
	case Max:
		v := math.Inf(-1)
		for i := lo; i <= hi; i++ {
			if raw[i-1] > v {
				v = raw[i-1]
			}
		}
		return v, true
	}
	return 0, false
}

// ComputeNaive materializes the complete sequence for window w and aggregate
// agg over raw by evaluating the explicit form at every position — the
// O(n·W) strategy of §2.2 that a relational self-join simulates.
func ComputeNaive(raw []float64, w Window, agg Agg) (*Sequence, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	s := newSequence(w, agg, len(raw))
	for k := s.lo; k <= s.Hi(); k++ {
		lo, hi := w.Bounds(k)
		v, ok := aggregate(raw, agg, lo, hi)
		s.set(k, v, ok)
	}
	return s, nil
}

// ComputePipelined materializes the complete sequence in a single pass
// (§2.2): cumulative sequences use x̃_k = x̃_{k-1} + x_k; sliding SUM/COUNT
// sequences use the neighbour relationship
//
//	x̃_k = x̃_{k-1} + x_{k+h} − x_{k−l−1}
//
// (three operations per position, independent of the window size, with a
// cache of W+2 values). MIN and MAX, which admit no inverse, use a monotonic
// queue and are still O(n) amortized — the kind of "special operator"
// support the paper attributes to engines with native reporting
// functionality.
func ComputePipelined(raw []float64, w Window, agg Agg) (*Sequence, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if agg > Max {
		return nil, fmt.Errorf("unknown aggregate %v", agg)
	}
	s := newSequence(w, agg, len(raw))
	from := s.lo
	if w.Cumulative {
		s.set(0, 0, agg.Algebraic()) // the empty prefix
		from = 1
	}
	x := func(k int) float64 { return rawAt(raw, k) }
	emit := s.set
	if agg == Avg {
		// AVG is SUM/COUNT (§2.1): the SUM pass divided by the counts. A
		// window that holds no raw value sums to 0, which stays the quotient.
		agg, emit = Sum, func(k int, v float64, ok bool) { s.set(k, v/float64(max(w.Count(k, len(raw)), 1)), ok) }
	}
	pipeline(x, len(raw), w, agg, 0, from, s.Hi(), emit)
	return s, nil
}

// pipeline emits positions from…to of the complete sequence over the raw
// values x(1…n) (zero outside) in one pass: the pipelined recursions of
// §2.2, continued from prev, the stored value at from−1 — unused where the
// pass starts a recursion afresh, at the first stored position of a sliding
// window. Maintenance resumes it mid-sequence, so its recomputes are the
// values a refresh computes, NaN poisoning and signed zeros included.
func pipeline(x func(int) float64, n int, w Window, agg Agg, prev float64, from, to int, emit func(k int, v float64, ok bool)) {
	l, h := w.Preceding, w.Following
	switch {
	case agg == Count:
		for k := from; k <= to; k++ {
			emit(k, float64(w.Count(k, n)), true)
		}
	case agg == Min || agg == Max:
		if !w.Cumulative {
			monotonic(x, n, w, agg, from, to, emit)
			break
		}
		best := math.Inf(1)
		if agg == Max {
			best = math.Inf(-1)
		}
		if from > 1 {
			best = prev
		}
		for k := from; k <= to; k++ {
			if v := x(k); agg == Min && v < best || agg == Max && v > best {
				best = v
			}
			emit(k, best, true)
		}
	case w.Cumulative: // Sum
		acc := prev
		for k := from; k <= to; k++ {
			acc += x(k)
			emit(k, acc, true)
		}
	default: // sliding Sum: x̃_k = x̃_{k−1} + x_{k+h} − x_{k−l−1}
		acc := 0.0
		if from == 1-h { // the first stored position seeds the recursion
			for j := from - l; j <= from+h; j++ {
				acc += x(j)
			}
		} else {
			acc = prev + (x(from+h) - x(from-l-1))
		}
		for k := from; k <= to; k++ {
			if k > from {
				acc += x(k+h) - x(k-l-1)
			}
			emit(k, acc, true)
		}
	}
}

// monotonic emits the sliding MIN/MAX of positions from…to over the raw
// values x(1…n). The deque holds only positions of the current window and
// what it holds there depends on those values alone, so starting anywhere
// yields the values a pass from the first position would — NaN and signed
// zeros included.
func monotonic(x func(int) float64, n int, w Window, agg Agg, from, to int, emit func(k int, v float64, ok bool)) {
	l, h := w.Preceding, w.Following
	better := func(a, b float64) bool {
		if agg == Min {
			return a <= b
		}
		return a >= b
	}
	type entry struct {
		pos int
		val float64
	}
	var dq []entry
	next := max(1, from-l) // next raw position to admit
	for k := from; k <= to; k++ {
		winLo, winHi := k-l, k+h
		for next <= n && next <= winHi {
			v := x(next)
			for len(dq) > 0 && better(v, dq[len(dq)-1].val) {
				dq = dq[:len(dq)-1]
			}
			dq = append(dq, entry{next, v})
			next++
		}
		for len(dq) > 0 && dq[0].pos < winLo {
			dq = dq[1:]
		}
		if len(dq) == 0 {
			emit(k, 0, false)
		} else {
			emit(k, dq[0].val, true)
		}
	}
}

// EqualSeq reports whether two sequences carry identical values (within eps)
// and validity over the union of their stored ranges. It is the workhorse of
// the derivation property tests.
func EqualSeq(a, b *Sequence, eps float64) bool {
	if a.N != b.N {
		return false
	}
	lo := min(a.lo, b.lo)
	hi := max(a.Hi(), b.Hi())
	for k := lo; k <= hi; k++ {
		av, aok := a.AtOK(k)
		bv, bok := b.AtOK(k)
		if aok != bok {
			return false
		}
		if aok && math.Abs(av-bv) > eps {
			return false
		}
	}
	return true
}

// ceilDiv returns ⌈a/b⌉ for b > 0.
func ceilDiv(a, b int) int {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
