// Package core implements the sequence algebra of Lehner, Hümmer and
// Schlesinger, "Processing Reporting Function Views in a Data Warehouse
// Environment" (ICDE 2002).
//
// A reporting function — an SQL aggregate with an OVER() clause — defines a
// *simple sequence* (S, W, FA) over raw values x_1 … x_n: for every position
// k the sequence value is the aggregate FA applied to the raw values inside
// the window W(k). The paper distinguishes two window shapes:
//
//   - cumulative windows (ROWS UNBOUNDED PRECEDING), where the window at
//     position k is [1, k], and
//   - sliding windows (l, h) (ROWS BETWEEN l PRECEDING AND h FOLLOWING),
//     where the window at position k is [k-l, k+h].
//
// The package provides:
//
//   - computation of complete sequences, naive and pipelined (§2.2),
//   - incremental maintenance of materialized sequences (§2.3),
//   - reconstruction of raw data from materialized sequences (§3),
//   - the MaxOA derivation algorithm, recursive and explicit (§4),
//   - the MinOA derivation algorithm (§5), and
//   - reporting sequences with multi-column ordering and partitioning,
//     including the ordering- and partitioning-reduction lemmas (§6).
//
// A sequence's values are its column's type (Num): int64 for INTEGER and
// COUNT, whose arithmetic wraps around, so every SUM/COUNT identity is exact
// whenever its answer fits; float64 for FLOAT, exact on integer-valued data.
package core

import "fmt"

// Agg identifies the aggregation function FA of a sequence.
type Agg uint8

// The aggregation functions considered by the paper. SUM is the canonical
// case: COUNT is the SUM of an all-ones raw sequence, and AVG is SUM/COUNT.
// MIN and MAX are "semi-algebraic": they can be computed and (with MaxOA)
// derived, but admit no subtraction-based pipelining.
const (
	Sum Agg = iota
	Count
	Avg
	Min
	Max
)

// String returns the SQL name of the aggregate.
func (a Agg) String() string {
	switch a {
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return fmt.Sprintf("Agg(%d)", uint8(a))
	}
}

// ParseAgg is the inverse of String: the aggregate with the given SQL name.
func ParseAgg(name string) (Agg, error) {
	for a := Sum; a <= Max; a++ {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown aggregate %q", name)
}

// Stored is the aggregate whose sequence a materialized view of a holds: SUM
// for AVG, whose reads divide the window sums by the counts the window
// implies (§2.1), else a itself.
func (a Agg) Stored() Agg {
	if a == Avg {
		return Sum
	}
	return a
}

// Algebraic reports whether the aggregate supports subtraction (an inverse),
// which the pipelined computation of sliding windows and the MinOA
// derivation rely on.
func (a Agg) Algebraic() bool { return a == Sum || a == Count || a == Avg }

// Window is the window specification W of a simple sequence.
//
// A cumulative window (Cumulative == true) spans [1, k] at position k; the
// Preceding and Following fields are ignored. A sliding window spans
// [k-Preceding, k+Following] at position k; the paper writes this as the
// pair (l, h).
type Window struct {
	Cumulative bool
	Preceding  int // l: offset of the lower bound, l >= 0
	Following  int // h: offset of the upper bound, h >= 0
}

// Cumul returns the cumulative window specification.
func Cumul() Window { return Window{Cumulative: true} }

// Sliding returns the sliding window specification (l, h).
func Sliding(l, h int) Window { return Window{Preceding: l, Following: h} }

// Validate checks the constraints the paper places on window specs: for
// sliding windows l >= 0, h >= 0 and l+h > 0 (a size-1 window is the raw
// data itself).
func (w Window) Validate() error {
	if w.Cumulative {
		return nil
	}
	if w.Preceding < 0 || w.Following < 0 {
		return fmt.Errorf("sliding window (%d,%d): bounds must be non-negative", w.Preceding, w.Following)
	}
	if w.Preceding+w.Following == 0 {
		return fmt.Errorf("sliding window (0,0): window size 1 is the identity; l+h must be > 0")
	}
	return nil
}

// Size returns the window size W(k) for sliding windows (constant 1+l+h).
// For cumulative windows the size grows with k and Size returns -1.
func (w Window) Size() int {
	if w.Cumulative {
		return -1
	}
	return 1 + w.Preceding + w.Following
}

// Bounds returns the inclusive raw-data positions [lo, hi] covered by the
// window at sequence position k.
func (w Window) Bounds(k int) (lo, hi int) {
	if w.Cumulative {
		return 1, k
	}
	return k - w.Preceding, k + w.Following
}

// Count returns the COUNT a complete sequence over n raw values holds at
// position k: |W(k) ∩ [1, n]|, min(k, n) for a cumulative window. Every
// admitted value counts, so it is a closed form of (k, n, window) — the
// divisor that makes AVG a SUM derivation (§2.1) without a COUNT view.
func (w Window) Count(k, n int) int {
	lo, hi := w.Bounds(k)
	return max(0, min(hi, n)-max(lo, 1)+1)
}

// String renders the window the way the paper writes it.
func (w Window) String() string {
	if w.Cumulative {
		return "cumulative"
	}
	return fmt.Sprintf("(%d,%d)", w.Preceding, w.Following)
}

// Equal reports whether two windows are identical.
func (w Window) Equal(o Window) bool {
	if w.Cumulative != o.Cumulative {
		return false
	}
	if w.Cumulative {
		return true
	}
	return w.Preceding == o.Preceding && w.Following == o.Following
}
