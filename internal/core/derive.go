package core

import (
	"fmt"
	"slices"
)

// This file implements §3–§5 of the paper: answering a reporting-function
// query from a *materialized* reporting-function view without touching the
// raw data. Throughout, x̃ denotes the materialized (source) sequence with
// window (l_x, h_x) and W_x = 1 + l_x + h_x, and ỹ the requested (target)
// sequence with window (l_y, h_y). The coverage factors are Δl = l_y − l_x
// and Δh = h_y − h_x.

// ErrNotDerivable is returned when a derivation's preconditions are not met.
type ErrNotDerivable struct {
	Algo   string
	Source Window
	Target Window
	Reason string
}

func (e *ErrNotDerivable) Error() string {
	return fmt.Sprintf("%s: cannot derive %v from materialized %v: %s",
		e.Algo, e.Target, e.Source, e.Reason)
}

func notDerivable(algo string, src, dst Window, reason string) error {
	return &ErrNotDerivable{Algo: algo, Source: src, Target: dst, Reason: reason}
}

// ---------------------------------------------------------------------------
// §3.1 — materialized cumulative sequences
// ---------------------------------------------------------------------------

// ReconstructRawFromCumulative recovers the raw data values x_1 … x_n from a
// materialized cumulative SUM sequence via x_k = x̃_k − x̃_{k−1} (§3.1,
// Fig. 4 gives the relational mapping).
func ReconstructRawFromCumulative[T Num](s *Sequence[T]) ([]T, error) {
	if !s.Win.Cumulative {
		return nil, notDerivable("raw-from-cumulative", s.Win, Window{}, "source is not cumulative")
	}
	if s.Agg != Sum {
		return nil, notDerivable("raw-from-cumulative", s.Win, Window{}, "only SUM sequences are invertible")
	}
	raw := make([]T, s.N)
	for k := 1; k <= s.N; k++ {
		raw[k-1] = s.At(k) - s.At(k-1)
	}
	return raw, nil
}

// DeriveSlidingFromCumulative derives the sliding-window sequence ỹ = (l, h)
// from a materialized cumulative SUM sequence via
//
//	ỹ_k = x̃_{k+h} − x̃_{k−l−1}
//
// (§3.1, Fig. 5). The formula holds at boundary positions because
// x̃_j = 0 for j ≤ 0 and x̃_j stays at the grand total for j ≥ n.
func DeriveSlidingFromCumulative[T Num](s *Sequence[T], target Window) (*Sequence[T], error) {
	out := newSequence[T](target, s.Agg, s.N)
	if err := s.slab().SlidingFromCumulative(out.vals, out.lo, target); err != nil {
		return nil, err
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// §3.2 — materialized sliding-window sequences
// ---------------------------------------------------------------------------

// ReconstructRawFromSliding recovers the raw data x_1 … x_n from a complete
// materialized sliding-window SUM sequence using the explicit telescoping
// form of §3.2:
//
//	x_k = Σ_{i≥0} ( x̃_{k−h−iW} − x̃_{k−h−1−iW} )
//
// where each difference contributes x_{k−iW} − x_{k−(i+1)W}; the summation
// stops at i_up = ⌈k/W⌉ because beyond that point both sequence positions
// fall left of the header.
func ReconstructRawFromSliding[T Num](s *Sequence[T]) ([]T, error) {
	if s.Win.Cumulative {
		return ReconstructRawFromCumulative(s)
	}
	if s.Agg != Sum && s.Agg != Count {
		return nil, notDerivable("raw-from-sliding", s.Win, Window{}, "only SUM/COUNT sequences are invertible")
	}
	h, w := s.Win.Following, s.Win.Size()
	raw := make([]T, s.N)
	for k := 1; k <= s.N; k++ {
		var v T
		iup := ceilDiv(k, w)
		for i := 0; i <= iup; i++ {
			v += s.At(k-h-i*w) - s.At(k-h-1-i*w)
		}
		raw[k-1] = v
	}
	return raw, nil
}

// ReconstructRawFromSlidingRecursive recovers the raw data using the
// neighbour recursion of §3.2,
//
//	x_k = x̃_{k−h} − x̃_{k−h−1} + x_{k−W}
//
// which needs only O(1) work per position once positions are visited in
// increasing order (the paper's "internal cache" variant).
func ReconstructRawFromSlidingRecursive[T Num](s *Sequence[T]) ([]T, error) {
	if s.Agg != Sum && s.Agg != Count {
		return nil, notDerivable("raw-from-sliding", s.Win, Window{}, "only SUM/COUNT sequences are invertible")
	}
	if s.Win.Cumulative {
		return ReconstructRawFromCumulative(s)
	}
	h, w := s.Win.Following, s.Win.Size()
	raw := make([]T, s.N)
	prior := func(k int) T { // x_{k} for k already computed or ≤ 0
		if k < 1 {
			return 0
		}
		return raw[k-1]
	}
	for k := 1; k <= s.N; k++ {
		raw[k-1] = s.At(k-h) - s.At(k-h-1) + prior(k-w)
	}
	return raw, nil
}

// RangeSum computes Σ_{j=a}^{b} x_j from a complete sliding-window SUM
// sequence without touching raw data, via the prefix-sum telescoping
// C(b) = Σ_{i≥0} x̃_{b−h−iW} (the positive sequence of MinOA): the windows
// of x̃_{b−h}, x̃_{b−h−W}, … tile (−∞, b] exactly once.
func RangeSum[T Num](s *Sequence[T], a, b int) (T, error) {
	if s.Agg != Sum && s.Agg != Count {
		return 0, notDerivable("range-sum", s.Win, Window{}, "requires SUM or COUNT")
	}
	if a > b {
		return 0, nil
	}
	if s.Win.Cumulative {
		return s.At(b) - s.At(a-1), nil
	}
	return prefixFromSliding(s, b) - prefixFromSliding(s, a-1), nil
}

// prefixFromSliding returns C(b) = Σ_{j≤b} x_j from a complete sliding SUM
// sequence.
func prefixFromSliding[T Num](s *Sequence[T], b int) T {
	h, w := s.Win.Following, s.Win.Size()
	var v T
	// Terms vanish once b−h−iW ≤ −h, i.e. i ≥ b/W.
	iup := ceilDiv(b, w)
	for i := 0; i <= iup; i++ {
		v += s.At(b - h - i*w)
	}
	return v
}

// DeriveCumulativeFromSliding materializes the cumulative sequence from a
// complete sliding-window SUM sequence (a corollary of the MinOA positive
// sequence; not spelled out in the paper but implied by §5).
func DeriveCumulativeFromSliding[T Num](s *Sequence[T]) (*Sequence[T], error) {
	if s.Agg != Sum && s.Agg != Count {
		return nil, notDerivable("cumulative-from-sliding", s.Win, Cumul(), "requires SUM or COUNT")
	}
	if s.Win.Cumulative {
		out := newSequence[T](Cumul(), s.Agg, s.N)
		for k := 0; k <= s.N; k++ {
			out.set(k, s.At(k), true)
		}
		return out, nil
	}
	out := newSequence[T](Cumul(), s.Agg, s.N)
	// Incremental: C(k) = C(k-1) + x_k, with x_k reconstructed pipelined.
	raw, err := ReconstructRawFromSlidingRecursive(s)
	if err != nil {
		return nil, err
	}
	var acc T
	out.set(0, 0, true)
	for k := 1; k <= s.N; k++ {
		acc += raw[k-1]
		out.set(k, acc, true)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// §4 — the MaxO ("maximal overlapping") algorithm
// ---------------------------------------------------------------------------

// MaxOAFactors carries the characteristic quantities of a MaxOA derivation:
// the coverage factors Δl, Δh and the overlap factors Δp, Δq (§4.1/§4.2).
// Note Δl + Δp = Δh + Δq = W_x, the source window size, which is why the
// relational pattern of Fig. 10 joins on residues modulo Δl+Δp.
type MaxOAFactors struct {
	DeltaL int // Δl = l_y − l_x
	DeltaH int // Δh = h_y − h_x
	DeltaP int // Δp = 1 + l_x + h_x − Δl
	DeltaQ int // Δq = 1 + l_x + h_x − Δh
	Wx     int // source window size
}

// ComputeMaxOAFactors validates a MaxOA derivation and returns its factors.
// The preconditions follow §4: the target window must extend the source on
// both sides (Δl ≥ 0, Δh ≥ 0), and for the *recursive* compensation-sequence
// form each extension must leave a non-empty overlap (Δl ≤ l_x+h_x and
// Δh ≤ l_x+h_x — the paper's "window size of the query must not be larger
// than twice the window size of the materialized view").
func ComputeMaxOAFactors(src, dst Window) (MaxOAFactors, error) {
	var f MaxOAFactors
	if src.Cumulative || dst.Cumulative {
		return f, notDerivable("MaxOA", src, dst, "windows must be sliding")
	}
	f.DeltaL = dst.Preceding - src.Preceding
	f.DeltaH = dst.Following - src.Following
	f.Wx = src.Size()
	f.DeltaP = f.Wx - f.DeltaL
	f.DeltaQ = f.Wx - f.DeltaH
	if f.DeltaL < 0 || f.DeltaH < 0 {
		return f, notDerivable("MaxOA", src, dst, "target window must contain the source window (Δl ≥ 0, Δh ≥ 0)")
	}
	return f, nil
}

// MaxOA derives the sequence for target from a complete materialized
// sliding-window sequence using the explicit form of the maximal-overlapping
// algorithm (§4.1/§4.2):
//
//	ỹ_k = x̃_k + Σ_{i≥1}( x̃_{k−iW_x} − x̃_{k−Δl−iW_x} )   — left extension
//	          + Σ_{i≥1}( x̃_{k+iW_x} − x̃_{k+Δh+iW_x} )   — right extension
//
// Each left pair telescopes to the raw range [k−l_y, k−l_x−1] and each right
// pair to [k+h_x+1, k+h_y]. The explicit form is valid for every Δl, Δh ≥ 0;
// the 2×-window restriction the paper states is only needed by the recursive
// compensation-sequence form (see MaxOARecursive).
//
// Supported aggregates: SUM and COUNT. For MIN/MAX use MaxOAMinMax; AVG is
// the derived SUM divided by Window.Count (§2.1).
func MaxOA[T Num](src *Sequence[T], target Window) (*Sequence[T], error) {
	if src.Agg != Sum && src.Agg != Count {
		return nil, notDerivable("MaxOA", src.Win, target, fmt.Sprintf("aggregate %v not supported (use MaxOAMinMax for MIN/MAX)", src.Agg))
	}
	if err := target.Validate(); err != nil {
		return nil, err
	}
	f, err := ComputeMaxOAFactors(src.Win, target)
	if err != nil {
		return nil, err
	}
	out := newSequence[T](target, src.Agg, src.N)
	hx, lx, wx := src.Win.Following, src.Win.Preceding, f.Wx
	for k := out.lo; k <= out.Hi(); k++ {
		v := src.At(k)
		// Left extension: terms vanish once k−iW_x ≤ −h_x.
		iupL := ceilDiv(k+hx, wx)
		for i := 1; i <= iupL; i++ {
			v += src.At(k-i*wx) - src.At(k-f.DeltaL-i*wx)
		}
		// Right extension: terms vanish once k+Δh+iW_x > n+l_x (the larger
		// argument) — iterate until the smaller argument passes the trailer.
		iupR := ceilDiv(src.N+lx-k, wx) + 1
		for i := 1; i <= iupR; i++ {
			v += src.At(k+i*wx) - src.At(k+f.DeltaH+i*wx)
		}
		out.set(k, v, true)
	}
	return out, nil
}

// MaxOARecursive derives the target sequence using the paper's recursive
// form with explicit compensation sequences (§4.1, extended to the general
// double-sided case of §4.2); Slab.MaxOA states the recurrences and runs
// them. Requires Δp ≥ 1 and Δq ≥ 1, i.e. the 2×-window precondition of §4.
// Each position costs O(1) sequence lookups: the compensation values of a
// residue class are rolled along one slice — the pipelined execution style
// of §2.2 applied to derivation.
func MaxOARecursive[T Num](src *Sequence[T], target Window) (*Sequence[T], error) {
	if src.Agg != Sum && src.Agg != Count {
		return nil, notDerivable("MaxOA", src.Win, target, "recursive form requires SUM or COUNT")
	}
	out := newSequence[T](target, src.Agg, src.N)
	if err := src.slab().MaxOA(out.vals, out.lo, target); err != nil {
		return nil, err
	}
	return out, nil
}

// MaxOAMinMax derives a MIN or MAX sequence with the maximal-overlapping
// principle (§4.2): because MIN/MAX are idempotent under overlap,
//
//	ỹ_k = min/max( x̃_{k−Δl}, x̃_{k+Δh} )
//
// provided the two shifted source windows cover the target window, which
// requires Δl + Δh ≤ W_x (windows overlap or touch). This is the case MinOA
// cannot handle at all — the paper's argument for MaxOA's broader
// applicability.
func MaxOAMinMax[T Num](src *Sequence[T], target Window) (*Sequence[T], error) {
	if src.Agg != Min && src.Agg != Max {
		return nil, notDerivable("MaxOA-minmax", src.Win, target, "aggregate must be MIN or MAX")
	}
	f, err := minMaxFactors(src.Win, target)
	if err != nil {
		return nil, err
	}
	out := newSequence[T](target, src.Agg, src.N)
	src.slab().minMax(out.vals, out.valid, out.lo, f)
	return out, nil
}

// ---------------------------------------------------------------------------
// §5 — the MinO ("minimal overlapping") algorithm
// ---------------------------------------------------------------------------

// MinOAFactors carries the characteristic quantities of a MinOA derivation.
type MinOAFactors struct {
	DeltaL int // Δl = l_y − l_x (may be negative: MinOA handles any target)
	DeltaH int // Δh = h_y − h_x (may be negative)
	Wx     int // source window size
}

// ComputeMinOAFactors validates a MinOA derivation and returns its factors.
// MinOA places no size restriction on the target window: the positive and
// negative telescoping sequences tile (−∞, k+h_y] and (−∞, k−l_y−1]
// regardless of how the windows relate. The only requirements are sliding
// windows and a subtractable aggregate.
func ComputeMinOAFactors(src, dst Window) (MinOAFactors, error) {
	var f MinOAFactors
	if src.Cumulative || dst.Cumulative {
		return f, notDerivable("MinOA", src, dst, "windows must be sliding")
	}
	f.DeltaL = dst.Preceding - src.Preceding
	f.DeltaH = dst.Following - src.Following
	f.Wx = src.Size()
	return f, nil
}

// MinOA derives the target sequence from a complete materialized sliding
// SUM/COUNT sequence using the minimal-overlapping algorithm (§5):
//
//	ỹ_k = Σ_{i≥0} x̃_{k+Δh−iW_x}  −  Σ_{i≥1} x̃_{k−Δl−iW_x}
//
// The positive sequence's head window is right-justified with ỹ_k's upper
// bound and its left shifts by W_x tile (−∞, k+h_y]; the negative sequence's
// head (at k−Δl−W_x = k−l_y−h_x−1) is right-justified with k−l_y−1 and tiles
// (−∞, k−l_y−1]. Their difference is exactly the window sum. Summations stop
// at i_up = ⌈(k+h_y)/W_x⌉ (positive) as the paper notes, and analogously for
// the negative part.
//
// MIN/MAX are *not* derivable with MinOA — the tiles meet the target window
// only after subtraction, which has no MIN/MAX analogue.
func MinOA[T Num](src *Sequence[T], target Window) (*Sequence[T], error) {
	if src.Agg != Sum && src.Agg != Count {
		return nil, notDerivable("MinOA", src.Win, target, fmt.Sprintf("aggregate %v has no inverse", src.Agg))
	}
	if err := target.Validate(); err != nil {
		return nil, err
	}
	f, err := ComputeMinOAFactors(src.Win, target)
	if err != nil {
		return nil, err
	}
	hx, wx := src.Win.Following, f.Wx
	out := newSequence[T](target, src.Agg, src.N)
	for k := out.lo; k <= out.Hi(); k++ {
		var v T
		// Positive: terms vanish once k+Δh−iW_x ≤ −h_x.
		iupP := ceilDiv(k+f.DeltaH+hx, wx)
		for i := 0; i <= iupP; i++ {
			v += src.At(k + f.DeltaH - i*wx)
		}
		// Negative: terms vanish once k−Δl−iW_x ≤ −h_x.
		iupN := ceilDiv(k-f.DeltaL+hx, wx)
		for i := 1; i <= iupN; i++ {
			v -= src.At(k - f.DeltaL - i*wx)
		}
		out.set(k, v, true)
	}
	return out, nil
}

// MinOARecursive is MinOA in its linear form: one running sum per residue
// class mod W_x serves the positive and the negative chain of every position
// (Slab.MinOA), where the explicit form above re-walks both chains at each.
// Equal to MinOA bit for bit on integer data — the residue corner
// (Δl+Δh) ≡ 0 (mod W_x) included, where the SQL rendering needs MaxOA — it is
// the form Derive and the engine use, and the explicit form stays as the
// paper's statement of the algorithm and the reference the identities tests
// compare against.
func MinOARecursive[T Num](src *Sequence[T], target Window) (*Sequence[T], error) {
	out := newSequence[T](target, src.Agg, src.N)
	if err := src.slab().MinOA(out.vals, out.lo, target); err != nil {
		return nil, err
	}
	return out, nil
}

// Algo names a derivation algorithm: how a stored window is taken to a
// target's.
type Algo string

// The derivation algorithms Algorithm chooses from.
const (
	AlgoExact      Algo = "exact"      // the stored window is the target's
	AlgoCumulative Algo = "cumulative" // sliding from cumulative, §3.1
	AlgoMaxOA      Algo = "MaxOA"      // §4.2's two covering windows, for MIN/MAX
	AlgoMinOA      Algo = "MinOA"      // §5, for SUM/COUNT
)

// Algorithm is the derivation rule: whether a complete sequence of agg over
// the window src answers target, and by which algorithm. An identical window
// is the sequence itself, a cumulative source answers sliding SUM/COUNT
// targets (§3.1), MIN/MAX derive by MaxOA wherever the two shifted source
// windows cover the target (§4.2), and a sliding SUM/COUNT source answers any
// sliding target by MinOA (§5), which has no window-size restriction in its
// linear form. An error — an *ErrNotDerivable for every shape a query can
// take — means no algorithm applies.
//
// Derive runs the Sequence form of the algorithm it names; the engine's view
// matcher asks it of every candidate view, and exec.Derive runs Slab.Derive
// with its answer over the stored rows of the view it chose.
func Algorithm(src Window, agg Agg, target Window) (Algo, error) {
	switch {
	case src.Equal(target):
		return AlgoExact, nil
	case src.Cumulative:
		if agg != Sum && agg != Count {
			return "", notDerivable("sliding-from-cumulative", src, target, "requires SUM or COUNT")
		}
		return AlgoCumulative, targetBounds(target)
	case agg == Min || agg == Max:
		if _, err := minMaxFactors(src, target); err != nil {
			return "", err
		}
		return AlgoMaxOA, nil
	case agg != Sum && agg != Count:
		return "", notDerivable("MinOA", src, target, fmt.Sprintf("aggregate %v has no inverse", agg))
	case target.Cumulative:
		return "", notDerivable("MinOA", src, target, "windows must be sliding")
	default:
		return AlgoMinOA, targetBounds(target)
	}
}

// Derive answers target from src by the algorithm Algorithm names.
func Derive[T Num](src *Sequence[T], target Window) (*Sequence[T], error) {
	algo, err := Algorithm(src.Win, src.Agg, target)
	if err != nil {
		return nil, err
	}
	switch algo {
	case AlgoExact:
		out := *src
		out.vals, out.valid = slices.Clone(src.vals), slices.Clone(src.valid)
		return &out, nil
	case AlgoCumulative:
		return DeriveSlidingFromCumulative(src, target)
	case AlgoMaxOA:
		return MaxOAMinMax(src, target)
	default:
		return MinOARecursive(src, target)
	}
}
