package core

import "fmt"

// Slab is a complete sequence as a bare slice — what the stored rows of a
// materialized view are once each value is dropped at its position: Vals[i]
// is x̃ at position Lo+i, Lo is the head of the header and Lo+len(Vals)−1 the
// tail of the trailer. Positions outside the slice follow Sequence's zero
// convention (a cumulative slab stays at its last value right of n).
//
// The derivations below are the linear forms of §3–§5: every output position
// costs O(1) slab reads, whatever the windows and the cardinality. They write
// ỹ_from … ỹ_{from+len(out)−1} into out, so a caller takes exactly the
// positions it wants — the engine's Derive operator the body 1…n, the
// Sequence API the target's complete range — and the recurrences live here
// once for both. Derive dispatches on the algorithm Algorithm chose.
type Slab struct {
	Win  Window
	Agg  Agg
	Lo   int
	Vals []float64

	// reads, when set, counts the slab reads a derivation makes: the
	// linearity test's instrument (work, not wall time).
	reads *int
}

// slab views the stored values of s. A MIN/MAX sequence over no raw data
// stores only empty windows, which a slab has no way to mark: it is empty.
func (s *Sequence) slab() Slab {
	x := Slab{Win: s.Win, Agg: s.Agg, Lo: s.lo, Vals: s.vals}
	if s.valid != nil && s.N == 0 {
		x.Vals = nil
	}
	return x
}

func (x Slab) hi() int { return x.Lo + len(x.Vals) - 1 }

// atOK returns x̃_k and whether k is a stored position.
func (x Slab) atOK(k int) (float64, bool) {
	if x.reads != nil {
		*x.reads++
	}
	if i := k - x.Lo; i >= 0 && i < len(x.Vals) {
		return x.Vals[i], true
	}
	return 0, false
}

// at returns x̃_k under the zero convention of sliding sequences.
func (x Slab) at(k int) float64 {
	v, _ := x.atOK(k)
	return v
}

// targetBounds rejects a sliding target no derivation can take. Unlike
// Window.Validate it admits (0,0): a one-row frame is no sequence to
// materialize, but a query may ask for it, and every formula below holds at
// W_y = 1.
func targetBounds(target Window) error {
	if !target.Cumulative && (target.Preceding < 0 || target.Following < 0) {
		return fmt.Errorf("sliding window (%d,%d): bounds must be non-negative", target.Preceding, target.Following)
	}
	return nil
}

// Derive runs algo, Algorithm's answer for this slab's window and target.
func (x Slab) Derive(algo Algo, out []float64, from int, target Window) error {
	switch algo {
	case AlgoExact:
		return x.Exact(out, from, target)
	case AlgoCumulative:
		return x.SlidingFromCumulative(out, from, target)
	case AlgoMaxOA:
		return x.MaxOA(out, from, target)
	case AlgoMinOA:
		return x.MinOA(out, from, target)
	}
	return fmt.Errorf("derive: unknown algorithm %q", algo)
}

// Exact is the identity: the target's window is the slab's own.
func (x Slab) Exact(out []float64, from int, target Window) error {
	if !x.Win.Equal(target) {
		return notDerivable("exact", x.Win, target, "the windows differ")
	}
	for i := range out {
		out[i] = x.at(from + i)
	}
	return nil
}

// SlidingFromCumulative is §3.1's ỹ_k = x̃_{k+h} − x̃_{k−l−1}: the cumulative
// value is 0 left of position 1 and stays at the grand total right of n.
func (x Slab) SlidingFromCumulative(out []float64, from int, target Window) error {
	if !x.Win.Cumulative {
		return notDerivable("sliding-from-cumulative", x.Win, target, "source is not cumulative")
	}
	if x.Agg != Sum && x.Agg != Count {
		return notDerivable("sliding-from-cumulative", x.Win, target, "requires SUM or COUNT")
	}
	if target.Cumulative {
		return notDerivable("sliding-from-cumulative", x.Win, target, "target is not sliding")
	}
	if err := targetBounds(target); err != nil {
		return err
	}
	l, h, n := target.Preceding, target.Following, x.hi()
	for i := range out {
		k := from + i
		out[i] = x.at(min(k+h, n)) - x.at(min(k-l-1, n))
	}
	return nil
}

// MinOA is the minimal-overlapping algorithm (§5) as one running sum per
// residue class: with
//
//	P_j = Σ_{i≥0} x̃_{j−iW_x} = x̃_j + P_{j−W_x}
//
// the positive sequence of ỹ_k is P_{k+Δh} and the negative one P_{k−Δl−W_x},
// so ỹ_k = P_{k+Δh} − P_{k−Δl−W_x}. P_j is the prefix sum of the raw data up
// to j+h_x, read off the view without reconstructing the raw data; it is 0
// left of the header. The explicit form (MinOA) re-walks each chain at every
// position, Θ(n²/W_x) in all; this pass is Θ(n).
func (x Slab) MinOA(out []float64, from int, target Window) error {
	if x.Agg != Sum && x.Agg != Count {
		return notDerivable("MinOA", x.Win, target, fmt.Sprintf("aggregate %v has no inverse", x.Agg))
	}
	if err := targetBounds(target); err != nil {
		return err
	}
	f, err := ComputeMinOAFactors(x.Win, target)
	if err != nil {
		return err
	}
	// The largest index either chain reaches is the positive head of the last
	// position: k−Δl−W_x < k+Δh because W_y = Δl+Δh+W_x > 0.
	top := from + len(out) - 1 + f.DeltaH
	p := make([]float64, max(0, top-x.Lo+1))
	for j := range p {
		p[j] = x.at(x.Lo + j)
		if j >= f.Wx {
			p[j] += p[j-f.Wx]
		}
	}
	chain := func(j int) float64 {
		if j < x.Lo {
			return 0
		}
		return p[j-x.Lo]
	}
	for i := range out {
		k := from + i
		out[i] = chain(k+f.DeltaH) - chain(k-f.DeltaL-f.Wx)
	}
	return nil
}

// MaxOA derives by the maximal-overlapping algorithm (§4). SUM and COUNT use
// the recursive form with explicit compensation sequences (§4.1, both sides
// as in §4.2):
//
//	ỹ_k = x̃_k + (x̃_{k−Δl} − z̃L_k) + (x̃_{k+Δh} − z̃H_k)
//	z̃L_k = x̃_{k−Δl} − x̃_{k−W_x} + z̃L_{k−W_x}
//	z̃H_k = x̃_{k+Δh} − x̃_{k+W_x} + z̃H_{k+W_x}
//
// z̃L is the overlap of the windows of x̃_k and x̃_{k−Δl}, rolled forward along
// each residue class mod W_x = Δl+Δp from where that overlap first touches
// position 1; z̃H mirrors it from the trailer downward with period Δh+Δq.
// Needs Δp ≥ 1 and Δq ≥ 1 (the target at most twice the source window).
// MIN and MAX, idempotent under overlap, need no compensation:
// ỹ_k = min/max(x̃_{k−Δl}, x̃_{k+Δh}) wherever Δl+Δh ≤ W_x.
func (x Slab) MaxOA(out []float64, from int, target Window) error {
	if x.Agg == Min || x.Agg == Max {
		f, err := minMaxFactors(x.Win, target)
		if err != nil {
			return err
		}
		x.minMax(out, nil, from, f)
		return nil
	}
	if x.Agg != Sum && x.Agg != Count {
		return notDerivable("MaxOA", x.Win, target, "recursive form requires SUM or COUNT")
	}
	if err := targetBounds(target); err != nil {
		return err
	}
	f, err := ComputeMaxOAFactors(x.Win, target)
	if err != nil {
		return err
	}
	if f.DeltaL > 0 && f.DeltaP < 1 {
		return notDerivable("MaxOA", x.Win, target, "recursive form needs Δp ≥ 1 (target at most twice the source window)")
	}
	if f.DeltaH > 0 && f.DeltaQ < 1 {
		return notDerivable("MaxOA", x.Win, target, "recursive form needs Δq ≥ 1 (target at most twice the source window)")
	}
	to := from + len(out) - 1
	for i := range out {
		out[i] = x.at(from + i)
	}
	if f.DeltaL > 0 {
		// z̃L covers [k−l_x, k−Δl+h_x]: empty left of first = Lo+Δl.
		first := x.Lo + f.DeltaL
		z := make([]float64, max(0, to-first+1))
		for k := first; k <= to; k++ {
			near := x.at(k - f.DeltaL)
			z[k-first] = near - x.at(k-f.Wx)
			if k-f.Wx >= first {
				z[k-first] += z[k-f.Wx-first]
			}
			if k >= from {
				out[k-from] += near - z[k-first]
			}
		}
	}
	if f.DeltaH > 0 {
		// z̃H covers [k+Δh−l_x, k+h_x]: empty right of last = hi−Δh.
		last := x.hi() - f.DeltaH
		z := make([]float64, max(0, last-from+1))
		for k := last; k >= from; k-- {
			near := x.at(k + f.DeltaH)
			z[k-from] = near - x.at(k+f.Wx)
			if k+f.Wx <= last {
				z[k-from] += z[k+f.Wx-from]
			}
			if k <= to {
				out[k-from] += near - z[k-from]
			}
		}
	}
	return nil
}

// minMaxFactors validates the §4.2 MIN/MAX derivation: the target must
// contain the source window, and the two shifted source windows must cover
// it (Δl+Δh ≤ W_x: they overlap or touch).
func minMaxFactors(src, target Window) (MaxOAFactors, error) {
	if err := targetBounds(target); err != nil {
		return MaxOAFactors{}, err
	}
	f, err := ComputeMaxOAFactors(src, target)
	if err != nil {
		return f, err
	}
	if f.DeltaL+f.DeltaH > f.Wx {
		return f, notDerivable("MaxOA-minmax", src, target,
			fmt.Sprintf("shifted windows do not cover the target (Δl+Δh = %d > W_x = %d)", f.DeltaL+f.DeltaH, f.Wx))
	}
	return f, nil
}

// minMax writes ỹ_k = min/max(x̃_{k−Δl}, x̃_{k+Δh}), in FloatKeys' order
// (a NaN is greatest, −0 is below +0); a side whose window holds
// no raw position drops out, and valid, when given, records whether either
// side was there (over n ≥ 1 raw values one always is, for every k in 1…n).
func (x Slab) minMax(out []float64, valid []bool, from int, f MaxOAFactors) {
	isMin := x.Agg == Min
	for i := range out {
		k := from + i
		a, aok := x.atOK(k - f.DeltaL)
		b, bok := x.atOK(k + f.DeltaH)
		switch {
		case aok && bok:
			out[i] = extreme(a, b, isMin)
		case aok:
			out[i] = a
		default:
			out[i] = b
		}
		if valid != nil {
			valid[i] = aok || bok
		}
	}
}
