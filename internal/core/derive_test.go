package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// §3.1 — raw data from a cumulative view: x_k = x̃_k − x̃_{k−1}.
func TestReconstructRawFromCumulative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		raw := randRaw(rng, 1+rng.Intn(50))
		s, err := ComputePipelined(raw, Cumul(), Sum)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReconstructRawFromCumulative(s)
		if err != nil {
			t.Fatal(err)
		}
		for i := range raw {
			if math.Abs(got[i]-raw[i]) > 1e-9 {
				t.Fatalf("trial %d: raw[%d] = %v, want %v", trial, i, got[i], raw[i])
			}
		}
	}
}

func TestReconstructRawFromCumulativeErrors(t *testing.T) {
	s, _ := ComputeNaive([]float64{1, 2}, Sliding(1, 1), Sum)
	if _, err := ReconstructRawFromCumulative(s); err == nil {
		t.Error("expected error for non-cumulative source")
	}
	s, _ = ComputeNaive([]float64{1, 2}, Cumul(), Min)
	if _, err := ReconstructRawFromCumulative(s); err == nil {
		t.Error("expected error for MIN source")
	}
	var nd *ErrNotDerivable
	_, err := ReconstructRawFromCumulative(s)
	if !errors.As(err, &nd) {
		t.Errorf("error should be ErrNotDerivable, got %T", err)
	}
}

// §3.1 Fig. 5 — sliding window from a cumulative view: ỹ_k = x̃_{k+h} − x̃_{k−l−1}.
func TestDeriveSlidingFromCumulative(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		raw := randRaw(rng, 1+rng.Intn(50))
		cum, err := ComputePipelined(raw, Cumul(), Sum)
		if err != nil {
			t.Fatal(err)
		}
		l, h := rng.Intn(4), rng.Intn(4)
		if l+h == 0 {
			l = 2
		}
		got, err := DeriveSlidingFromCumulative(cum, Sliding(l, h))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ComputeNaive(raw, Sliding(l, h), Sum)
		if err != nil {
			t.Fatal(err)
		}
		if !EqualSeq(got, want, 1e-9) {
			t.Fatalf("trial %d: derived (l=%d,h=%d) sequence mismatch", trial, l, h)
		}
	}
}

// The paper's Fig. 5 instance: ỹ = (2,1) from cumulative, ỹ_k = x̃_{k+1} − x̃_{k−3}.
func TestFig5Instance(t *testing.T) {
	raw := []float64{2, 4, 8, 16, 32, 64}
	cum, _ := ComputePipelined(raw, Cumul(), Sum)
	y, err := DeriveSlidingFromCumulative(cum, Sliding(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	for k := y.Lo(); k <= y.Hi(); k++ {
		want := cum.At(k+1) - cum.At(k-3)
		if math.Abs(y.At(k)-want) > 1e-9 {
			t.Fatalf("k=%d: %v != x̃_{k+1}−x̃_{k−3} = %v", k, y.At(k), want)
		}
	}
}

// §3.2 — raw data from a sliding view, explicit and recursive forms.
func TestReconstructRawFromSliding(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(60)
		l, h := rng.Intn(4), rng.Intn(4)
		if l+h == 0 {
			h = 1
		}
		raw := randRaw(rng, n)
		s, err := ComputePipelined(raw, Sliding(l, h), Sum)
		if err != nil {
			t.Fatal(err)
		}
		explicit, err := ReconstructRawFromSliding(s)
		if err != nil {
			t.Fatal(err)
		}
		recursive, err := ReconstructRawFromSlidingRecursive(s)
		if err != nil {
			t.Fatal(err)
		}
		for i := range raw {
			if math.Abs(explicit[i]-raw[i]) > 1e-9 {
				t.Fatalf("trial %d (l=%d,h=%d,n=%d): explicit raw[%d]=%v want %v", trial, l, h, n, i, explicit[i], raw[i])
			}
			if math.Abs(recursive[i]-raw[i]) > 1e-9 {
				t.Fatalf("trial %d (l=%d,h=%d,n=%d): recursive raw[%d]=%v want %v", trial, l, h, n, i, recursive[i], raw[i])
			}
		}
	}
}

func TestReconstructRawFromSlidingCumulativeFallthrough(t *testing.T) {
	raw := []float64{1, 2, 3}
	s, _ := ComputePipelined(raw, Cumul(), Sum)
	got, err := ReconstructRawFromSliding(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		if got[i] != raw[i] {
			t.Fatalf("raw[%d]=%v want %v", i, got[i], raw[i])
		}
	}
}

// RangeSum — the MinOA positive-sequence telescoping.
func TestRangeSum(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(50)
		l, h := rng.Intn(4), rng.Intn(4)
		if l+h == 0 {
			l = 1
		}
		raw := randRaw(rng, n)
		s, err := ComputePipelined(raw, Sliding(l, h), Sum)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 10; rep++ {
			a := rng.Intn(n+10) - 5
			b := a + rng.Intn(n)
			want := 0.0
			for j := a; j <= b; j++ {
				want += rawAt(raw, j)
			}
			got, err := RangeSum(s, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("RangeSum(%d,%d) = %v, want %v (l=%d h=%d n=%d)", a, b, got, want, l, h, n)
			}
		}
	}
	// Empty range and cumulative source.
	s, _ := ComputePipelined([]float64{1, 2, 3}, Cumul(), Sum)
	if v, _ := RangeSum(s, 5, 2); v != 0 {
		t.Error("empty range should sum to 0")
	}
	if v, _ := RangeSum(s, 2, 3); v != 5 {
		t.Errorf("cumulative RangeSum(2,3) = %v, want 5", v)
	}
}

func TestDeriveCumulativeFromSliding(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		raw := randRaw(rng, 1+rng.Intn(40))
		s, _ := ComputePipelined(raw, Sliding(2, 1), Sum)
		got, err := DeriveCumulativeFromSliding(s)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ComputePipelined(raw, Cumul(), Sum)
		if !EqualSeq(got, want, 1e-9) {
			t.Fatalf("trial %d: cumulative-from-sliding mismatch", trial)
		}
	}
}

// ---------------------------------------------------------------------------
// MaxOA
// ---------------------------------------------------------------------------

func TestMaxOAFactors(t *testing.T) {
	f, err := ComputeMaxOAFactors(Sliding(2, 1), Sliding(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	// The paper's running example: Δl = 1, Δp = 1+l_x+h−Δl = 3, Δl+Δp = W_x = 4.
	if f.DeltaL != 1 || f.DeltaP != 3 || f.Wx != 4 || f.DeltaH != 0 || f.DeltaQ != 4 {
		t.Fatalf("factors = %+v", f)
	}
	if _, err := ComputeMaxOAFactors(Sliding(3, 1), Sliding(2, 1)); err == nil {
		t.Error("Δl < 0 must be rejected")
	}
	if _, err := ComputeMaxOAFactors(Cumul(), Sliding(2, 1)); err == nil {
		t.Error("cumulative source must be rejected")
	}
}

// TestFig6Derivation reproduces the worked example of §3.2/Fig. 6:
// deriving ỹ=(3,1) from x̃=(2,1). The figure lists the first eleven output
// values in terms of x̃; we check the actual sequence values agree with a
// direct computation, and spot-check the pattern ỹ_9 = x̃_9+x̃_5−x̃_4+x̃_1−x̃_0.
func TestFig6Derivation(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	raw := randRaw(rng, 12)
	x, err := ComputePipelined(raw, Sliding(2, 1), Sum)
	if err != nil {
		t.Fatal(err)
	}
	y, err := MaxOA(x, Sliding(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ComputeNaive(raw, Sliding(3, 1), Sum)
	if !EqualSeq(y, want, 1e-9) {
		t.Fatal("MaxOA (3,1) from (2,1) mismatch")
	}
	// Fig. 6's explicit row for position 9.
	fig9 := x.At(9) + x.At(5) - x.At(4) + x.At(1) - x.At(0)
	if math.Abs(y.At(9)-fig9) > 1e-9 {
		t.Fatalf("ỹ_9 = %v, Fig. 6 pattern gives %v", y.At(9), fig9)
	}
	// And position 4: ỹ_4 = x̃_4 + x̃_0.
	if math.Abs(y.At(4)-(x.At(4)+x.At(0))) > 1e-9 {
		t.Fatalf("ỹ_4 = %v, want x̃_4+x̃_0 = %v", y.At(4), x.At(4)+x.At(0))
	}
}

// TestMaxOAExplicit sweeps windows: the explicit form must agree with naive
// recomputation for every Δl, Δh ≥ 0 (including beyond the paper's 2× bound).
func TestMaxOAExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(50)
		lx, hx := rng.Intn(3), rng.Intn(3)
		if lx+hx == 0 {
			lx = 1
		}
		ly := lx + rng.Intn(8)
		hy := hx + rng.Intn(8)
		if ly+hy == 0 {
			hy = 1
		}
		raw := randRaw(rng, n)
		x, err := ComputePipelined(raw, Sliding(lx, hx), Sum)
		if err != nil {
			t.Fatal(err)
		}
		y, err := MaxOA(x, Sliding(ly, hy))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ComputeNaive(raw, Sliding(ly, hy), Sum)
		if !EqualSeq(y, want, 1e-9) {
			t.Fatalf("trial %d: MaxOA (%d,%d)→(%d,%d) n=%d mismatch", trial, lx, hx, ly, hy, n)
		}
	}
}

// TestMaxOARecursive checks the compensation-sequence form within the
// paper's precondition (target at most twice the source window).
func TestMaxOARecursive(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(50)
		lx, hx := rng.Intn(3), rng.Intn(3)
		if lx+hx == 0 {
			hx = 1
		}
		ly := lx + rng.Intn(lx+hx+1) // Δl ≤ l_x+h_x
		hy := hx + rng.Intn(lx+hx+1) // Δh ≤ l_x+h_x
		if ly+hy == 0 {
			continue
		}
		raw := randRaw(rng, n)
		x, _ := ComputePipelined(raw, Sliding(lx, hx), Sum)
		y, err := MaxOARecursive(x, Sliding(ly, hy))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ComputeNaive(raw, Sliding(ly, hy), Sum)
		if !EqualSeq(y, want, 1e-9) {
			t.Fatalf("trial %d: MaxOARecursive (%d,%d)→(%d,%d) n=%d mismatch", trial, lx, hx, ly, hy, n)
		}
	}
}

func TestMaxOARecursivePreconditions(t *testing.T) {
	x, _ := ComputePipelined(make([]float64, 10), Sliding(1, 1), Sum)
	// Δl = 3 > l_x+h_x = 2: the recursive form must refuse.
	if _, err := MaxOARecursive(x, Sliding(4, 1)); err == nil {
		t.Error("expected Δp < 1 rejection")
	}
	// The explicit form handles the same target.
	if _, err := MaxOA(x, Sliding(4, 1)); err != nil {
		t.Errorf("explicit MaxOA should handle Δl beyond 2× bound: %v", err)
	}
	// Δh too large for the recursive form.
	if _, err := MaxOARecursive(x, Sliding(1, 4)); err == nil {
		t.Error("expected Δq < 1 rejection")
	}
}

// TestMaxOACompensationWindow verifies the compensation sequence definition
// (§4.1): z̃_k = x̃_k + x̃_{k−Δl} − ỹ_k equals the (l_x, h_x−Δl) window sum.
func TestMaxOACompensationWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	raw := randRaw(rng, 30)
	lx, hx, ly := 2, 2, 4 // Δl = 2, overlap window (2, 0)
	x, _ := ComputePipelined(raw, Sliding(lx, hx), Sum)
	y, _ := ComputeNaive(raw, Sliding(ly, hx), Sum)
	dl := ly - lx
	for k := 1; k <= 30; k++ {
		z := x.At(k) + x.At(k-dl) - y.At(k)
		want := 0.0
		for j := k - lx; j <= k+hx-dl; j++ {
			want += rawAt(raw, j)
		}
		if math.Abs(z-want) > 1e-9 {
			t.Fatalf("compensation at k=%d: %v != overlap sum %v", k, z, want)
		}
	}
}

// TestMaxOAMinMax — §4.2: ỹ_k = min/max(x̃_{k−Δl}, x̃_{k+Δh}).
func TestMaxOAMinMax(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(40)
		lx, hx := rng.Intn(3), rng.Intn(3)
		if lx+hx == 0 {
			lx = 1
		}
		wx := lx + hx + 1
		dl := rng.Intn(wx + 1)
		dh := wx - dl // maximal admissible split keeps Δl+Δh ≤ W_x
		if rng.Intn(2) == 0 && dh > 0 {
			dh--
		}
		ly, hy := lx+dl, hx+dh
		if ly+hy == 0 {
			continue
		}
		agg := Min
		if trial%2 == 1 {
			agg = Max
		}
		raw := randRaw(rng, n)
		x, _ := ComputePipelined(raw, Sliding(lx, hx), agg)
		y, err := MaxOAMinMax(x, Sliding(ly, hy))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ComputeNaive(raw, Sliding(ly, hy), agg)
		if !EqualSeq(y, want, 1e-9) {
			t.Fatalf("trial %d: MaxOAMinMax %v (%d,%d)→(%d,%d) mismatch", trial, agg, lx, hx, ly, hy)
		}
	}
}

func TestMaxOAMinMaxCoverageRejection(t *testing.T) {
	x, _ := ComputePipelined(make([]float64, 10), Sliding(1, 1), Min)
	// Δl+Δh = 4 > W_x = 3: the shifted windows leave a gap.
	if _, err := MaxOAMinMax(x, Sliding(3, 3)); err == nil {
		t.Error("expected coverage rejection for Δl+Δh > W_x")
	}
	// SUM input to the MIN/MAX routine is a usage error.
	xs, _ := ComputePipelined(make([]float64, 10), Sliding(1, 1), Sum)
	if _, err := MaxOAMinMax(xs, Sliding(2, 1)); err == nil {
		t.Error("expected aggregate rejection")
	}
}

// ---------------------------------------------------------------------------
// MinOA
// ---------------------------------------------------------------------------

func TestMinOA(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(50)
		lx, hx := rng.Intn(3), rng.Intn(3)
		if lx+hx == 0 {
			hx = 1
		}
		// MinOA handles arbitrary targets, including narrower windows.
		ly, hy := rng.Intn(8), rng.Intn(8)
		if ly+hy == 0 {
			ly = 1
		}
		raw := randRaw(rng, n)
		x, _ := ComputePipelined(raw, Sliding(lx, hx), Sum)
		y, err := MinOA(x, Sliding(ly, hy))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ComputeNaive(raw, Sliding(ly, hy), Sum)
		if !EqualSeq(y, want, 1e-9) {
			t.Fatalf("trial %d: MinOA (%d,%d)→(%d,%d) n=%d mismatch", trial, lx, hx, ly, hy, n)
		}
	}
}

func TestMinOARejectsMinMax(t *testing.T) {
	x, _ := ComputePipelined(make([]float64, 10), Sliding(1, 1), Min)
	if _, err := MinOA(x, Sliding(2, 1)); err == nil {
		t.Error("MinOA must reject MIN/MAX sequences (§5)")
	}
}

func TestMinOACountDerivation(t *testing.T) {
	// COUNT is the SUM of the all-ones sequence, so both derivation
	// algorithms apply to it (§2.1).
	n := 25
	x, _ := ComputePipelined(make([]float64, n), Sliding(2, 1), Count)
	y, err := MinOA(x, Sliding(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ComputeNaive(make([]float64, n), Sliding(3, 2), Count)
	if !EqualSeq(y, want, 1e-9) {
		t.Fatal("MinOA COUNT derivation mismatch")
	}
	ym, err := MaxOA(x, Sliding(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualSeq(ym, want, 1e-9) {
		t.Fatal("MaxOA COUNT derivation mismatch")
	}
}

// TestMaxOAMinOAAgree — the two algorithms must produce identical sequences
// wherever both apply.
func TestMaxOAMinOAAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(60)
		raw := randRaw(rng, n)
		x, _ := ComputePipelined(raw, Sliding(2, 1), Sum)
		target := Sliding(2+rng.Intn(3), 1+rng.Intn(3))
		a, err := MaxOA(x, target)
		if err != nil {
			t.Fatal(err)
		}
		b, err := MinOA(x, target)
		if err != nil {
			t.Fatal(err)
		}
		if !EqualSeq(a, b, 1e-9) {
			t.Fatalf("trial %d: MaxOA and MinOA disagree for target %v", trial, target)
		}
	}
}

// TestWindowCount: the implied COUNT is the COUNT aggregate over the window,
// for random windows and cardinalities from 0 up, at every stored position —
// header and trailer included — and a little beyond on both sides. Dividing a
// derived SUM by it is AVG, bit for bit.
func TestWindowCount(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 400; trial++ {
		w := Sliding(rng.Intn(6), rng.Intn(6))
		if trial%4 == 0 {
			w = Cumul()
		} else if w.Size() == 1 {
			w.Following = 1
		}
		n := trial % 23
		raw := randRaw(rng, n)
		lo, hi := storedRange(w, n)
		for k := lo - 3; k <= hi+3; k++ {
			if w.Cumulative && k < 0 {
				continue // no cumulative position lies left of the empty prefix
			}
			from, to := w.Bounds(k)
			want, _ := aggregate(raw, Count, from, to)
			if got := w.Count(k, n); float64(got) != want {
				t.Fatalf("%v over n=%d at %d: Count = %d, want %v", w, n, k, got, want)
			}
		}
		sum, err := ComputePipelined(raw, w, Sum)
		if err != nil {
			t.Fatal(err)
		}
		avg, _ := ComputeNaive(raw, w, Avg)
		for k := lo; k <= hi; k++ {
			got := 0.0
			if c := w.Count(k, n); c > 0 {
				got = sum.At(k) / float64(c)
			}
			if math.Float64bits(got) != math.Float64bits(avg.At(k)) {
				t.Fatalf("%v over n=%d at %d: SUM/Count = %v, naive AVG %v", w, n, k, got, avg.At(k))
			}
		}
	}
}

// TestAlgorithmRule pins the one derivation decision: which targets a stored
// window answers, and by which algorithm.
func TestAlgorithmRule(t *testing.T) {
	for _, c := range []struct {
		src    Window
		agg    Agg
		target Window
		want   Algo // "" — not derivable
	}{
		{Sliding(2, 1), Sum, Sliding(2, 1), AlgoExact},
		{Cumul(), Max, Cumul(), AlgoExact},
		{Cumul(), Sum, Sliding(3, 1), AlgoCumulative},
		{Cumul(), Count, Sliding(0, 0), AlgoCumulative},
		{Cumul(), Max, Sliding(3, 1), ""},
		{Sliding(2, 1), Max, Sliding(3, 2), AlgoMaxOA},
		{Sliding(2, 1), Min, Sliding(1, 1), ""},        // MIN/MAX cannot narrow
		{Sliding(2, 1), Max, Sliding(5, 4), ""},        // Δl+Δh > W_x: the shifted windows leave a gap
		{Sliding(2, 1), Sum, Sliding(4, 3), AlgoMinOA}, // (Δl+Δh) ≡ 0 (mod W_x)
		{Sliding(2, 1), Count, Sliding(0, 0), AlgoMinOA},
		{Sliding(2, 1), Sum, Cumul(), ""},
		{Sliding(2, 1), Avg, Sliding(3, 1), ""},
	} {
		got, err := Algorithm(c.src, c.agg, c.target)
		if got != c.want || (err == nil) != (c.want != "") {
			t.Errorf("Algorithm(%v, %v, %v) = %q, %v; want %q", c.src, c.agg, c.target, got, err, c.want)
		}
	}
}

// Derive — the automatic strategy selector.
func TestDeriveDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	raw := randRaw(rng, 30)
	target := Sliding(3, 2)
	want, _ := ComputeNaive(raw, target, Sum)

	cum, _ := ComputePipelined(raw, Cumul(), Sum)
	got, err := Derive(cum, target)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualSeq(got, want, 1e-9) {
		t.Fatal("Derive from cumulative mismatch")
	}

	sli, _ := ComputePipelined(raw, Sliding(2, 1), Sum)
	got, err = Derive(sli, target)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualSeq(got, want, 1e-9) {
		t.Fatal("Derive from sliding mismatch")
	}

	mn, _ := ComputePipelined(raw, Sliding(2, 1), Min)
	gotMin, err := Derive(mn, target)
	if err != nil {
		t.Fatal(err)
	}
	wantMin, _ := ComputeNaive(raw, target, Min)
	if !EqualSeq(gotMin, wantMin, 1e-9) {
		t.Fatal("Derive MIN mismatch")
	}
}

// Property test: MinOA round-trip over random byte slices via testing/quick.
func TestQuickMinOA(t *testing.T) {
	f := func(vals []int8, lxr, hxr, lyr, hyr uint8) bool {
		if len(vals) == 0 {
			return true
		}
		raw := make([]float64, len(vals))
		for i, v := range vals {
			raw[i] = float64(v)
		}
		lx, hx := int(lxr%3), int(hxr%3)
		if lx+hx == 0 {
			lx = 1
		}
		ly, hy := int(lyr%6), int(hyr%6)
		if ly+hy == 0 {
			hy = 1
		}
		x, err := ComputePipelined(raw, Sliding(lx, hx), Sum)
		if err != nil {
			return false
		}
		y, err := MinOA(x, Sliding(ly, hy))
		if err != nil {
			return false
		}
		want, err := ComputeNaive(raw, Sliding(ly, hy), Sum)
		if err != nil {
			return false
		}
		return EqualSeq(y, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// Property test: MaxOA explicit form via testing/quick.
func TestQuickMaxOA(t *testing.T) {
	f := func(vals []int8, lxr, hxr, dlr, dhr uint8) bool {
		if len(vals) == 0 {
			return true
		}
		raw := make([]float64, len(vals))
		for i, v := range vals {
			raw[i] = float64(v)
		}
		lx, hx := int(lxr%3), int(hxr%3)
		if lx+hx == 0 {
			hx = 1
		}
		ly, hy := lx+int(dlr%6), hx+int(dhr%6)
		if ly+hy == 0 {
			ly = 1
		}
		x, err := ComputePipelined(raw, Sliding(lx, hx), Sum)
		if err != nil {
			return false
		}
		y, err := MaxOA(x, Sliding(ly, hy))
		if err != nil {
			return false
		}
		want, err := ComputeNaive(raw, Sliding(ly, hy), Sum)
		if err != nil {
			return false
		}
		return EqualSeq(y, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxOARecursiveLongSequence guards the iterative compensation walk:
// long sequences must not overflow any stack and must stay exact.
func TestMaxOARecursiveLongSequence(t *testing.T) {
	n := 200000
	raw := make([]float64, n)
	for i := range raw {
		raw[i] = float64((i*7 + 3) % 101)
	}
	x, err := ComputePipelined(raw, Sliding(2, 1), Sum)
	if err != nil {
		t.Fatal(err)
	}
	y, err := MaxOARecursive(x, Sliding(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ComputePipelined(raw, Sliding(3, 2), Sum)
	// Spot-check positions across the range (full EqualSeq would be O(n)
	// anyway, but keep the loop tight).
	for _, k := range []int{1, 2, 100, n / 2, n - 1, n} {
		if math.Abs(y.At(k)-want.At(k)) > 1e-6 {
			t.Fatalf("k=%d: %v want %v", k, y.At(k), want.At(k))
		}
	}
}
