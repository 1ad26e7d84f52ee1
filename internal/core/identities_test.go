package core

import (
	"math"
	"math/rand"
	"testing"
)

// This file pins the constructive identities behind the derivation theorems
// — the algebra depicted in Figs. 8, 9, 11 and 12 — directly against raw
// data, independently of the derivation implementations.

// sumRange computes Σ_{j=a}^{b} x_j under the zero-extension convention.
func sumRange(raw []float64, a, b int) float64 {
	s := 0.0
	for j := a; j <= b; j++ {
		s += rawAt(raw, j)
	}
	return s
}

// TestFig8CompensationIdentity — §4.1: ỹ_k = x̃_k + x̃_{k−Δl} − z̃_k where z̃
// is the overlap window (l_x, h_x−Δl).
func TestFig8CompensationIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(40)
		lx, hx := rng.Intn(3), 1+rng.Intn(3)
		dl := 1 + rng.Intn(lx+hx) // 1 ≤ Δl ≤ l_x+h_x
		raw := randRaw(rng, n)
		for k := 1 - hx; k <= n+lx+dl; k++ {
			xk := sumRange(raw, k-lx, k+hx)
			xkdl := sumRange(raw, k-dl-lx, k-dl+hx)
			yk := sumRange(raw, k-lx-dl, k+hx) // target (l_x+Δl, h_x)
			zk := sumRange(raw, k-lx, k-dl+hx) // overlap window
			if math.Abs((xk+xkdl-zk)-yk) > 1e-9 {
				t.Fatalf("trial %d k=%d: x̃_k + x̃_{k−Δl} − z̃_k = %v, ỹ_k = %v",
					trial, k, xk+xkdl-zk, yk)
			}
		}
	}
}

// TestFig9OverlapFactor — §4.1: with Δp = 1+l_x+h_x−Δl, the windows of
// x̃_{k−(Δl+Δp)} and x̃_{k−Δl} overlap in exactly Δl−1 positions:
// wH(k−(Δl+Δp)) − wL(k−Δl) = Δl − 1.
func TestFig9OverlapFactor(t *testing.T) {
	for lx := 0; lx <= 3; lx++ {
		for hx := 0; hx <= 3; hx++ {
			if lx+hx == 0 {
				continue
			}
			for dl := 1; dl <= lx+hx; dl++ {
				dp := 1 + lx + hx - dl
				k := 100
				wHfar := (k - (dl + dp)) + hx // upper bound of x̃_{k−(Δl+Δp)}
				wLnear := (k - dl) - lx       // lower bound of x̃_{k−Δl}
				if wHfar-wLnear != dl-1 {
					t.Fatalf("lx=%d hx=%d Δl=%d: overlap %d, want Δl−1=%d",
						lx, hx, dl, wHfar-wLnear, dl-1)
				}
			}
		}
	}
}

// TestFig9CompensationRecursion — the z̃ recursion itself:
// z̃_k = x̃_{k−Δl} − x̃_{k−(Δl+Δp)} + z̃_{k−(Δl+Δp)} on raw data.
func TestFig9CompensationRecursion(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(40)
		lx, hx := rng.Intn(3), 1+rng.Intn(3)
		dl := 1 + rng.Intn(lx+hx)
		dp := 1 + lx + hx - dl
		raw := randRaw(rng, n)
		z := func(k int) float64 { return sumRange(raw, k-lx, k-dl+hx) }
		x := func(k int) float64 { return sumRange(raw, k-lx, k+hx) }
		for k := 1; k <= n; k++ {
			lhs := z(k)
			rhs := x(k-dl) - x(k-(dl+dp)) + z(k-(dl+dp))
			if math.Abs(lhs-rhs) > 1e-9 {
				t.Fatalf("trial %d k=%d: z̃ recursion violated (lx=%d hx=%d Δl=%d)", trial, k, lx, hx, dl)
			}
		}
	}
}

// TestFig11DoubleSideIdentity — §4.2: the double-sided inclusion-exclusion
// ỹ_k = x̃_k + (x̃_{k−Δl} − z̃L_k) + (x̃_{k+Δh} − z̃H_k).
func TestFig11DoubleSideIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(40)
		lx, hx := rng.Intn(3), rng.Intn(3)
		if lx+hx == 0 {
			lx = 1
		}
		dl := 1 + rng.Intn(lx+hx)
		dh := 1 + rng.Intn(lx+hx)
		raw := randRaw(rng, n)
		x := func(k int) float64 { return sumRange(raw, k-lx, k+hx) }
		zL := func(k int) float64 { return sumRange(raw, k-lx, k-dl+hx) }
		zH := func(k int) float64 { return sumRange(raw, k+dh-lx, k+hx) }
		for k := 1; k <= n; k++ {
			want := sumRange(raw, k-lx-dl, k+hx+dh)
			got := x(k) + (x(k-dl) - zL(k)) + (x(k+dh) - zH(k))
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d k=%d: double-side identity violated (lx=%d hx=%d Δl=%d Δh=%d)",
					trial, k, lx, hx, dl, dh)
			}
		}
	}
}

// TestFig12MinOAChains — §5: the positive chain tiles (−∞, k+h_y] and the
// negative chain tiles (−∞, k−l_y−1], each without gap or overlap.
func TestFig12MinOAChains(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(40)
		lx, hx := rng.Intn(3), rng.Intn(3)
		if lx+hx == 0 {
			hx = 1
		}
		wx := 1 + lx + hx
		ly, hy := rng.Intn(5), rng.Intn(5)
		dh := hy - hx
		dl := ly - lx
		raw := randRaw(rng, n)
		x := func(k int) float64 { return sumRange(raw, k-lx, k+hx) }
		for k := 1; k <= n; k++ {
			pos, neg := 0.0, 0.0
			for i := 0; i <= (k+hy+hx)/wx+2; i++ {
				pos += x(k + dh - i*wx)
			}
			for i := 1; i <= (k-dl+hx)/wx+2; i++ {
				neg += x(k - dl - i*wx)
			}
			if math.Abs(pos-sumRange(raw, -1000, k+hy)) > 1e-9 {
				t.Fatalf("trial %d k=%d: positive chain ≠ prefix sum", trial, k)
			}
			if math.Abs(neg-sumRange(raw, -1000, k-ly-1)) > 1e-9 {
				t.Fatalf("trial %d k=%d: negative chain ≠ prefix sum", trial, k)
			}
		}
	}
}

// TestIupBounds — the summation cut-offs the paper states: i_up = ⌈k/w⌉ for
// raw reconstruction and i_up = ⌈(k+h_y)/w_x⌉ for MinOA's positive chain.
func TestIupBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(233))
	raw := randRaw(rng, 50)
	s, _ := ComputePipelined(raw, Sliding(2, 1), Sum)
	w := 4
	for k := 1; k <= 50; k++ {
		// Beyond i_up every term of the raw-reconstruction sum vanishes.
		iup := ceilDiv(k, w)
		for i := iup + 1; i < iup+5; i++ {
			if s.At(k-1-i*w)-s.At(k-1-1-i*w) != 0 && k-1-i*w > -1 {
				t.Fatalf("term beyond i_up non-zero at k=%d i=%d", k, i)
			}
			if k-1-i*w <= -1 { // both args left of the header: literally zero
				if s.At(k-1-i*w) != 0 || s.At(k-1-1-i*w) != 0 {
					t.Fatalf("header zero convention violated at k=%d i=%d", k, i)
				}
			}
		}
	}
}

// TestMaintenanceBandLocality checks the §2.3 claim quantitatively: a point
// update touches exactly W positions, independent of n.
func TestMaintenanceBandLocality(t *testing.T) {
	for _, n := range []int{100, 1000, 5000} {
		m, err := NewMaintainer(make([]float64, n), Sliding(3, 2), Sum)
		if err != nil {
			t.Fatal(err)
		}
		m.ResetStats()
		if err := m.Update(n/2, 42); err != nil {
			t.Fatal(err)
		}
		if m.Touched != 6 {
			t.Fatalf("n=%d: update touched %d positions, want W=6", n, m.Touched)
		}
	}
}

// TestHeaderTrailerShape — Fig. 7: the interesting header positions are
// 1−h…0 and trailer positions n+1…n+l, and their values aggregate only the
// raw positions that actually exist.
func TestHeaderTrailerShape(t *testing.T) {
	raw := []float64{10, 20, 30, 40, 50}
	s, _ := ComputeNaive(raw, Sliding(2, 1), Sum)
	// Header: position 0 covers [−2, 1] ∩ [1,5] = {1}.
	if s.At(0) != 10 {
		t.Fatalf("header value = %v", s.At(0))
	}
	// Trailer: position 7 covers [5, 8] ∩ [1,5] = {5}.
	if s.At(7) != 50 {
		t.Fatalf("trailer value = %v", s.At(7))
	}
	// Position 6 covers {4,5}.
	if s.At(6) != 90 {
		t.Fatalf("trailer value = %v", s.At(6))
	}
	// Left-bounded sequences (l=0) have no trailer, right-bounded (h=0) no
	// header — checked via stored ranges in TestStoredRange; here check the
	// completeness requirement feeds derivation: without the header, MinOA
	// would be wrong at the left boundary.
	y, err := MinOA(s, Sliding(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if y.At(1) != 10+20 { // window [−2, 2] ∩ [1,5] = {1,2}
		t.Fatalf("boundary derivation = %v", y.At(1))
	}
}

// TestDerivationChain — derivations compose: x̃ → ỹ → z̃ stays exact.
func TestDerivationChain(t *testing.T) {
	rng := rand.New(rand.NewSource(239))
	raw := randRaw(rng, 60)
	x, _ := ComputePipelined(raw, Sliding(1, 1), Sum)
	y, err := MinOA(x, Sliding(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	z, err := MinOA(y, Sliding(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ComputeNaive(raw, Sliding(4, 3), Sum)
	if !EqualSeq(z, want, 1e-9) {
		t.Fatal("chained derivation diverged")
	}
}

// TestCumulativeAsUnboundedSliding — the cumulative window is the limit case
// the paper treats separately; check DeriveCumulativeFromSliding and
// RangeSum agree with it.
func TestCumulativeConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(241))
	raw := randRaw(rng, 40)
	x, _ := ComputePipelined(raw, Sliding(2, 2), Sum)
	cum, err := DeriveCumulativeFromSliding(x)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 40; k++ {
		rs, err := RangeSum(x, 1, k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rs-cum.At(k)) > 1e-9 {
			t.Fatalf("RangeSum(1,%d) = %v, cumulative = %v", k, rs, cum.At(k))
		}
	}
}

// sameBits reports whether two sequences hold the same stored range and the
// same float64 bit patterns at every position of it.
func sameBits(a, b *Sequence[float64]) bool {
	if a.N != b.N || a.Lo() != b.Lo() || a.Hi() != b.Hi() {
		return false
	}
	for k := a.Lo(); k <= a.Hi(); k++ {
		av, aok := a.AtOK(k)
		bv, bok := b.AtOK(k)
		if aok != bok || math.Float64bits(av) != math.Float64bits(bv) {
			return false
		}
	}
	return true
}

// TestLinearFormsEqualExplicit — the forms the engine runs (MinOARecursive's
// running sum per residue class, MaxOARecursive's compensation slices) equal
// the paper's explicit forms and the definition (ComputeNaive) bit for bit on
// integer data: over random source and target windows, targets narrower than
// the source (negative Δ, MinOA only) and the residue corner
// (Δl+Δh) ≡ 0 (mod W_x) — served by MinOA too — included, and at the
// cardinalities where a boundary moves — no data, one value, one short of the
// source window, exactly the window, and long. The body the Derive operator
// asks Slab.MinOA and Slab.MaxOA for (positions 1…n) must be the same values
// again.
func TestLinearFormsEqualExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(251))
	negative, short, corner := 0, 0, 0
	for trial := 0; trial < 120; trial++ {
		lx, hx := rng.Intn(4), rng.Intn(4)
		if lx+hx == 0 {
			lx = 1
		}
		ly, hy := rng.Intn(8), rng.Intn(8)
		if ly+hy == 0 {
			hy = 1
		}
		wx := 1 + lx + hx
		src, target := Sliding(lx, hx), Sliding(ly, hy)
		dl, dh := ly-lx, hy-hx
		if dl < 0 || dh < 0 {
			negative++
		}
		if (dl+dh)%wx == 0 {
			corner++ // MinOA's SQL pattern cannot render it; Slab.MinOA serves it
		}
		for _, n := range []int{0, 1, wx - 1, wx, 1000} {
			if n < 1+ly+hy {
				short++
			}
			for _, agg := range []Agg{Sum, Count} {
				raw := randRaw(rng, n)
				x, _ := ComputePipelined(raw, src, agg)
				want, _ := ComputeNaive(raw, target, agg)
				ctx := func(form string) string {
					return form + " " + agg.String() + " " + src.String() + "→" + target.String()
				}

				explicit, err := MinOA(x, target)
				if err != nil {
					t.Fatal(err)
				}
				linear, err := MinOARecursive(x, target)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(linear, explicit) || !sameBits(linear, want) {
					t.Fatalf("trial %d n=%d: %s diverged", trial, n, ctx("MinOA"))
				}
				body := make([]float64, n)
				if err := x.slab().MinOA(body, 1, target); err != nil {
					t.Fatal(err)
				}
				for k, v := range body {
					if math.Float64bits(v) != math.Float64bits(want.At(k+1)) {
						t.Fatalf("trial %d n=%d: %s body position %d = %v, want %v", trial, n, ctx("Slab.MinOA"), k+1, v, want.At(k+1))
					}
				}

				// MaxOA's recursive form needs 0 ≤ Δ < W_x on both sides.
				if dl < 0 || dh < 0 || dl >= wx || dh >= wx {
					continue
				}
				explicit, err = MaxOA(x, target)
				if err != nil {
					t.Fatal(err)
				}
				linear, err = MaxOARecursive(x, target)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(linear, explicit) || !sameBits(linear, want) {
					t.Fatalf("trial %d n=%d: %s diverged", trial, n, ctx("MaxOA"))
				}
				if err := x.slab().MaxOA(body, 1, target); err != nil {
					t.Fatal(err)
				}
				for k, v := range body {
					if math.Float64bits(v) != math.Float64bits(want.At(k+1)) {
						t.Fatalf("trial %d n=%d: %s body position %d = %v, want %v", trial, n, ctx("Slab.MaxOA"), k+1, v, want.At(k+1))
					}
				}
			}
		}
	}
	if negative == 0 || short == 0 || corner == 0 {
		t.Fatalf("the draw never reached a negative Δ (%d), an n below the target window (%d) or the residue corner (Δl+Δh) ≡ 0 (mod W_x) (%d)",
			negative, short, corner)
	}
}

// TestDerivationReadsAreLinear counts the slab reads of each derivation the
// engine runs at n = 1 000 and n = 10 000: ten times the positions may cost
// at most twelve times the reads. The explicit forms fail this by a factor of
// n/W_x; counting reads keeps the host's clock out of the verdict.
func TestDerivationReadsAreLinear(t *testing.T) {
	reads := func(n int, win Window, derive func(x Slab[float64], out []float64) error) int {
		raw := make([]float64, n)
		for i := range raw {
			raw[i] = float64(i % 7)
		}
		seq, err := ComputePipelined(raw, win, Sum)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		x := seq.slab()
		x.reads = &count
		if err := derive(x, make([]float64, n)); err != nil {
			t.Fatal(err)
		}
		return count
	}
	for _, c := range []struct {
		name   string
		win    Window
		derive func(x Slab[float64], out []float64) error
	}{
		{"MinOA", Sliding(2, 2), func(x Slab[float64], out []float64) error { return x.MinOA(out, 1, Sliding(7, 9)) }},
		{"MaxOA", Sliding(2, 2), func(x Slab[float64], out []float64) error { return x.MaxOA(out, 1, Sliding(4, 5)) }},
		{"sliding-from-cumulative", Cumul(), func(x Slab[float64], out []float64) error { return x.SlidingFromCumulative(out, 1, Sliding(7, 9)) }},
	} {
		small, large := reads(1000, c.win, c.derive), reads(10000, c.win, c.derive)
		if small < 1000 || large > 12*small {
			t.Errorf("%s: %d reads at n=1000, %d at n=10000: more than 12x", c.name, small, large)
		}
	}
}

// TestSingleRowTarget — a query may frame one row (CURRENT ROW AND CURRENT
// ROW), the window (0,0) that Validate refuses to materialize. MinOA from any
// sliding view and §3.1 from a cumulative one answer it with the raw value
// (SUM) or 1 (COUNT); MaxOA, whose target must contain the source, declines.
func TestSingleRowTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(252))
	target := Sliding(0, 0)
	for _, n := range []int{0, 1, 3, 200} {
		raw := randRaw(rng, n)
		for _, agg := range []Agg{Sum, Count} {
			want := func(k int) float64 {
				if agg == Count {
					return 1
				}
				return raw[k]
			}
			for _, src := range []Window{Sliding(1, 1), Sliding(0, 2), Sliding(3, 0), Cumul()} {
				x, err := ComputePipelined(raw, src, agg)
				if err != nil {
					t.Fatal(err)
				}
				body := make([]float64, n)
				derive := x.slab().MinOA
				if src.Cumulative {
					derive = x.slab().SlidingFromCumulative
				}
				if err := derive(body, 1, target); err != nil {
					t.Fatalf("%v %v→(0,0) n=%d: %v", agg, src, n, err)
				}
				for k, v := range body {
					if math.Float64bits(v) != math.Float64bits(want(k)) {
						t.Fatalf("%v %v→(0,0) n=%d: position %d = %v, want %v", agg, src, n, k+1, v, want(k))
					}
				}
				if !src.Cumulative {
					if err := x.slab().MaxOA(body, 1, target); err == nil {
						t.Fatalf("MaxOA %v→(0,0) did not decline", src)
					}
				}
			}
		}
	}
	if err := (Slab[float64]{Win: Sliding(1, 1), Agg: Sum}).MinOA(nil, 1, Sliding(-1, 2)); err == nil {
		t.Fatal("MinOA took a negative bound")
	}
}
