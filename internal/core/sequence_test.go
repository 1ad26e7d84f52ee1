package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// EqualSeq reports whether two sequences carry identical values (within eps)
// and validity over the union of their stored ranges. The derivation property
// tests compare with it.
func EqualSeq[T Num](a, b *Sequence[T], eps float64) bool {
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
		if aok && math.Abs(float64(av-bv)) > eps {
			return false
		}
	}
	return true
}

// randRaw returns n integer-valued raw data points in [-50, 50] so that all
// SUM identities are exact in float64.
func randRaw(rng *rand.Rand, n int) []float64 {
	raw := make([]float64, n)
	for i := range raw {
		raw[i] = float64(rng.Intn(101) - 50)
	}
	return raw
}

// rawAt returns x_k under the zero-extension convention.
func rawAt(raw []float64, k int) float64 {
	if k < 1 || k > len(raw) {
		return 0
	}
	return raw[k-1]
}

func TestWindowValidate(t *testing.T) {
	cases := []struct {
		w  Window
		ok bool
	}{
		{Cumul(), true},
		{Sliding(1, 1), true},
		{Sliding(0, 3), true},
		{Sliding(3, 0), true},
		{Sliding(0, 0), false},
		{Sliding(-1, 2), false},
		{Sliding(2, -1), false},
	}
	for _, c := range cases {
		err := c.w.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%v) error=%v, want ok=%v", c.w, err, c.ok)
		}
	}
}

func TestWindowBoundsAndSize(t *testing.T) {
	w := Sliding(2, 1)
	if got := w.Size(); got != 4 {
		t.Fatalf("Size() = %d, want 4", got)
	}
	lo, hi := w.Bounds(10)
	if lo != 8 || hi != 11 {
		t.Fatalf("Bounds(10) = [%d,%d], want [8,11]", lo, hi)
	}
	c := Cumul()
	if c.Size() != -1 {
		t.Fatalf("cumulative Size() = %d, want -1", c.Size())
	}
	lo, hi = c.Bounds(7)
	if lo != 1 || hi != 7 {
		t.Fatalf("cumulative Bounds(7) = [%d,%d], want [1,7]", lo, hi)
	}
}

func TestStoredRange(t *testing.T) {
	// A complete (l,h) sequence stores header 1-h..0 and trailer n+1..n+l
	// (§3.2, Fig. 7): for x̃=(2,1) over n=5 that is positions 0..7.
	s, err := ComputeNaive(make([]float64, 5), Sliding(2, 1), Sum)
	if err != nil {
		t.Fatal(err)
	}
	if s.Lo() != 0 || s.Hi() != 7 {
		t.Fatalf("stored range [%d,%d], want [0,7]", s.Lo(), s.Hi())
	}
	// Left-bounded (l=0): no trailer. Right-bounded (h=0): no header.
	s, _ = ComputeNaive(make([]float64, 5), Sliding(0, 2), Sum)
	if s.Lo() != -1 || s.Hi() != 5 {
		t.Fatalf("left-bounded stored range [%d,%d], want [-1,5]", s.Lo(), s.Hi())
	}
	s, _ = ComputeNaive(make([]float64, 5), Sliding(2, 0), Sum)
	if s.Lo() != 1 || s.Hi() != 7 {
		t.Fatalf("right-bounded stored range [%d,%d], want [1,7]", s.Lo(), s.Hi())
	}
}

func TestComputeNaiveKnownValues(t *testing.T) {
	raw := []float64{1, 2, 3, 4, 5}
	s, err := ComputeNaive(raw, Sliding(1, 1), Sum)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]float64{
		0: 1,  // header: window [-1,1] ∩ [1,5] = {1}
		1: 3,  // 1+2
		2: 6,  // 1+2+3
		3: 9,  // 2+3+4
		4: 12, // 3+4+5
		5: 9,  // 4+5
		6: 5,  // trailer: {5}
	}
	for k, v := range want {
		if got := s.At(k); got != v {
			t.Errorf("At(%d) = %v, want %v", k, got, v)
		}
	}
	// Outside the stored range the zero convention applies.
	if s.At(-1) != 0 || s.At(7) != 0 {
		t.Errorf("outside stored range: At(-1)=%v At(7)=%v, want 0, 0", s.At(-1), s.At(7))
	}
}

func TestComputeCumulativeKnownValues(t *testing.T) {
	raw := []float64{3, 1, 4, 1, 5}
	s, err := ComputePipelined(raw, Cumul(), Sum)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 3, 4, 8, 9, 14}
	for k := 0; k <= 5; k++ {
		if got := s.At(k); got != want[k] {
			t.Errorf("At(%d) = %v, want %v", k, got, want[k])
		}
	}
	// Right of n a cumulative sequence stays at the grand total.
	if got := s.At(9); got != 14 {
		t.Errorf("At(9) = %v, want 14 (grand total)", got)
	}
	if got := s.At(-3); got != 0 {
		t.Errorf("At(-3) = %v, want 0 (empty prefix)", got)
	}
}

// TestPipelinedMatchesNaive is the §2.2 equivalence: the three-operation
// recursion computes the same sequence as the explicit form, for every
// aggregate and window shape.
func TestPipelinedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	aggs := []Agg{Sum, Count, Avg, Min, Max}
	wins := []Window{Cumul(), Sliding(1, 1), Sliding(2, 1), Sliding(0, 6), Sliding(3, 0), Sliding(5, 7)}
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(60)
		raw := randRaw(rng, n)
		for _, agg := range aggs {
			for _, w := range wins {
				naive, err := ComputeNaive(raw, w, agg)
				if err != nil {
					t.Fatal(err)
				}
				fast, err := ComputePipelined(raw, w, agg)
				if err != nil {
					t.Fatal(err)
				}
				if !EqualSeq(naive, fast, 1e-9) {
					t.Fatalf("trial %d: pipelined != naive for agg=%v win=%v n=%d", trial, agg, w, n)
				}
			}
		}
	}
}

// TestNeighbourRelationship verifies the algebraic relationship of Fig. 3:
// x̃_k + x_{k−l−1} = x̃_{k−1} + x_{k+h}.
func TestNeighbourRelationship(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(40)
		l, h := rng.Intn(4), rng.Intn(4)
		if l+h == 0 {
			h = 1
		}
		raw := randRaw(rng, n)
		s, err := ComputeNaive(raw, Sliding(l, h), Sum)
		if err != nil {
			t.Fatal(err)
		}
		for k := s.Lo() + 1; k <= s.Hi(); k++ {
			lhs := s.At(k) + rawAt(raw, k-l-1)
			rhs := s.At(k-1) + rawAt(raw, k+h)
			if math.Abs(lhs-rhs) > 1e-9 {
				t.Fatalf("Fig. 3 relationship violated at k=%d (l=%d h=%d)", k, l, h)
			}
		}
	}
}

// TestReportingDoesNotShrink checks the observation from §1 that reporting
// functions produce one output value per input value.
func TestReportingDoesNotShrink(t *testing.T) {
	raw := randRaw(rand.New(rand.NewSource(1)), 17)
	for _, w := range []Window{Cumul(), Sliding(1, 1), Sliding(0, 6)} {
		s, err := ComputePipelined(raw, w, Sum)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(s.Body()); got != len(raw) {
			t.Errorf("window %v: Body() has %d values, want %d", w, got, len(raw))
		}
	}
}

func TestCountSequence(t *testing.T) {
	raw := make([]float64, 6)
	s, err := ComputePipelined(raw, Sliding(2, 1), Count)
	if err != nil {
		t.Fatal(err)
	}
	// Interior windows count 4 positions; boundaries clip against [1,n].
	want := map[int]float64{0: 1, 1: 2, 2: 3, 3: 4, 4: 4, 5: 4, 6: 3, 7: 2, 8: 1}
	for k, v := range want {
		if got := s.At(k); got != v {
			t.Errorf("count At(%d) = %v, want %v", k, got, v)
		}
	}
}

func TestMinMaxEmptyWindows(t *testing.T) {
	raw := []float64{5, -2, 7}
	s, err := ComputePipelined(raw, Sliding(1, 2), Min)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.AtOK(-5); ok {
		t.Error("AtOK far left of header should report empty")
	}
	v, ok := s.AtOK(-1) // window [-2,1] ∩ [1,3] = {1}
	if !ok || v != 5 {
		t.Errorf("AtOK(-1) = (%v,%v), want (5,true)", v, ok)
	}
	v, ok = s.AtOK(2) // window [1,4] ∩ [1,3]: min(5,-2,7)
	if !ok || v != -2 {
		t.Errorf("AtOK(2) = (%v,%v), want (-2,true)", v, ok)
	}
}

func TestBodyVsValues(t *testing.T) {
	raw := []float64{1, 2, 3}
	s, _ := ComputeNaive(raw, Sliding(1, 1), Sum)
	body := s.Body()
	if len(body) != 3 || body[0] != 3 || body[1] != 6 || body[2] != 5 {
		t.Fatalf("Body() = %v, want [3 6 5]", body)
	}
	vals := s.Values()
	if len(vals) != s.Len() {
		t.Fatalf("Values() length %d, want %d", len(vals), s.Len())
	}
}

// Property: for any sliding window, the window size relation W(k)=1+l+h
// holds via COUNT on interior positions (quick-check over generated specs).
func TestQuickWindowSizeViaCount(t *testing.T) {
	f := func(lRaw, hRaw uint8, nRaw uint8) bool {
		l, h := int(lRaw%5), int(hRaw%5)
		if l+h == 0 {
			h = 1
		}
		n := int(nRaw%40) + l + h + 2 // ensure interior positions exist
		s, err := ComputePipelined(make([]float64, n), Sliding(l, h), Count)
		if err != nil {
			return false
		}
		for k := 1 + l; k <= n-h; k++ {
			if s.At(k) != float64(1+l+h) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cumulative sequences are prefix sums — x̃_k − x̃_{k−1} = x_k.
func TestQuickCumulativePrefix(t *testing.T) {
	f := func(vals []int8) bool {
		raw := make([]float64, len(vals))
		for i, v := range vals {
			raw[i] = float64(v)
		}
		s, err := ComputePipelined(raw, Cumul(), Sum)
		if err != nil {
			return false
		}
		for k := 1; k <= len(raw); k++ {
			if math.Abs((s.At(k)-s.At(k-1))-raw[k-1]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAggString(t *testing.T) {
	if Sum.String() != "SUM" || Count.String() != "COUNT" || Avg.String() != "AVG" ||
		Min.String() != "MIN" || Max.String() != "MAX" {
		t.Error("Agg.String() mismatch")
	}
	if !Sum.Algebraic() || Min.Algebraic() {
		t.Error("Algebraic() mismatch")
	}
}

func TestWindowString(t *testing.T) {
	if Cumul().String() != "cumulative" {
		t.Errorf("Cumul().String() = %q", Cumul().String())
	}
	if Sliding(2, 1).String() != "(2,1)" {
		t.Errorf("Sliding(2,1).String() = %q", Sliding(2, 1).String())
	}
	if !Sliding(2, 1).Equal(Sliding(2, 1)) || Sliding(2, 1).Equal(Sliding(1, 2)) || Sliding(2, 1).Equal(Cumul()) {
		t.Error("Window.Equal mismatch")
	}
}
