package core

import (
	"math"
	"testing"
)

// checkBitIdentical asserts the maintained sequence is BIT-identical to a
// fresh pipelined computation over the maintainer's raw data — the exact
// contract incremental maintenance promises REFRESH. Float64bits comparison
// makes NaN equal to NaN and distinguishes −0 from +0, which epsilon
// comparison cannot.
func checkBitIdentical(t *testing.T, m *Maintainer[float64], ctx string) {
	t.Helper()
	want, err := ComputePipelined(m.Raw(), m.Seq().Win, m.Seq().Agg)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	got := m.Seq()
	if got.Lo() != want.Lo() || got.Hi() != want.Hi() {
		t.Fatalf("%s: stored range [%d,%d], want [%d,%d]", ctx, got.Lo(), got.Hi(), want.Lo(), want.Hi())
	}
	for k := want.Lo(); k <= want.Hi(); k++ {
		gv, gok := got.AtOK(k)
		wv, wok := want.AtOK(k)
		if gok != wok || math.Float64bits(gv) != math.Float64bits(wv) {
			t.Fatalf("%s: position %d = (%v,%v) [bits %016x], want (%v,%v) [bits %016x]",
				ctx, k, gv, gok, math.Float64bits(gv), wv, wok, math.Float64bits(wv))
		}
	}
}

// TestMaintainerExoticValues: NaN, ±Inf and −0 defeat the §2.3 differencing
// rules (NaN and Inf poison running sums; −0 ties break differently between
// a band recompute and a pipelined refresh). The maintainer must detect them
// and stay bit-identical to a full refresh — entering, while present, and
// leaving again.
func TestMaintainerExoticValues(t *testing.T) {
	for _, agg := range []Agg{Sum, Min, Max, Count} {
		for _, w := range []Window{Sliding(2, 1), Cumul()} {
			name := agg.String()
			if w.Cumulative {
				name += "/cumulative"
			}
			m, err := NewMaintainer([]float64{3, 1, 4, 1, 5, 9, 2, 6}, w, agg)
			if err != nil {
				t.Fatal(err)
			}
			steps := []struct {
				ctx string
				op  func() error
			}{
				{"NaN enters", func() error { return m.Update(3, math.NaN()) }},
				{"update while NaN present", func() error { return m.Update(6, 7) }},
				{"append while NaN present", func() error { return m.Insert(m.Len()+1, 8) }},
				{"+Inf enters", func() error { return m.Update(1, math.Inf(1)) }},
				{"NaN leaves", func() error { return m.Update(3, 4) }},
				{"Inf leaves by delete", func() error { return m.Delete(1) }},
				// The raw data is clean again: from here on the incremental
				// rules run — and must still match the refresh bit for bit.
				{"clean update after exotics", func() error { return m.Update(2, -6) }},
				{"−0 enters", func() error { return m.Update(4, math.Copysign(0, -1)) }},
				{"update while −0 present", func() error { return m.Update(5, 2) }},
				{"−0 leaves", func() error { return m.Update(4, 0) }},
				{"clean append after −0", func() error { return m.Insert(m.Len()+1, 1) }},
			}
			for _, s := range steps {
				if err := s.op(); err != nil {
					t.Fatalf("%s: %s: %v", name, s.ctx, err)
				}
				checkBitIdentical(t, m, name+": "+s.ctx)
			}
		}
	}
}

// TestMaintainerExoticInsert: inserting an exotic value directly (rather than
// updating one in) must also fall back, including a −0 insert whose sum
// delta would be invisible to epsilon comparison.
func TestMaintainerExoticInsert(t *testing.T) {
	m, err := NewMaintainer([]float64{1, 2, 3, 4}, Sliding(1, 1), Sum)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(3, math.Copysign(0, -1)); err != nil {
		t.Fatal(err)
	}
	checkBitIdentical(t, m, "−0 insert")
	if err := m.Delete(3); err != nil {
		t.Fatal(err)
	}
	checkBitIdentical(t, m, "−0 delete")
	if err := m.Insert(1, math.Inf(-1)); err != nil {
		t.Fatal(err)
	}
	checkBitIdentical(t, m, "−Inf insert at the head")
}

// TestMaintainerMinMaxNarrowingBoundary pins the footnote in §2.3: MIN is
// incrementally maintainable only in the widening direction (a new value
// that can only lower a minimum). Raising the unique minimum — narrowing —
// must recompute exactly the band k−h … k+l and leave every other stored
// position untouched.
func TestMaintainerMinMaxNarrowingBoundary(t *testing.T) {
	raw := []float64{5, 1, 9, 7, 3, 8, 6}
	m, err := NewMaintainer(raw, Sliding(1, 1), Min) // l=1, h=1: band is k−1 … k+1
	if err != nil {
		t.Fatal(err)
	}

	// Widening: 0 < old minimum 1 → the fast path x̃'_i = min(x̃_i, v).
	m.ResetStats()
	if err := m.Update(2, 0); err != nil {
		t.Fatal(err)
	}
	checkBitIdentical(t, m, "widening update")
	if m.Touched != 3 {
		t.Fatalf("widening update touched %d positions, want the band of 3", m.Touched)
	}

	// The boundary case: the new value EQUALS the old one. v ≤ old still
	// holds, so the fast path applies — and must be a no-op in value.
	m.ResetStats()
	if err := m.Update(2, 0); err != nil {
		t.Fatal(err)
	}
	checkBitIdentical(t, m, "equal-value update")
	if m.Touched != 3 {
		t.Fatalf("equal-value update touched %d positions, want 3", m.Touched)
	}

	// Narrowing: raising the unique minimum 0 → 10. The stored minima at
	// positions 1..3 all credit the old value; only a band recompute can
	// discover the next-smallest raw values (5, 7, 9 …).
	m.ResetStats()
	if err := m.Update(2, 10); err != nil {
		t.Fatal(err)
	}
	checkBitIdentical(t, m, "narrowing update")
	if m.Touched != 3 {
		t.Fatalf("narrowing update touched %d positions, want the band of 3 (locality must survive the recompute)", m.Touched)
	}
	if got := m.Seq().At(1); got != 5 {
		t.Fatalf("seq(1) = %v after the narrowing update, want 5", got)
	}

	// The mirror image for MAX: raising widens, lowering the unique maximum
	// narrows. Clipping at the sequence ends must not over- or under-touch.
	mx, err := NewMaintainer([]float64{2, 9, 4}, Sliding(1, 1), Max)
	if err != nil {
		t.Fatal(err)
	}
	mx.ResetStats()
	if err := mx.Update(2, 1); err != nil { // narrow the unique maximum
		t.Fatal(err)
	}
	checkBitIdentical(t, mx, "max narrowing")
	if mx.Touched != 3 {
		t.Fatalf("max narrowing touched %d positions, want 3", mx.Touched)
	}
	mx.ResetStats()
	if err := mx.Update(1, -5); err != nil { // narrowing at the head: band clips to 0..2
		t.Fatal(err)
	}
	checkBitIdentical(t, mx, "max narrowing at the head")
	if mx.Touched != 3 { // positions 0,1,2 (header stored from −h)
		t.Fatalf("head narrowing touched %d positions, want 3", mx.Touched)
	}
}

// TestMaintainerRawZeroCopy pins the Raw() contract after the copy-per-call
// fix: it aliases live state (allocation-free, reflects mutations), while
// RawCopy returns an independent snapshot.
func TestMaintainerRawZeroCopy(t *testing.T) {
	m, err := NewMaintainer([]float64{1, 2, 3, 4, 5}, Sliding(1, 1), Sum)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_ = m.Raw()
		_ = m.Len()
	}); allocs != 0 {
		t.Fatalf("Raw()/Len() allocate %.0f times per call, want 0 — the copy-per-call regression is back", allocs)
	}
	view := m.Raw()
	if err := m.Update(2, 42); err != nil {
		t.Fatal(err)
	}
	if view[1] != 42 {
		t.Fatal("Raw() must alias live state: an update did not show through the view")
	}
	snap := m.RawCopy()
	if err := m.Update(2, 7); err != nil {
		t.Fatal(err)
	}
	if snap[1] != 42 {
		t.Fatal("RawCopy() must be an owned snapshot, not an alias")
	}
	snap[0] = 999
	if m.Raw()[0] == 999 {
		t.Fatal("mutating a RawCopy() leaked into the maintainer")
	}
}

// BenchmarkMaintainerRaw guards the zero-copy fast path: core.Maintainer.Raw
// sits on every maintenance dispatch, and the old copy-per-call behavior
// dominated profiles.
func BenchmarkMaintainerRaw(b *testing.B) {
	raw := make([]float64, 4096)
	for i := range raw {
		raw[i] = float64(i % 97)
	}
	m, err := NewMaintainer(raw, Sliding(4, 4), Sum)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := m.Raw()
		if len(r) != 4096 {
			b.Fatal("bad length")
		}
	}
}
