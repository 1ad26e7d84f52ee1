package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The tests below drive Apply over the slice store directly: the dense
// changes a table's DML makes (appends at n+1, deletes of position n), which
// the Maintainer's positional API does not offer.

// storeOf returns a maintainer for any aggregate, AVG included, which Apply
// refuses.
func storeOf(t *testing.T, raw []float64, w Window, agg Agg) *Maintainer[float64] {
	t.Helper()
	seq, err := ComputePipelined(raw, w, agg)
	if err != nil {
		t.Fatal(err)
	}
	return &Maintainer[float64]{raw: append([]float64(nil), raw...), seq: seq}
}

func (m *Maintainer[float64]) appendVal(v float64) error {
	m.raw = append(m.raw, v)
	return m.apply(Op[float64]{Kind: OpInsert, K: len(m.raw), New: v})
}

func (m *Maintainer[float64]) deleteLast() error {
	n := len(m.raw)
	old := m.raw[n-1]
	m.raw = m.raw[:n-1]
	return m.apply(Op[float64]{Kind: OpDelete, K: n, Old: old})
}

// checkPipelined asserts the stored sequence is bit-identical to a refresh.
func checkPipelined(t *testing.T, m *Maintainer[float64], ctx string) {
	t.Helper()
	want, err := ComputePipelined(m.raw, m.seq.Win, m.seq.Agg)
	if err != nil {
		t.Fatal(err)
	}
	if m.seq.Lo() != want.Lo() || m.seq.Hi() != want.Hi() {
		t.Fatalf("%s: stored range [%d,%d], want [%d,%d]", ctx, m.seq.Lo(), m.seq.Hi(), want.Lo(), want.Hi())
	}
	for k := want.Lo(); k <= want.Hi(); k++ {
		gv, gok := m.seq.AtOK(k)
		wv, wok := want.AtOK(k)
		if gok != wok || math.Float64bits(gv) != math.Float64bits(wv) {
			t.Fatalf("%s: %s %s at %d = (%v,%v), want (%v,%v)", ctx, m.seq.Agg, m.seq.Win, k, gv, gok, wv, wok)
		}
	}
}

// TestApplyDenseChanges: appends and suffix deletes, down to the empty
// sequence and back, for every aggregate and both window kinds.
func TestApplyDenseChanges(t *testing.T) {
	for _, agg := range []Agg{Sum, Count, Min, Max} {
		for _, w := range []Window{Sliding(2, 1), Sliding(0, 2), Cumul()} {
			m := storeOf(t, []float64{3, 1, 4}, w, agg)
			for _, v := range []float64{1, 5, -9} {
				if err := m.appendVal(v); err != nil {
					t.Fatal(err)
				}
				checkPipelined(t, m, "append")
			}
			if err := m.Update(2, 7); err != nil {
				t.Fatal(err)
			}
			checkPipelined(t, m, "update")
			for len(m.raw) > 0 {
				if err := m.deleteLast(); err != nil {
					t.Fatal(err)
				}
				checkPipelined(t, m, "suffix delete")
			}
			if err := m.appendVal(2); err != nil {
				t.Fatal(err)
			}
			checkPipelined(t, m, "append to the empty sequence")
		}
	}
}

// TestApplyRejectsDensityBreaks: an insert that is not an append and a
// delete that is not of the last position fail, and leave the sequence as
// it was.
func TestApplyRejectsDensityBreaks(t *testing.T) {
	m := storeOf(t, []float64{1, 2, 3}, Sliding(1, 1), Max)
	for _, c := range []struct {
		op   Op[float64]
		want string
	}{
		{Op[float64]{Kind: OpInsert, K: 2, New: 5}, "not an append"},
		{Op[float64]{Kind: OpInsert, K: 5, New: 5}, "not an append"},
		{Op[float64]{Kind: OpDelete, K: 1, Old: 1}, "not a suffix delete"},
		{Op[float64]{Kind: OpDelete, K: 4}, "not a suffix delete"},
	} {
		if err := m.apply(c.op); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%+v: err = %v, want %q", c.op, err, c.want)
		}
		checkPipelined(t, m, "after a rejected change")
	}
}

// TestApplyTouched: an update rewrites the band of W positions, an append
// the band plus the new trailer position, and the first value of an empty
// MIN/MAX sequence materializes its whole stored range.
func TestApplyTouched(t *testing.T) {
	m := storeOf(t, []float64{1, 2, 3, 4, 5, 6}, Sliding(2, 1), Sum)
	if err := m.Update(3, 9); err != nil || m.Touched != 4 {
		t.Fatalf("update touched %d (err %v), want the band of 4", m.Touched, err)
	}
	m.ResetStats()
	if err := m.appendVal(1); err != nil || m.Touched != 4 {
		t.Fatalf("append touched %d (err %v), want 4", m.Touched, err)
	}
	e := storeOf(t, nil, Sliding(2, 1), Min)
	if err := e.appendVal(4); err != nil || e.Touched != e.seq.Len() {
		t.Fatalf("first value touched %d (err %v), want the stored range %d", e.Touched, err, e.seq.Len())
	}
}

// TestApplyRefusesAvg: no sequence of quotients is maintained — an AVG view
// stores its SUM sequence — so Apply refuses AVG and leaves the store alone.
func TestApplyRefusesAvg(t *testing.T) {
	m := storeOf(t, []float64{3, 1, 4}, Sliding(1, 1), Avg)
	if err := m.Update(2, 7); err == nil || !strings.Contains(err.Error(), "maintain the SUM sequence") {
		t.Fatalf("Apply over AVG: err = %v, want a refusal", err)
	}
	if got := m.seq.At(2); got != 8.0/3 {
		t.Fatalf("the refused update rewrote the store: position 2 holds %v", got)
	}
}

// TestQuickApply: random streams of every change, over every aggregate and
// random windows, with NaN, ±Inf and −0 among the values, stay bit-identical
// to a refresh.
func TestQuickApply(t *testing.T) {
	quickApply(t, rand.New(rand.NewSource(23)), 300, []Agg{Sum, Count, Min, Max}, func(rng *rand.Rand) float64 {
		switch rng.Intn(12) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1 - 2*rng.Intn(2))
		case 2:
			return math.Copysign(0, -1)
		}
		return float64(rng.Intn(41) - 20)
	})
}

// TestQuickApplyMinMaxUnordered: MIN/MAX streams over a small domain thick
// with NaN, ±0 and ±Inf, where the widening rule must see from the stored
// band alone when a NaN or a signed-zero tie makes it recompute.
func TestQuickApplyMinMaxUnordered(t *testing.T) {
	domain := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), -1, 1, 2}
	quickApply(t, rand.New(rand.NewSource(29)), 2000, []Agg{Min, Max}, func(rng *rand.Rand) float64 {
		return domain[rng.Intn(len(domain))]
	})
}

// quickApply runs random streams of every change over random windows and
// one of aggs, checking each step against a refresh.
func quickApply(t *testing.T, rng *rand.Rand, trials int, aggs []Agg, pickVal func(*rand.Rand) float64) {
	t.Helper()
	pick := func() float64 { return pickVal(rng) }
	for trial := 0; trial < trials; trial++ {
		agg := aggs[rng.Intn(len(aggs))]
		w := Sliding(rng.Intn(4), 1+rng.Intn(3))
		if rng.Intn(4) == 0 {
			w = Cumul()
		}
		raw := make([]float64, rng.Intn(8))
		for i := range raw {
			raw[i] = pick()
		}
		m := storeOf(t, raw, w, agg)
		for op := 0; op < 12; op++ {
			n := len(m.raw)
			var err error
			switch r := rng.Intn(5); {
			case r == 0:
				err = m.appendVal(pick())
			case r == 1 && n > 0:
				err = m.deleteLast()
			case r == 2:
				err = m.Insert(1+rng.Intn(n+1), pick())
			case r == 3 && n > 0:
				err = m.Delete(1 + rng.Intn(n))
			case n > 0:
				err = m.Update(1+rng.Intn(n), pick())
			}
			if err != nil {
				t.Fatal(err)
			}
			checkPipelined(t, m, "random stream")
		}
	}
}
