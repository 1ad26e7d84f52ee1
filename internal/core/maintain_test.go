package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// checkAgainstRecompute verifies that the incrementally maintained sequence
// equals a full recomputation over the maintainer's raw data.
func checkAgainstRecompute(t *testing.T, m *Maintainer[float64], ctx string) {
	t.Helper()
	want, err := ComputeNaive(m.Raw(), m.Seq().Win, m.Seq().Agg)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if !EqualSeq(m.Seq(), want, 1e-9) {
		t.Fatalf("%s: maintained sequence diverged from recomputation", ctx)
	}
}

func TestMaintainerUpdateSum(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(40)
		l, h := rng.Intn(4), rng.Intn(4)
		if l+h == 0 {
			h = 2
		}
		m, err := NewMaintainer(randRaw(rng, n), Sliding(l, h), Sum)
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 8; op++ {
			k := 1 + rng.Intn(n)
			if err := m.Update(k, float64(rng.Intn(101)-50)); err != nil {
				t.Fatal(err)
			}
			checkAgainstRecompute(t, m, "update")
		}
	}
}

// TestMaintainerUpdateLocality: the §2.3 update rule touches exactly the
// positions k−h … k+l whose windows contain k (clipped to the stored range).
func TestMaintainerUpdateLocality(t *testing.T) {
	m, err := NewMaintainer(make([]float64, 100), Sliding(3, 2), Sum)
	if err != nil {
		t.Fatal(err)
	}
	m.ResetStats()
	if err := m.Update(50, 7); err != nil {
		t.Fatal(err)
	}
	if m.Touched != 6 { // l+h+1 = 6 positions
		t.Fatalf("interior update touched %d positions, want 6", m.Touched)
	}
	m.ResetStats()
	if err := m.Update(1, 3); err != nil { // clipped at the header
		t.Fatal(err)
	}
	if m.Touched != 6 { // positions -1..4 are all stored (header from -1)
		t.Fatalf("boundary update touched %d positions, want 6", m.Touched)
	}
}

func TestMaintainerUpdateCumulative(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	m, err := NewMaintainer(randRaw(rng, 30), Cumul(), Sum)
	if err != nil {
		t.Fatal(err)
	}
	for op := 0; op < 10; op++ {
		if err := m.Update(1+rng.Intn(30), float64(rng.Intn(40))); err != nil {
			t.Fatal(err)
		}
		checkAgainstRecompute(t, m, "cumulative update")
	}
}

func TestMaintainerUpdateCount(t *testing.T) {
	m, err := NewMaintainer([]float64{1, 2, 3, 4, 5}, Sliding(1, 1), Count)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Update(3, 99); err != nil {
		t.Fatal(err)
	}
	checkAgainstRecompute(t, m, "count update")
}

func TestMaintainerUpdateMinMax(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for _, agg := range []Agg{Min, Max} {
		m, err := NewMaintainer(randRaw(rng, 25), Sliding(2, 2), agg)
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 20; op++ {
			if err := m.Update(1+rng.Intn(25), float64(rng.Intn(101)-50)); err != nil {
				t.Fatal(err)
			}
			checkAgainstRecompute(t, m, agg.String()+" update")
		}
	}
}

func TestMaintainerInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(30)
		l, h := rng.Intn(4), rng.Intn(4)
		if l+h == 0 {
			l = 2
		}
		m, err := NewMaintainer(randRaw(rng, n), Sliding(l, h), Sum)
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 6; op++ {
			k := 1 + rng.Intn(len(m.Raw())+1)
			if err := m.Insert(k, float64(rng.Intn(101)-50)); err != nil {
				t.Fatal(err)
			}
			checkAgainstRecompute(t, m, "insert")
		}
	}
}

func TestMaintainerInsertAtEnds(t *testing.T) {
	m, err := NewMaintainer([]float64{10, 20, 30}, Sliding(1, 1), Sum)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(1, 5); err != nil { // prepend
		t.Fatal(err)
	}
	checkAgainstRecompute(t, m, "prepend")
	if err := m.Insert(5, 40); err != nil { // append (n+1)
		t.Fatal(err)
	}
	checkAgainstRecompute(t, m, "append")
	if m.Seq().N != 5 {
		t.Fatalf("N = %d after two inserts, want 5", m.Seq().N)
	}
}

func TestMaintainerInsertCumulative(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	m, err := NewMaintainer(randRaw(rng, 10), Cumul(), Sum)
	if err != nil {
		t.Fatal(err)
	}
	for op := 0; op < 8; op++ {
		if err := m.Insert(1+rng.Intn(len(m.Raw())+1), float64(rng.Intn(20))); err != nil {
			t.Fatal(err)
		}
		checkAgainstRecompute(t, m, "cumulative insert")
	}
}

func TestMaintainerInsertMinMax(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, agg := range []Agg{Min, Max} {
		m, err := NewMaintainer(randRaw(rng, 12), Sliding(1, 2), agg)
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 8; op++ {
			if err := m.Insert(1+rng.Intn(len(m.Raw())+1), float64(rng.Intn(101)-50)); err != nil {
				t.Fatal(err)
			}
			checkAgainstRecompute(t, m, agg.String()+" insert")
		}
		mc, err := NewMaintainer(randRaw(rng, 12), Cumul(), agg)
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 8; op++ {
			if err := mc.Insert(1+rng.Intn(len(mc.Raw())+1), float64(rng.Intn(101)-50)); err != nil {
				t.Fatal(err)
			}
			checkAgainstRecompute(t, mc, agg.String()+" cumulative insert")
		}
	}
}

func TestMaintainerDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 30; trial++ {
		n := 8 + rng.Intn(30)
		l, h := rng.Intn(4), rng.Intn(4)
		if l+h == 0 {
			h = 3
		}
		m, err := NewMaintainer(randRaw(rng, n), Sliding(l, h), Sum)
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 5; op++ {
			if err := m.Delete(1 + rng.Intn(len(m.Raw()))); err != nil {
				t.Fatal(err)
			}
			checkAgainstRecompute(t, m, "delete")
		}
	}
}

func TestMaintainerDeleteCumulative(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	m, err := NewMaintainer(randRaw(rng, 12), Cumul(), Sum)
	if err != nil {
		t.Fatal(err)
	}
	for op := 0; op < 8; op++ {
		if err := m.Delete(1 + rng.Intn(len(m.Raw()))); err != nil {
			t.Fatal(err)
		}
		checkAgainstRecompute(t, m, "cumulative delete")
	}
}

func TestMaintainerDeleteMinMax(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for _, agg := range []Agg{Min, Max} {
		m, err := NewMaintainer(randRaw(rng, 15), Sliding(2, 1), agg)
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 6; op++ {
			if err := m.Delete(1 + rng.Intn(len(m.Raw()))); err != nil {
				t.Fatal(err)
			}
			checkAgainstRecompute(t, m, agg.String()+" delete")
		}
	}
}

func TestMaintainerMixedWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	m, err := NewMaintainer(randRaw(rng, 20), Sliding(2, 2), Sum)
	if err != nil {
		t.Fatal(err)
	}
	for op := 0; op < 60; op++ {
		n := len(m.Raw())
		switch rng.Intn(3) {
		case 0:
			err = m.Update(1+rng.Intn(n), float64(rng.Intn(101)-50))
		case 1:
			err = m.Insert(1+rng.Intn(n+1), float64(rng.Intn(101)-50))
		case 2:
			if n > 4 {
				err = m.Delete(1 + rng.Intn(n))
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstRecompute(t, m, "mixed")
	}
}

func TestMaintainerErrors(t *testing.T) {
	if _, err := NewMaintainer([]float64{1, 2, 3}, Sliding(1, 1), Avg); err == nil {
		t.Error("AVG maintainer must be rejected")
	}
	m, err := NewMaintainer([]float64{1, 2, 3}, Sliding(1, 1), Sum)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Update(0, 1); err == nil {
		t.Error("update position 0 must fail")
	}
	if err := m.Update(4, 1); err == nil {
		t.Error("update past n must fail")
	}
	if err := m.Insert(0, 1); err == nil {
		t.Error("insert position 0 must fail")
	}
	if err := m.Insert(5, 1); err == nil {
		t.Error("insert past n+1 must fail")
	}
	if err := m.Delete(0); err == nil {
		t.Error("delete position 0 must fail")
	}
	if err := m.Delete(4); err == nil {
		t.Error("delete past n must fail")
	}
}

// Property test: a random batch of updates keeps the view consistent.
func TestQuickMaintainerUpdates(t *testing.T) {
	f := func(init []int8, ops []uint16) bool {
		if len(init) < 2 {
			return true
		}
		raw := make([]float64, len(init))
		for i, v := range init {
			raw[i] = float64(v)
		}
		m, err := NewMaintainer(raw, Sliding(2, 1), Sum)
		if err != nil {
			return false
		}
		for _, op := range ops {
			k := int(op)%len(raw) + 1
			if err := m.Update(k, float64(int8(op>>8))); err != nil {
				return false
			}
		}
		want, err := ComputeNaive(m.Raw(), Sliding(2, 1), Sum)
		if err != nil {
			return false
		}
		return EqualSeq(m.Seq(), want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestMaintainThenDerive: the warehouse loop — maintain a view, then answer a
// wider window query from it. Consistency must survive the combination.
func TestMaintainThenDerive(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	m, err := NewMaintainer(randRaw(rng, 40), Sliding(2, 1), Sum)
	if err != nil {
		t.Fatal(err)
	}
	for op := 0; op < 15; op++ {
		switch rng.Intn(3) {
		case 0:
			err = m.Update(1+rng.Intn(len(m.Raw())), float64(rng.Intn(60)))
		case 1:
			err = m.Insert(1+rng.Intn(len(m.Raw())+1), float64(rng.Intn(60)))
		default:
			err = m.Delete(1 + rng.Intn(len(m.Raw())))
		}
		if err != nil {
			t.Fatal(err)
		}
		got, derr := MinOA(m.Seq(), Sliding(3, 2))
		if derr != nil {
			t.Fatal(derr)
		}
		want, _ := ComputeNaive(m.Raw(), Sliding(3, 2), Sum)
		if !EqualSeq(got, want, 1e-9) {
			t.Fatalf("op %d: derived query from maintained view diverged", op)
		}
	}
}

// TestMaintainerCumulativeMinMaxKeepsRaw: a cumulative MIN/MAX band recompute
// from a position ≥ 2 resumes from the stored prefix extremum without writing
// it into the raw data, so a later change still reads the true x_k. The
// reference is a raw slice the test keeps itself, not the maintainer's.
func TestMaintainerCumulativeMinMaxKeepsRaw(t *testing.T) {
	check := func(m *Maintainer[float64], raw []float64, ctx string) {
		t.Helper()
		got := m.RawCopy()
		if len(got) != len(raw) {
			t.Fatalf("%s: raw has %d values, want %d", ctx, len(got), len(raw))
		}
		for i := range raw {
			if got[i] != raw[i] {
				t.Fatalf("%s: raw %v, want %v", ctx, got, raw)
			}
		}
		want, err := ComputeNaive(raw, m.Seq().Win, m.Seq().Agg)
		if err != nil {
			t.Fatal(err)
		}
		if !EqualSeq(m.Seq(), want, 0) {
			t.Fatalf("%s: sequence diverged from the tracked raw data", ctx)
		}
	}
	// The example: [1,5,7], insert 9 at 3, delete position 1.
	m, err := NewMaintainer([]float64{1, 5, 7}, Cumul(), Min)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(3, 9); err != nil {
		t.Fatal(err)
	}
	check(m, []float64{1, 5, 9, 7}, "insert(3, 9)")
	if err := m.Delete(1); err != nil {
		t.Fatal(err)
	}
	check(m, []float64{5, 9, 7}, "delete(1)")
	if got := m.Seq().At(3); got != 5 {
		t.Fatalf("cumulative MIN at 3 = %v, want 5", got)
	}

	rng := rand.New(rand.NewSource(113))
	for _, agg := range []Agg{Min, Max} {
		for trial := 0; trial < 20; trial++ {
			raw := randRaw(rng, 4+rng.Intn(12))
			m, err := NewMaintainer(raw, Cumul(), agg)
			if err != nil {
				t.Fatal(err)
			}
			raw = append([]float64(nil), raw...)
			for op := 0; op < 10; op++ {
				switch k := 2 + rng.Intn(len(raw)-1); rng.Intn(3) {
				case 0:
					v := float64(rng.Intn(101) - 50)
					raw = append(raw[:k-1:k-1], append([]float64{v}, raw[k-1:]...)...)
					err = m.Insert(k, v)
				case 1:
					raw = append(raw[:k-1:k-1], raw[k:]...)
					err = m.Delete(k)
				default:
					v := float64(rng.Intn(101) - 50)
					raw[k-1] = v
					err = m.Update(k, v)
				}
				if err != nil {
					t.Fatal(err)
				}
				check(m, raw, agg.String()+" change at k ≥ 2")
				if len(raw) > 2 {
					raw = raw[1:]
					if err := m.Delete(1); err != nil {
						t.Fatal(err)
					}
					check(m, raw, agg.String()+" delete(1)")
				}
				if len(raw) < 3 {
					break
				}
			}
		}
	}
}
