package sqltypes

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// sign collapses a comparison result to -1/0/1.
func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	default:
		return 0
	}
}

// TestEncodeKeyAgreesWithCompare is the core property: for random pairs of a
// homogeneous column type, the byte order of EncodeKey matches Compare —
// including equality, which is what keeps stable sorts stable.
func TestEncodeKeyAgreesWithCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	gens := map[string]func() Datum{
		"int": func() Datum { return NewInt(rng.Int63n(200) - 100) },
		"int-extreme": func() Datum {
			return []Datum{NewInt(math.MinInt64), NewInt(math.MaxInt64), NewInt(0), NewInt(-1)}[rng.Intn(4)]
		},
		"float": func() Datum { return NewFloat((rng.Float64() - 0.5) * 1e6) },
		"float-edge": func() Datum {
			return []Datum{NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(math.Inf(1)),
				NewFloat(math.Inf(-1)), NewFloat(1e-300), NewFloat(-1e-300)}[rng.Intn(6)]
		},
		"string": func() Datum {
			b := make([]byte, rng.Intn(6))
			for i := range b {
				b[i] = byte(rng.Intn(4)) // heavy on 0x00/0x01 to stress escaping
			}
			return NewString(string(b))
		},
		"bool": func() Datum { return NewBool(rng.Intn(2) == 0) },
		"date": func() Datum { return NewDate(rng.Int63n(40000) - 20000) },
	}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 2000; trial++ {
				a, b := gen(), gen()
				if rng.Intn(10) == 0 {
					a = NullDatum
				}
				if rng.Intn(10) == 0 {
					b = NullDatum
				}
				want, err := Compare(a, b)
				if err != nil {
					t.Fatalf("Compare(%v, %v): %v", a, b, err)
				}
				for _, desc := range []bool{false, true} {
					ea := EncodeKey(nil, a, desc)
					eb := EncodeKey(nil, b, desc)
					got := sign(bytes.Compare(ea, eb))
					exp := sign(want)
					if desc {
						exp = -exp
					}
					if got != exp {
						t.Fatalf("EncodeKey order for (%v, %v) desc=%v: got %d want %d (%x vs %x)",
							a, b, desc, got, exp, ea, eb)
					}
				}
			}
		})
	}
}

// TestEncodeKeyConcatenation checks that multi-key concatenations order
// correctly even when an earlier string key is a prefix of another — the
// terminator must keep ("a", 9) below ("ab", 0).
func TestEncodeKeyConcatenation(t *testing.T) {
	enc := func(s string, i int64) []byte {
		b := EncodeKey(nil, NewString(s), false)
		return EncodeKey(b, NewInt(i), false)
	}
	cases := []struct {
		a, b []byte
		want int
	}{
		{enc("a", 9), enc("ab", 0), -1},
		{enc("a\x00", 0), enc("a", 9), 1},        // escaped NUL sorts above terminator
		{enc("a", 1), enc("a", 2), -1},           // tie on string falls to int
		{enc("", 5), enc("", 5), 0},              // fully equal
		{enc("a\x00b", 0), enc("a\x00c", 0), -1}, // escaping preserves inner order
	}
	for i, c := range cases {
		if got := sign(bytes.Compare(c.a, c.b)); got != c.want {
			t.Fatalf("case %d: got %d want %d", i, got, c.want)
		}
	}
}

// TestEncodeKeyNegativeZero: -0.0 and +0.0 must encode identically, so they
// remain a tie and a stable sort preserves input order, exactly as the
// Compare-based path does.
func TestEncodeKeyNegativeZero(t *testing.T) {
	pos := EncodeKey(nil, NewFloat(0), false)
	neg := EncodeKey(nil, NewFloat(math.Copysign(0, -1)), false)
	if !bytes.Equal(pos, neg) {
		t.Fatalf("+0.0 and -0.0 encode differently: %x vs %x", pos, neg)
	}
}

func TestColVecTyped(t *testing.T) {
	var v ColVec
	v.Reset(4)
	for _, d := range []Datum{NewInt(3), NullDatum, NewInt(-7), NewInt(0)} {
		v.Append(d)
	}
	if !v.Valid() || v.Typ != Int || v.Len() != 4 {
		t.Fatalf("vector state: valid=%v typ=%v len=%d", v.Valid(), v.Typ, v.Len())
	}
	if !v.Nulls.Get(1) || v.Nulls.Get(0) || !v.Nulls.Any() {
		t.Fatalf("null bitmap wrong")
	}
	if v.Ints[0] != 3 || v.Ints[2] != -7 {
		t.Fatalf("typed payloads wrong: %v", v.Ints)
	}
	for i, want := range []Datum{NewInt(3), NullDatum, NewInt(-7), NewInt(0)} {
		if got := v.Datum(i); !Equal(got, want) && !(got.IsNull() && want.IsNull()) {
			t.Fatalf("Datum(%d) = %v want %v", i, got, want)
		}
	}
}

func TestColVecLeadingNullBackfill(t *testing.T) {
	var v ColVec
	v.Reset(3)
	v.Append(NullDatum)
	v.Append(NullDatum)
	v.Append(NewFloat(1.5))
	if !v.Valid() || v.Typ != Float {
		t.Fatalf("state: valid=%v typ=%v", v.Valid(), v.Typ)
	}
	if len(v.Floats) != 3 || v.Floats[2] != 1.5 {
		t.Fatalf("backfill failed: %v", v.Floats)
	}
}

func TestColVecInvalidation(t *testing.T) {
	cases := []struct {
		name string
		ds   []Datum
	}{
		{"int-then-float", []Datum{NewInt(1), NewFloat(2.5)}},
		{"float-then-string", []Datum{NewFloat(1), NewString("x")}},
		{"nan", []Datum{NewFloat(1), NewFloat(math.NaN())}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var v ColVec
			v.Reset(len(c.ds))
			for _, d := range c.ds {
				v.Append(d)
			}
			if v.Valid() {
				t.Fatalf("vector should be invalid")
			}
			if v.Len() != len(c.ds) {
				t.Fatalf("Len = %d want %d", v.Len(), len(c.ds))
			}
		})
	}
}

func TestComparable(t *testing.T) {
	if !Comparable(Int, Float) || !Comparable(Null, String) || !Comparable(Date, Date) {
		t.Fatal("expected comparable")
	}
	if Comparable(Int, String) || Comparable(Bool, Date) {
		t.Fatal("expected incomparable")
	}
}

// TestColVecAppendSelIsAppend: appending a source's positions in one call
// leaves a vector exactly as appending their datums one by one does — the
// same values bit for bit (NaN payloads, -0.0), NULLs, type, Valid and
// Mixed — whatever state source and destination are in, and Datum reads
// every value back.
func TestColVecAppendSelIsAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gens := []func() Datum{
		func() Datum { return NewInt(rng.Int63n(9) - 4) },
		func() Datum {
			return NewFloat([]float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, math.Inf(-1)}[rng.Intn(5)])
		},
		func() Datum { return NewString(string(rune('a' + rng.Intn(3)))) },
		func() Datum { return []Datum{NewInt(1), NewFloat(2), NewBool(true), NewDate(3)}[rng.Intn(4)] },
		func() Datum { return NullDatum },
	}
	draw := func(gen func() Datum, n int) []Datum {
		ds := make([]Datum, n)
		for i := range ds {
			if ds[i] = gen(); rng.Intn(6) == 0 {
				ds[i] = NullDatum
			}
		}
		return ds
	}
	bits := func(d Datum) string { return string(EncodeRowData(nil, Row{d})) }
	for trial := 0; trial < 2000; trial++ {
		var src, got, want ColVec
		src.Reset(0)
		srcVals := draw(gens[rng.Intn(len(gens))], rng.Intn(20))
		for _, d := range srcVals {
			src.Append(d)
		}
		prefix := draw(gens[rng.Intn(len(gens))], rng.Intn(5))
		got.Reset(rng.Intn(8))
		want.Reset(0)
		for _, d := range prefix {
			got.Append(d)
			want.Append(d)
		}
		var pos []int
		if rng.Intn(3) > 0 {
			for p := range srcVals {
				if rng.Intn(2) == 0 {
					pos = append(pos, p)
				}
			}
			rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
			if pos == nil {
				pos = []int{}
			}
		}
		got.AppendSel(&src, pos)
		for j := 0; j < len(srcVals) && (pos == nil || j < len(pos)); j++ {
			p := j
			if pos != nil {
				p = pos[j]
			}
			want.Append(src.Datum(p))
			if bits(src.Datum(p)) != bits(srcVals[p]) {
				t.Fatalf("trial %d: source position %d reads %v, appended %v", trial, p, src.Datum(p), srcVals[p])
			}
		}
		if got.Len() != want.Len() || got.Valid() != want.Valid() || got.Mixed() != want.Mixed() || got.Typ != want.Typ {
			t.Fatalf("trial %d: AppendSel gives len %d valid %v mixed %v typ %v, Append %d %v %v %v",
				trial, got.Len(), got.Valid(), got.Mixed(), got.Typ, want.Len(), want.Valid(), want.Mixed(), want.Typ)
		}
		for i := 0; i < got.Len(); i++ {
			if bits(got.Datum(i)) != bits(want.Datum(i)) {
				t.Fatalf("trial %d: position %d is %v after AppendSel, %v after Append", trial, i, got.Datum(i), want.Datum(i))
			}
		}
	}
}
