package sqltypes

import (
	"bytes"
	"cmp"
	"math"
	"testing"
)

// orderDraw is the values whose order is hardest to get right: several NaN
// payloads, ±0, ±Inf, ±MaxFloat64, the INTEGERs around ±2⁵³ whose float64
// image rounds, MinInt64 and MaxInt64, and the FLOATs ±2⁶³ just past int64.
func orderDraw() []Datum {
	floats := []float64{math.NaN(), -math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000123),
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		1, -1, 0.5, 1 << 53, -1 << 53, 1<<53 + 2, 1 << 63, -1 << 63}
	ints := []int64{0, 1, -1, 1<<53 - 1, 1 << 53, 1<<53 + 1, -1<<53 - 1, -1 << 53, -1<<53 + 1, math.MinInt64, math.MaxInt64,
		math.MaxInt64 - 1, math.MinInt64 + 1}
	draw := []Datum{NullDatum}
	for _, f := range floats {
		draw = append(draw, NewFloat(f))
	}
	for _, i := range ints {
		draw = append(draw, NewInt(i))
	}
	return draw
}

// TestCompareIsATotalOrder: Compare is antisymmetric and transitive over the
// draw, Equal is its zero, and everything else that compares — Hash, Key,
// OrderWords, AppendKey and EncodeKeyNulls — agrees with it.
func TestCompareIsATotalOrder(t *testing.T) {
	draw := orderDraw()
	compare := func(a, b Datum) int {
		c, err := Compare(a, b)
		if err != nil {
			t.Fatalf("Compare(%v, %v): %v", a, b, err)
		}
		return c
	}
	for _, a := range draw {
		for _, b := range draw {
			c := compare(a, b)
			if compare(b, a) != -c {
				t.Fatalf("Compare(%v, %v) = %d but Compare(%v, %v) = %d", a, b, c, b, a, compare(b, a))
			}
			if Equal(a, b) != (c == 0) {
				t.Fatalf("Equal(%v, %v) = %v, Compare = %d", a, b, Equal(a, b), c)
			}
			if (a.Key() == b.Key()) != (c == 0) {
				t.Fatalf("keys of %v (%v) and %v (%v) disagree with Compare = %d", a, a.Key(), b, b.Key(), c)
			}
			if c == 0 && a.Hash() != b.Hash() {
				t.Fatalf("%v and %v are Equal but hash apart", a, b)
			}
			for _, x := range draw {
				if c <= 0 && compare(b, x) <= 0 && compare(a, x) > 0 {
					t.Fatalf("not transitive: %v <= %v <= %v but %v > %v", a, b, x, a, x)
				}
			}
		}
	}

	// The words and keys of a column: the whole draw (an INTEGER/FLOAT mix,
	// boxed), its FLOATs and its INTEGERs (typed), under both directions and
	// NULL placements.
	var mixed, floats, ints []Datum
	for _, d := range draw {
		mixed = append(mixed, d)
		if d.Typ() != Int {
			floats = append(floats, d)
		}
		if d.Typ() != Float {
			ints = append(ints, d)
		}
	}
	for name, col := range map[string][]Datum{"mixed": mixed, "float": floats, "int": ints} {
		var v ColVec
		v.Reset(len(col))
		for _, d := range col {
			v.Append(d)
		}
		if v.Mixed() != (name == "mixed") {
			t.Fatalf("%s column: Mixed() = %v", name, v.Mixed())
		}
		if err := v.CheckOrder(); err != nil {
			t.Fatalf("%s column: %v", name, err)
		}
		pos := make([]int, len(col))
		for i := range pos {
			pos[i] = i
		}
		for _, desc := range []bool{false, true} {
			for _, nullsLast := range []bool{false, true} {
				words := make([]uint64, 3*len(col))
				w := v.OrderWords(pos, desc, nullsLast, words, 3)
				for i, a := range col {
					for j, b := range col {
						want := compare(a, b)
						if a.IsNull() != b.IsNull() {
							want = -1
							if a.IsNull() == nullsLast {
								want = 1
							}
						} else if desc {
							want = -want
						}
						got := 0
						for k := 0; k < w && got == 0; k++ {
							got = cmp.Compare(words[3*i+k], words[3*j+k])
						}
						if got != want {
							t.Fatalf("%s column desc=%v nullsLast=%v: order words of %v and %v order %d, want %d", name, desc, nullsLast, a, b, got, want)
						}
						ka, kb := v.AppendKey(nil, i, desc, nullsLast), v.AppendKey(nil, j, desc, nullsLast)
						if got := bytes.Compare(ka, kb); got != want {
							t.Fatalf("%s column desc=%v nullsLast=%v: keys of %v and %v order %d, want %d", name, desc, nullsLast, a, b, got, want)
						}
						ea, eb := EncodeKeyNulls(nil, a, desc, nullsLast), EncodeKeyNulls(nil, b, desc, nullsLast)
						if got := bytes.Compare(ea, eb); got != want {
							t.Fatalf("%s column desc=%v nullsLast=%v: EncodeKeyNulls of %v and %v order %d, want %d", name, desc, nullsLast, a, b, got, want)
						}
					}
				}
			}
		}
	}
}
