package exec

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rfview/internal/expr"
	"rfview/internal/sqltypes"
)

// The typed sort is an LSD radix sort over order words (keys.go). These
// tests hold it to a stable library sort over sqltypes.Compare, written out
// independently of the order words, on every shape the words must get right:
// signed extremes, ±0.0, ±Inf and NaN, INTEGER/FLOAT mixes around 2⁵³ and
// 2⁶³, NULL placement under ASC and DESC, keys
// equal on every byte (no pass at all), a tie vector, record counts on both
// sides of radixCutoff and one count past 65 536.

// specialInts and specialFloats are the values whose order words sit at the
// edges of the word space, or whose float64 image rounds.
var (
	specialInts = []int64{math.MinInt64, math.MinInt64 + 1, -1 << 53, -1, 0, 1, 1<<53 - 1, 1 << 53, 1<<53 + 1,
		math.MaxInt64 - 1, math.MaxInt64}
	specialFloats = []float64{math.Inf(-1), -math.MaxFloat64, -1 << 63, -1, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 1, 1 << 53, 1<<53 + 2, 1 << 63, math.MaxFloat64, math.Inf(1), math.NaN(), -math.NaN()}
)

// refNullsLast is the absolute NULL placement of one key, spelled out from
// the SQL rule rather than from SortKey.nullsLast.
func refNullsLast(k SortKey) bool {
	if k.Nulls == NullsAuto {
		return k.Desc
	}
	return k.Nulls == NullsLast
}

// refCompareKeys orders two key tuples: NULL placement first, then
// sqltypes.Compare, negated under DESC. It returns the order and the number
// of leading keys the tuples tie on.
func refCompareKeys(a, b []sqltypes.Datum, keys []SortKey) (int, int) {
	for ki, k := range keys {
		x, y := a[ki], b[ki]
		var c int
		switch {
		case x.IsNull() && y.IsNull():
		case x.IsNull() || y.IsNull():
			c = 1
			if x.IsNull() != refNullsLast(k) {
				c = -1
			}
		default:
			c, _ = sqltypes.Compare(x, y)
			if k.Desc {
				c = -c
			}
		}
		if c != 0 {
			return c, ki
		}
	}
	return 0, len(keys)
}

// radixCase is one draw: key columns of datums, indexed by position.
type radixCase struct {
	cols [][]sqltypes.Datum // cols[key][position]
	keys []SortKey
	pos  []int   // arrival order of the positions
	tie  []int64 // nil, or a tie rank per position
}

func (c *radixCase) tuple(p int) []sqltypes.Datum {
	t := make([]sqltypes.Datum, len(c.cols))
	for ki := range c.cols {
		t[ki] = c.cols[ki][p]
	}
	return t
}

func (c *radixCase) String() string {
	return fmt.Sprintf("n=%d keys=%d tie=%v", len(c.pos), len(c.keys), c.tie != nil)
}

// want is the reference order of c.pos: stable, by the keys, then the tie.
func (c *radixCase) want() []int {
	want := slices.Clone(c.pos)
	slices.SortStableFunc(want, func(a, b int) int {
		if r, _ := refCompareKeys(c.tuple(a), c.tuple(b), c.keys); r != 0 || c.tie == nil {
			return r
		}
		return cmp.Compare(c.tie[a], c.tie[b])
	})
	return want
}

// checkSortByVecs runs the typed sort on c and compares it with the
// reference.
func checkSortByVecs(t *testing.T, c *radixCase) {
	t.Helper()
	vecs := make([]sqltypes.ColVec, len(c.cols))
	for ki, col := range c.cols {
		vecs[ki].Reset(len(col))
		for _, d := range col {
			vecs[ki].Append(d)
		}
	}
	if path, err := keyPath(vecs); err != nil || path != sortTyped {
		t.Fatalf("%v: draw does not take the typed path: %v", c, err)
	}
	lay := newRecLayout(c.keys, vecs)
	got := slices.Clone(c.pos)
	sortByVecs(sortTyped, &lay, got, c.tie, new(sortScratch))
	if want := c.want(); !slices.Equal(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: position %d: got %d %v, want %d %v", c, i, got[i], c.tuple(got[i]), want[i], c.tuple(want[i]))
			}
		}
	}
}

// drawColumn draws n datums of one fixed-width type: few distinct values
// (heavy ties), the special values, or the full 64-bit range.
func drawColumn(rng *rand.Rand, n int, float bool, nullRate float64, domain int) []sqltypes.Datum {
	col := make([]sqltypes.Datum, n)
	constant := rng.Int63()
	for i := range col {
		if rng.Float64() < nullRate {
			continue // NullDatum
		}
		switch {
		case domain == 0 && float:
			col[i] = sqltypes.NewFloat(float64(constant))
		case domain == 0:
			col[i] = sqltypes.NewInt(constant)
		case float && domain == 1 && rng.Intn(3) == 0: // an INTEGER/FLOAT mix
			col[i] = sqltypes.NewInt(specialInts[rng.Intn(len(specialInts))])
		case float && domain == 1:
			col[i] = sqltypes.NewFloat(specialFloats[rng.Intn(len(specialFloats))])
		case float && domain == 2:
			col[i] = sqltypes.NewFloat(float64(rng.Intn(5)) - 2)
		case float:
			col[i] = sqltypes.NewFloat(math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(2046)+1)<<52))
		case domain == 1:
			col[i] = sqltypes.NewInt(specialInts[rng.Intn(len(specialInts))])
		case domain == 2:
			col[i] = sqltypes.NewInt(int64(rng.Intn(5)))
		default:
			col[i] = sqltypes.NewInt(int64(rng.Uint64()))
		}
	}
	return col
}

// drawRadixCase draws n positions under 1–3 keys.
func drawRadixCase(rng *rand.Rand, n int) *radixCase {
	c := &radixCase{pos: rng.Perm(n)}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		nullRate := []float64{0, 0, 0.2, 1}[rng.Intn(4)]
		c.cols = append(c.cols, drawColumn(rng, n, rng.Intn(2) == 0, nullRate, rng.Intn(4)))
		c.keys = append(c.keys, SortKey{Desc: rng.Intn(2) == 0, Nulls: NullsPlacement(rng.Intn(3))})
	}
	if rng.Intn(2) == 0 {
		c.tie = make([]int64, n)
		bound := []int64{3, int64(n) + 1, 1 << 31}[rng.Intn(3)]
		for p := range c.tie {
			c.tie[p] = rng.Int63n(bound)
		}
	}
	return c
}

// TestSortByVecsMatchesReference is the radix sort's property test.
func TestSortByVecsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	sizes := []int{2, 3, radixCutoff - 1, radixCutoff, radixCutoff + 1, 100, 1000}
	for trial := 0; trial < 400; trial++ {
		checkSortByVecs(t, drawRadixCase(rng, sizes[trial%len(sizes)]))
	}
	// All-equal keys: every byte is skipped and arrival order is the answer.
	eq := &radixCase{
		cols: [][]sqltypes.Datum{drawColumn(rng, 500, false, 0, 0), drawColumn(rng, 500, true, 1, 0)},
		keys: []SortKey{{}, {Desc: true}},
		pos:  rng.Perm(500),
	}
	checkSortByVecs(t, eq)
	// Past 65 536 records, with full-range keys and ranks, so every byte digit
	// of the value word and of the tie rank runs a pass over large counts.
	const big = 70000
	for _, float := range []bool{false, true} {
		c := &radixCase{cols: [][]sqltypes.Datum{drawColumn(rng, big, float, 0.01, 3)}, keys: []SortKey{{Desc: float}}, pos: rng.Perm(big), tie: make([]int64, big)}
		for p := range c.tie {
			c.tie[p] = rng.Int63n(1 << 31)
		}
		checkSortByVecs(t, c)
	}
}

// TestSortRowsByKeysMatchesReference holds the row sort — exec.Sort's and
// the shared class sort's entry point — to the same reference, and checks
// the adjacency table it records for a class.
func TestSortRowsByKeysMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2027))
	schema := expr.NewSchema(
		expr.ColInfo{Name: "k0", Type: sqltypes.Int},
		expr.ColInfo{Name: "k1", Type: sqltypes.Int},
		expr.ColInfo{Name: "k2", Type: sqltypes.Int},
	)
	sizes := []int{2, radixCutoff, radixCutoff + 1, 300}
	for trial := 0; trial < 120; trial++ {
		n := sizes[trial%len(sizes)]
		c := drawRadixCase(rng, n)
		c.tie = nil
		rows := make([]sqltypes.Row, n)
		for p := range rows {
			rows[p] = c.tuple(p)
		}
		for ki := range c.keys {
			c.keys[ki].Expr = mustCompile(t, fmt.Sprintf("k%d", ki), schema)
		}
		got := slices.Clone(c.pos)
		meta := NewClassOrderMeta(0)
		path, err := sortRowsByKeys(rows, got, c.keys, new(sortScratch), meta)
		if err != nil || path != sortTyped {
			t.Fatalf("%v: path %v, err %v", c, path, err)
		}
		want := c.want()
		if !slices.Equal(got, want) {
			t.Fatalf("%v: got %v, want %v", c, got, want)
		}
		if !meta.valid {
			t.Fatalf("%v: class metadata not recorded", c)
		}
		for i := 1; i < n; i++ {
			if _, depth := refCompareKeys(c.tuple(want[i-1]), c.tuple(want[i]), c.keys); meta.tieDepth[i] != int32(depth) {
				t.Fatalf("%v: tie depth at %d is %d, want %d", c, i, meta.tieDepth[i], depth)
			}
		}
	}
}

// FuzzSortByVecs drives the same check from fuzzer bytes: shape picks the
// key count, directions, NULL placements, column types, whether the FLOAT
// columns mix in INTEGERs and whether a tie vector is present; each value
// byte picks a special value (NaN among them), a NULL or a small number, and
// with a tie vector every position also takes a rank.
func FuzzSortByVecs(f *testing.F) {
	f.Add(uint16(0), []byte{1, 2, 3, 1, 2, 3})
	f.Add(uint16(0xffff), []byte("radix sort over order words, byte by byte"))
	f.Add(uint16(0x1234), make([]byte, 3*(radixCutoff+5)))
	f.Add(uint16(1<<14|1<<2), []byte{13, 14, 3, 17, 9, 10, 0xff, 12, 15, 8})
	f.Fuzz(func(t *testing.T, shape uint16, data []byte) {
		k := 1 + int(shape%3)
		mixed, tied := shape&(1<<14) != 0, shape&(1<<15) != 0
		stride := k
		if tied {
			stride++
		}
		n := len(data) / stride
		if n < 2 {
			return
		}
		c := &radixCase{pos: make([]int, n)}
		for ki := 0; ki < k; ki++ {
			bits := shape >> (2 + 4*ki)
			float := bits&1 != 0
			c.keys = append(c.keys, SortKey{Desc: bits&2 != 0, Nulls: NullsPlacement((bits >> 2) % 3)})
			col := make([]sqltypes.Datum, n)
			for p := range col {
				b := int(data[p*stride+ki])
				switch {
				case b == 0xff:
				case float && mixed && b%2 == 1:
					col[p] = sqltypes.NewInt(specialInts[b/2%len(specialInts)])
				case float && b < len(specialFloats):
					col[p] = sqltypes.NewFloat(specialFloats[b])
				case float:
					col[p] = sqltypes.NewFloat(float64(b) / 4)
				case b < len(specialInts):
					col[p] = sqltypes.NewInt(specialInts[b])
				default:
					col[p] = sqltypes.NewInt(int64(b) << (b % 56))
				}
			}
			c.cols = append(c.cols, col)
		}
		if tied {
			c.tie = make([]int64, n)
			for p := range c.tie {
				c.tie[p] = int64(data[p*stride+k]) << 23
			}
		}
		for p := range c.pos {
			c.pos[p] = (p*7 + int(shape)) % n
		}
		if n%7 == 0 {
			c.pos = rand.New(rand.NewSource(int64(shape))).Perm(n)
		}
		checkSortByVecs(t, c)
	})
}
