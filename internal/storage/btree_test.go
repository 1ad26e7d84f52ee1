package storage

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"rfview/internal/sqltypes"
)

// enc encodes a key or probe as the table does.
func enc(key ...sqltypes.Datum) string { return string(appendKey(nil, key)) }

func intKey(v int64) string { return enc(sqltypes.NewInt(v)) }

func TestBTreeInsertLookup(t *testing.T) {
	bt := NewBTree()
	for i := int64(0); i < 1000; i++ {
		bt.Insert(intKey(i*2), RowID(i))
	}
	if bt.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", bt.Len())
	}
	if err := bt.check(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 1000; i++ {
		n := 0
		bt.Range([]byte(intKey(i*2)), []byte(intKey(i*2)), func(id RowID) bool {
			if id != RowID(i) {
				t.Fatalf("Lookup(%d) yields %d, want %d", i*2, id, i)
			}
			n++
			return true
		})
		if n != 1 {
			t.Fatalf("Lookup(%d) yields %d ids, want 1", i*2, n)
		}
	}
	for _, k := range []int64{1, -5, 99999} {
		bt.Range([]byte(intKey(k)), []byte(intKey(k)), func(id RowID) bool {
			t.Errorf("Lookup(%d) yields %d, want a miss", k, id)
			return false
		})
	}
}

func TestBTreeDuplicates(t *testing.T) {
	bt := NewBTree()
	for i := int64(0); i < 300; i++ {
		bt.Insert(intKey(i%7), RowID(i))
	}
	count := 0
	bt.Range([]byte(intKey(3)), []byte(intKey(3)), func(id RowID) bool {
		if id%7 != 3 {
			t.Fatalf("Lookup(3) yielded id %d", id)
		}
		count++
		return true
	})
	// ids 3, 10, 17, ... < 300: ceil((300-3)/7) = 43.
	if count != 43 {
		t.Fatalf("Lookup(3) yielded %d entries, want 43", count)
	}
	// Delete one specific duplicate and verify the rest survive.
	bt.Delete(intKey(3), RowID(10))
	count = 0
	bt.Range([]byte(intKey(3)), []byte(intKey(3)), func(id RowID) bool {
		if id == 10 {
			t.Fatal("deleted entry still visible")
		}
		count++
		return true
	})
	if count != 42 {
		t.Fatalf("after delete: %d entries, want 42", count)
	}
	if err := bt.check(); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeRange(t *testing.T) {
	bt := NewBTree()
	for i := int64(1); i <= 500; i++ {
		bt.Insert(intKey(i), RowID(i))
	}
	var got []int64
	bt.Range([]byte(intKey(100)), []byte(intKey(110)), func(id RowID) bool {
		got = append(got, int64(id)) // the id is the key
		return true
	})
	if len(got) != 11 || got[0] != 100 || got[10] != 110 {
		t.Fatalf("Range(100,110) = %v", got)
	}
	// Open lower bound.
	got = got[:0]
	bt.Range(nil, []byte(intKey(3)), func(id RowID) bool {
		got = append(got, int64(id))
		return true
	})
	if len(got) != 3 || got[0] != 1 {
		t.Fatalf("Range(nil,3) = %v", got)
	}
	// Open upper bound.
	n := 0
	bt.Range([]byte(intKey(495)), nil, func(RowID) bool { n++; return true })
	if n != 6 {
		t.Fatalf("Range(495,nil) yielded %d, want 6", n)
	}
	// Early termination.
	n = 0
	bt.Range(nil, nil, func(RowID) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early-terminated range yielded %d, want 5", n)
	}
}

func TestBTreeOrderedIteration(t *testing.T) {
	bt := NewBTree()
	rng := rand.New(rand.NewSource(3))
	vals := rng.Perm(2000)
	for i, v := range vals {
		bt.Insert(intKey(int64(v)), RowID(i))
	}
	prev := int64(-1)
	bt.Range(nil, nil, func(id RowID) bool {
		if v := int64(vals[id]); v <= prev {
			t.Fatalf("out of order: %d after %d", v, prev)
		}
		prev = int64(vals[id])
		return true
	})
	if prev != 1999 {
		t.Fatalf("last key %d, want 1999", prev)
	}
}

func TestBTreeDeleteRebalance(t *testing.T) {
	bt := NewBTree()
	const n = 5000
	rng := rand.New(rand.NewSource(5))
	perm := rng.Perm(n)
	for _, v := range perm {
		bt.Insert(intKey(int64(v)), RowID(v))
	}
	if err := bt.check(); err != nil {
		t.Fatal(err)
	}
	// Delete in a different random order, checking invariants as we go.
	perm2 := rng.Perm(n)
	for i, v := range perm2 {
		bt.Delete(intKey(int64(v)), RowID(v))
		if i%500 == 0 {
			if err := bt.check(); err != nil {
				t.Fatalf("after %d deletes: %v", i+1, err)
			}
		}
	}
	if bt.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", bt.Len())
	}
	count := 0
	bt.Range(nil, nil, func(RowID) bool { count++; return true })
	if count != 0 {
		t.Fatalf("empty tree yielded %d entries", count)
	}
}

func TestBTreeDeleteAbsent(t *testing.T) {
	bt := NewBTree()
	bt.Insert(intKey(1), 1)
	bt.Delete(intKey(2), 2) // absent key: no-op
	bt.Delete(intKey(1), 9) // right key, wrong row id: no-op
	if bt.Len() != 1 {
		t.Fatalf("Len = %d, want 1", bt.Len())
	}
}

func TestBTreeCompositeKeys(t *testing.T) {
	bt := NewBTree()
	for a := int64(1); a <= 10; a++ {
		for b := int64(1); b <= 10; b++ {
			bt.Insert(enc(sqltypes.NewInt(a), sqltypes.NewInt(b)), RowID(a*100+b))
		}
	}
	// Prefix lookup: all entries with first column = 4.
	n := 0
	bt.Range([]byte(intKey(4)), []byte(intKey(4)), func(id RowID) bool {
		if id/100 != 4 {
			t.Fatalf("prefix lookup yielded %d", id)
		}
		n++
		return true
	})
	if n != 10 {
		t.Fatalf("prefix lookup yielded %d entries, want 10", n)
	}
	// Exact composite lookup.
	n = 0
	k73 := enc(sqltypes.NewInt(7), sqltypes.NewInt(3))
	bt.Range([]byte(k73), []byte(k73), func(id RowID) bool {
		if id != 703 {
			t.Fatalf("Lookup((7,3)) yields %d", id)
		}
		n++
		return true
	})
	if n != 1 {
		t.Fatalf("Lookup((7,3)) yields %d ids, want 1", n)
	}
}

func TestBTreeStringKeys(t *testing.T) {
	bt := NewBTree()
	words := []string{"delta", "alpha", "echo", "charlie", "bravo"}
	for i, w := range words {
		bt.Insert(enc(sqltypes.NewString(w)), RowID(i))
	}
	var got []string
	bt.Range(nil, nil, func(id RowID) bool {
		got = append(got, words[id])
		return true
	})
	want := append([]string(nil), words...)
	sort.Strings(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// keyValues are the values the property test draws index keys from, per
// column class: a column holds numbers (INTEGER and FLOAT mixed, with the
// values a float image confuses) or VARCHARs (with 0x00 bytes, which the
// encoding escapes), and NULLs in either.
var keyValues = [2][]sqltypes.Datum{
	{
		sqltypes.NullDatum, sqltypes.NewInt(0), sqltypes.NewInt(-1), sqltypes.NewInt(2),
		sqltypes.NewInt(1<<53 - 1), sqltypes.NewInt(1 << 53), sqltypes.NewInt(1<<53 + 1),
		sqltypes.NewInt(math.MinInt64), sqltypes.NewInt(math.MaxInt64),
		sqltypes.NewFloat(0), sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.NewFloat(math.NaN()),
		sqltypes.NewFloat(math.Inf(1)), sqltypes.NewFloat(math.Inf(-1)), sqltypes.NewFloat(2),
		sqltypes.NewFloat(2.5), sqltypes.NewFloat(1<<53 - 1), sqltypes.NewFloat(1 << 53),
		sqltypes.NewFloat(1<<53 + 2),
	},
	{
		sqltypes.NullDatum, sqltypes.NewString(""), sqltypes.NewString("\x00"),
		sqltypes.NewString("\x00\x00"), sqltypes.NewString("\x00\x01"), sqltypes.NewString("\x01"),
		sqltypes.NewString("a"), sqltypes.NewString("a\x00"), sqltypes.NewString("a\x00b"),
		sqltypes.NewString("ab"), sqltypes.NewString("b"), sqltypes.NewString("\xff"),
	},
}

func TestCompareKeyPrefix(t *testing.T) {
	full := enc(sqltypes.NewInt(3), sqltypes.NewInt(7))
	if compareKeyPrefix(full, []byte(intKey(3))) != 0 {
		t.Error("prefix probe should compare equal")
	}
	if compareKeyPrefix(full, []byte(intKey(4))) >= 0 {
		t.Error("(3,7) should sort before probe (4)")
	}
	if compareKeyPrefix(full, []byte(full)) != 0 {
		t.Error("identical keys should compare equal")
	}
	if compareKeyPrefix(full, nil) != 0 {
		t.Error("an empty probe should compare equal to every key")
	}
}

// Property test: the B+tree agrees with a reference — entries ordered
// column by column by sqltypes.Compare, then by row id — under random
// insert/delete interleavings of two-column keys, in its full walk and in
// prefix ranges of one and two columns, and its invariants hold.
func TestQuickBTreeVsReference(t *testing.T) {
	type entry struct {
		key sqltypes.Row
		id  RowID
	}
	// cmpPrefix is compareKeyPrefix over datums: only probe's columns count.
	cmpPrefix := func(key, probe sqltypes.Row) int {
		for i := range probe {
			c, err := sqltypes.Compare(key[i], probe[i])
			if err != nil {
				t.Fatal(err)
			}
			if c != 0 {
				return c
			}
		}
		return 0
	}
	type op struct {
		A, B, C, N uint8
		Insert     bool
	}
	f := func(classes uint8, ops []op) bool {
		vals := [2][]sqltypes.Datum{keyValues[classes&1], keyValues[classes>>1&1]}
		val := func(col int, i uint8) sqltypes.Datum { return vals[col][int(i)%len(vals[col])] }
		bt := NewBTree()
		var ref []entry
		var next RowID
		for _, o := range ops {
			for j := uint8(0); j <= o.N%32; j++ {
				if o.Insert || len(ref) == 0 {
					k := sqltypes.Row{val(0, o.A+j), val(1, o.B+3*j)}
					bt.Insert(enc(k...), next)
					ref = append(ref, entry{k, next})
					next++
					continue
				}
				// Delete through an equal key of another type where there
				// is one (2 for 2.0, +0 for -0): the bytes must match.
				i := (int(o.C) + 7*int(j)) % len(ref)
				e, k := ref[i], slices.Clone(ref[i].key)
				for c := range k {
					for _, v := range vals[c] {
						if sqltypes.Equal(v, k[c]) && v.Typ() != k[c].Typ() {
							k[c] = v
						}
					}
				}
				if bt.Delete(enc(k...), e.id+1<<20) || !bt.Delete(enc(k...), e.id) {
					return false
				}
				ref = slices.Delete(ref, i, i+1)
			}
		}
		if bt.check() != nil || bt.Len() != len(ref) {
			return false
		}
		slices.SortFunc(ref, func(a, b entry) int {
			if c := cmpPrefix(a.key, b.key); c != 0 {
				return c
			}
			return int(a.id - b.id)
		})
		// walk compares Range(from, to) with the reference entries in it.
		walk := func(from, to sqltypes.Row) bool {
			var want, got []RowID
			for _, e := range ref {
				if cmpPrefix(e.key, from) >= 0 && cmpPrefix(e.key, to) <= 0 {
					want = append(want, e.id)
				}
			}
			bt.Range(appendKey(nil, from), appendKey(nil, to), func(id RowID) bool {
				got = append(got, id)
				return true
			})
			return slices.Equal(got, want)
		}
		if !walk(nil, nil) {
			return false
		}
		for _, o := range ops {
			lo, hi := val(0, o.A), val(0, o.B)
			if !walk(sqltypes.Row{lo}, sqltypes.Row{hi}) || !walk(sqltypes.Row{lo}, sqltypes.Row{lo}) ||
				!walk(nil, sqltypes.Row{hi}) || !walk(sqltypes.Row{lo}, nil) ||
				!walk(sqltypes.Row{lo, val(1, o.C)}, sqltypes.Row{lo, val(1, o.N)}) ||
				!walk(sqltypes.Row{lo, val(1, o.C)}, sqltypes.Row{hi}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
