package storage

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"rfview/internal/sqltypes"
)

func intKey(v int64) sqltypes.Row { return sqltypes.Row{sqltypes.NewInt(v)} }

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
		bt.Lookup(intKey(i*2), func(id RowID) bool {
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
		bt.Lookup(intKey(k), func(id RowID) bool {
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
	bt.Lookup(intKey(3), func(id RowID) bool {
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
	bt.Lookup(intKey(3), func(id RowID) bool {
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
	bt.Range(intKey(100), intKey(110), func(key sqltypes.Row, _ RowID) bool {
		got = append(got, key[0].Int())
		return true
	})
	if len(got) != 11 || got[0] != 100 || got[10] != 110 {
		t.Fatalf("Range(100,110) = %v", got)
	}
	// Open lower bound.
	got = got[:0]
	bt.Range(nil, intKey(3), func(key sqltypes.Row, _ RowID) bool {
		got = append(got, key[0].Int())
		return true
	})
	if len(got) != 3 || got[0] != 1 {
		t.Fatalf("Range(nil,3) = %v", got)
	}
	// Open upper bound.
	n := 0
	bt.Range(intKey(495), nil, func(sqltypes.Row, RowID) bool { n++; return true })
	if n != 6 {
		t.Fatalf("Range(495,nil) yielded %d, want 6", n)
	}
	// Early termination.
	n = 0
	bt.Range(nil, nil, func(sqltypes.Row, RowID) bool { n++; return n < 5 })
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
	bt.Range(nil, nil, func(key sqltypes.Row, _ RowID) bool {
		if key[0].Int() <= prev {
			t.Fatalf("out of order: %d after %d", key[0].Int(), prev)
		}
		prev = key[0].Int()
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
	bt.Range(nil, nil, func(sqltypes.Row, RowID) bool { count++; return true })
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
			bt.Insert(sqltypes.Row{sqltypes.NewInt(a), sqltypes.NewInt(b)}, RowID(a*100+b))
		}
	}
	// Prefix lookup: all entries with first column = 4.
	n := 0
	bt.Lookup(intKey(4), func(id RowID) bool {
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
	bt.Lookup(sqltypes.Row{sqltypes.NewInt(7), sqltypes.NewInt(3)}, func(id RowID) bool {
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
		bt.Insert(sqltypes.Row{sqltypes.NewString(w)}, RowID(i))
	}
	var got []string
	bt.Range(nil, nil, func(key sqltypes.Row, _ RowID) bool {
		got = append(got, key[0].Str())
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

// Property test: the B+tree agrees with a reference map under random
// insert/delete interleavings, and invariants hold throughout.
func TestQuickBTreeVsReference(t *testing.T) {
	type op struct {
		Key    int16
		ID     uint8
		Insert bool
	}
	f := func(ops []op) bool {
		bt := NewBTree()
		ref := make(map[[2]int64]bool)
		for _, o := range ops {
			k := [2]int64{int64(o.Key % 50), int64(o.ID % 20)}
			if o.Insert && !ref[k] {
				bt.Insert(intKey(k[0]), RowID(k[1]))
				ref[k] = true
			} else if !o.Insert && ref[k] {
				bt.Delete(intKey(k[0]), RowID(k[1]))
				delete(ref, k)
			}
		}
		if bt.check() != nil {
			return false
		}
		if bt.Len() != len(ref) {
			return false
		}
		seen := 0
		okAll := true
		bt.Range(nil, nil, func(key sqltypes.Row, id RowID) bool {
			seen++
			if !ref[[2]int64{key[0].Int(), int64(id)}] {
				okAll = false
			}
			return true
		})
		return okAll && seen == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
