package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"rfview/internal/sqltypes"
	"rfview/internal/txn"
)

// TestRangeIterKeyOrder inserts positions n…1 under a unique index, so one
// page holds them all in reverse, and reads them back through a key-range
// Iter: Next and NextBatch must yield them ascending with the page's columns
// cached and not. An uncached run decodes just its own records and leaves
// the cache alone; a cached one decodes nothing.
func TestRangeIterKeyOrder(t *testing.T) {
	const n = 40
	tb := newPagedTestTable(t, 0)
	h, err := tb.AddIndex("pk", []int{0}, true)
	if err != nil {
		t.Fatal(err)
	}
	for p := int64(n); p >= 1; p-- {
		if _, err := insertRow(tb, row(p, 10*p)); err != nil {
			t.Fatal(err)
		}
	}
	ascending := func(phase string, got []int64, st IterStats, decoded int64) {
		t.Helper()
		for i, p := range got {
			if p != int64(i+1) {
				t.Fatalf("%s: position %d at index %d of %v", phase, p, i, got)
			}
		}
		if len(got) != n || st.Pages != 1 || st.Decoded != decoded {
			t.Fatalf("%s: %d rows, stats %+v; want %d rows on 1 page, %d decoded", phase, len(got), st, n, decoded)
		}
	}
	read := func(phase string, decoded int64) {
		t.Helper()
		it := tb.RangeIterAt(h, nil, nil, tb.Latest())
		var got []int64
		for {
			_, r, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if r == nil {
				break
			}
			got = append(got, r[0].Int())
		}
		it.Close()
		ascending(phase+" Next", got, it.Stats(), decoded)

		it = tb.RangeIterAt(h, nil, nil, tb.Latest())
		defer it.Close()
		got = got[:0]
		var b sqltypes.Batch
		for {
			ok, err := it.NextBatch([]int{0, 1}, &b)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			for i := 0; i < b.N; i++ {
				if p, v := b.Cols[0].Ints[i], b.Cols[1].Ints[i]; v == 10*p {
					got = append(got, p)
				}
			}
		}
		ascending(phase+" NextBatch", got, it.Stats(), decoded)
	}

	read("uncached", n)
	if cached := tb.heap.pager.Stats().ColumnCacheBytes; cached != 0 {
		t.Fatalf("key-order reads cached %d bytes of page columns", cached)
	}
	if _, _, err := drain(tb.IterAt(tb.Latest())); err != nil { // caches the page's columns
		t.Fatal(err)
	}
	if tb.heap.pager.Stats().ColumnCacheBytes == 0 {
		t.Fatal("a heap-order scan cached no page columns")
	}
	read("cached", 0)
}

// TestReadFailureIsAnError makes the heap file's reads fail once a starved
// pool has evicted the table's first pages: a key-range Iter, a heap-order
// Iter and an index build each return an error wrapping the read failure.
func TestReadFailureIsAnError(t *testing.T) {
	tb := newPagedTestTable(t, 2*MinPageSize)
	pad := sqltypes.NewString(strings.Repeat("x", 100))
	for i := int64(0); i < 100; i++ {
		if _, err := insertRow(tb, sqltypes.Row{sqltypes.NewInt(i), pad}); err != nil {
			t.Fatal(err)
		}
	}
	h, err := tb.AddIndex("pk", []int{0}, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.heap.pager.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	if err := tb.heap.hf.f.Close(); err != nil { // every later page read fails
		t.Fatal(err)
	}
	failed := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, os.ErrClosed) {
			t.Fatalf("%s over an unreadable heap: %v, want an error wrapping %v", what, err, os.ErrClosed)
		}
	}
	_, _, err = drain(tb.RangeIterAt(h, row(0), row(0), tb.Latest()))
	failed("key-range Iter", err)
	_, _, err = drain(tb.IterAt(tb.Latest()))
	failed("heap-order Iter", err)
	_, err = tb.AddIndex("by_pad", []int{1}, false)
	failed("AddIndex", err)
}

// BenchmarkIndexRange walks a unique (part, pos) index through the key-range
// Iter, reading rows as Next hands them over: a 1-row lookup and a 200-row
// range, with the pages' columns cached (no budget, after a heap-order scan)
// and under a budget the resident pages fill, which refuses every charge for
// cached columns; each walk on a new iterator, closed after it, or on one
// iterator Seek re-aims without closing it, as an index join's probes are.
func BenchmarkIndexRange(b *testing.B) {
	const parts, n = 5, 2000
	for _, budgeted := range []bool{false, true} {
		budget := &testBudget{}
		p := newTestPager(b, DefaultPageSize, 0, budget)
		tb, err := NewPagedTable(txn.NewClock(), p, "seq")
		if err != nil {
			b.Fatal(err)
		}
		h, err := tb.AddIndex("pk", []int{0, 1}, true)
		if err != nil {
			b.Fatal(err)
		}
		tx := tb.Clock().Begin()
		for g := int64(0); g < parts; g++ {
			for pos := int64(1); pos <= n; pos++ {
				if _, err := tb.InsertTx(tx, row(g, pos, pos*pos)); err != nil {
					b.Fatal(err)
				}
			}
		}
		tb.Clock().Commit(tx, nil)
		if budgeted {
			budget.limit = budget.used // the pages fill it
		}
		if _, _, err := drain(tb.IterAt(tb.Latest())); err != nil {
			b.Fatal(err)
		}
		if cached := p.Stats().ColumnCacheBytes; (cached == 0) != budgeted {
			b.Fatalf("budget %v: %d bytes of cached page columns", budgeted, cached)
		}
		for _, c := range []struct {
			rows int64
			seek bool
		}{{1, false}, {200, false}, {1, true}, {200, true}} {
			rows := c.rows
			b.Run(fmt.Sprintf("rows=%d/budget=%v/seek=%v", rows, budgeted, c.seek), func(b *testing.B) {
				b.ReportAllocs()
				snap := tb.Latest()
				it := tb.RangeIterAt(h, row(0), row(0), snap)
				for i := 0; i < b.N; i++ {
					lo := 1 + int64(i)%(n-rows)
					if c.seek {
						it.Seek(row(2, lo), row(2, lo+rows-1), snap)
					} else {
						it.Close()
						it = tb.RangeIterAt(h, row(2, lo), row(2, lo+rows-1), snap)
					}
					got := int64(0)
					for {
						_, r, err := it.Next()
						if err != nil {
							b.Fatal(err)
						}
						if r == nil {
							break
						}
						got += r[1].Int()
					}
					if want := rows * (2*lo + rows - 1) / 2; got != want {
						b.Fatalf("positions %d…%d sum to %d, want %d", lo, lo+rows-1, got, want)
					}
				}
				it.Close()
			})
		}
	}
}

// BenchmarkIndexBytes reports the resident bytes per row of a unique
// (part, pos) index over 400 000 three-INTEGER rows — the live heap's growth
// across AddIndex, after a GC — built over rows stored in key order and in a
// permuted order. Run it with -benchtime 1x.
func BenchmarkIndexBytes(b *testing.B) {
	const n = 400_000
	for _, permuted := range []bool{false, true} {
		b.Run(fmt.Sprintf("permuted=%v", permuted), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tb, err := NewPagedTable(txn.NewClock(), newTestPager(b, DefaultPageSize, 0, &testBudget{}), "seq")
				if err != nil {
					b.Fatal(err)
				}
				order := rand.New(rand.NewSource(1)).Perm(n)
				if !permuted {
					slices.Sort(order)
				}
				tx := tb.Clock().Begin()
				for _, k := range order {
					if _, err := tb.InsertTx(tx, row(int64(k/1000), int64(k%1000), int64(k))); err != nil {
						b.Fatal(err)
					}
				}
				tb.Clock().Commit(tx, nil)
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				if _, err := tb.AddIndex("pk", []int{0, 1}, true); err != nil {
					b.Fatal(err)
				}
				runtime.GC()
				runtime.ReadMemStats(&after)
				b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/n, "B/row")
				runtime.KeepAlive(tb)
			}
		})
	}
}
