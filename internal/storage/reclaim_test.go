package storage

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rfview/internal/sqltypes"
	"rfview/internal/txn"
)

// TestReclaimUnderReaders runs reclamation while registered readers iterate
// over directory headers copied before it and probe the index at their
// snapshots. Every update is a transaction whose commit reclaims, as an
// engine commit does, and adds one to one row's value at its own epoch, so a
// snapshot at epoch e must see each key exactly once with values summing to
// e less the epoch of the load. A starved pool makes the moved-from and
// retired pages leave the pool and their pids come back as new pages while
// old headers still point into them. Run under -race.
func TestReclaimUnderReaders(t *testing.T) {
	const keys = 64
	updates := 6000
	if testing.Short() {
		updates = 1500
	}
	tb := newPagedTestTable(t, 4*MinPageSize)
	pk, err := tb.AddIndex("pk", []int{0}, true)
	if err != nil {
		t.Fatal(err)
	}
	pad := sqltypes.NewString(strings.Repeat("x", 80))
	mk := func(k, v int) sqltypes.Row {
		return sqltypes.Row{sqltypes.NewInt(int64(k)), sqltypes.NewInt(int64(v)), pad}
	}
	ids, vals := make([]RowID, keys), make([]int, keys)
	for k := range ids {
		if ids[k], err = insertRow(tb, mk(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	clock := tb.Clock()
	e0 := clock.Now()

	read := func(rng *rand.Rand) error {
		reg, epoch := clock.Register()
		defer reg.Release()
		snap := txn.Snapshot{Epoch: epoch}
		it := tb.IterAt(snap)
		defer it.Close()
		seen := make([]bool, keys)
		sum, n := 0, 0
		for {
			_, r, err := it.Next()
			if err != nil {
				return err
			}
			if r == nil {
				break
			}
			if k := int(r[0].Int()); k < 0 || k >= keys || seen[k] {
				t.Errorf("snapshot %d: key %d out of range or seen twice", epoch, k)
			} else {
				seen[k] = true
			}
			sum, n = sum+int(r[1].Int()), n+1
			if n%8 == 0 {
				runtime.Gosched() // let reclamation run under the copied header
			}
		}
		if n != keys || uint64(sum) != epoch-e0 {
			t.Errorf("snapshot %d: %d rows summing to %d, want %d rows summing to %d", epoch, n, sum, keys, epoch-e0)
		}
		for i := 0; i < 4; i++ {
			k := rng.Intn(keys)
			if id, r, err := firstAt(tb, pk, row(int64(k)), snap); err != nil || r == nil || r[0].Int() != int64(k) {
				t.Errorf("snapshot %d: probe of key %d found id %d (%v) holding %v", epoch, k, id, err, r)
			}
		}
		return nil
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := read(rng); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(31))
	reclaimed := 0
	update := func(n int) {
		for i := 0; i < n; i++ {
			k := rng.Intn(keys)
			vals[k]++
			tx := clock.Begin()
			if ids[k], err = tb.UpdateTx(tx, ids[k], mk(k, vals[k])); err != nil {
				t.Fatal(err)
			}
			clock.Commit(tx, nil)
			n, err := tx.ReclaimTouched()
			if err != nil {
				t.Fatal(err)
			}
			reclaimed += n
		}
	}
	update(updates)
	close(done)
	wg.Wait()
	// With the readers gone the passes catch up on what they kept, and then
	// hold the dead versions under the live rows and reuse the pages they
	// retire: 1000 updates of a tenth of a page each would fill a hundred.
	update(1000)
	pages := tb.heap.hf.nextPid.Load()
	update(1000)
	if grew := tb.heap.hf.nextPid.Load() - pages; grew > 16 {
		t.Fatalf("1000 updates with no reader open allocated %d new pages", grew)
	}

	st := tb.Versions()
	if reclaimed == 0 || st.Reclaimed != int64(reclaimed) || st.Slots > 2*keys+1 || st.Live != keys {
		t.Fatalf("after %d updates of %d rows: reclaimed %d, %+v", updates, keys, reclaimed, st)
	}
	if pinned := tb.heap.pager.Stats().PagesPinned; pinned != 0 {
		t.Fatalf("%d pages still pinned", pinned)
	}
	if err := read(rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
}

// TestReclaimKeepsRegisteredSnapshots holds a registered snapshot across
// passes: the versions it sees stay, and go once it is released.
func TestReclaimKeepsRegisteredSnapshots(t *testing.T) {
	tb := newPagedTestTable(t, 0)
	var ids []RowID
	for k := int64(0); k < 10; k++ {
		id, err := insertRow(tb, row(k, 0))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	reg, epoch := tb.Clock().Register()
	held := txn.Snapshot{Epoch: epoch}
	for round := int64(1); round <= 5; round++ {
		for k := range ids {
			var err error
			if ids[k], err = updateRow(tb, ids[k], row(int64(k), round)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tb.Reclaim(); err != nil {
			t.Fatal(err)
		}
	}
	sum := func(s txn.Snapshot) (n, total int64) {
		_, rows := scanAt(t, tb, s)
		for _, r := range rows {
			total += r[1].Int()
		}
		return int64(len(rows)), total
	}
	if n, total := sum(held); n != 10 || total != 0 {
		t.Fatalf("held snapshot reads %d rows summing to %d after reclamation, want 10 rows of 0", n, total)
	}
	if st := tb.Versions(); st.Dead != 50 {
		t.Fatalf("a snapshot from before every update must keep all 50 dead versions: %+v", st)
	}
	reg.Release()
	for k := range ids { // enough new deaths to trigger a pass past the kept ones
		for r := 0; r < 10; r++ {
			var err error
			if ids[k], err = updateRow(tb, ids[k], row(int64(k), 9)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := tb.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if st := tb.Versions(); st.Dead != 0 || st.Slots != 10 {
		t.Fatalf("released snapshot: every dead version must go: %+v", st)
	}
	if n, total := sum(tb.Latest()); n != 10 || total != 90 {
		t.Fatalf("latest reads %d rows summing to %d, want 10 rows of 9", n, total)
	}
}

// TestReclaimOnceUnpinned: the versions a pass had to keep for an open
// snapshot go at the first pass after it closes, not only once as many new
// versions have died.
func TestReclaimOnceUnpinned(t *testing.T) {
	tb := newPagedTestTable(t, 0)
	ids := make([]RowID, 10)
	for k := range ids {
		var err error
		if ids[k], err = insertRow(tb, row(int64(k), 0)); err != nil {
			t.Fatal(err)
		}
	}
	reg, _ := tb.Clock().Register()
	for round := int64(1); round <= 20; round++ {
		for k := range ids {
			var err error
			if ids[k], err = updateRow(tb, ids[k], row(int64(k), round)); err != nil {
				t.Fatal(err)
			}
			if _, err := tb.Reclaim(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := tb.Versions(); st.Dead != 200 {
		t.Fatalf("an open snapshot from before every update must keep all 200 dead versions: %+v", st)
	}
	reg.Release()
	var err error
	if ids[0], err = updateRow(tb, ids[0], row(0, 21)); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if st := tb.Versions(); st.Dead != 0 || st.Slots != 10 {
		t.Fatalf("the first pass after the snapshot closed kept versions: %+v", st)
	}
}
