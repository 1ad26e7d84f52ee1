package storage

import (
	"slices"

	"rfview/internal/sqltypes"
	"rfview/internal/txn"
)

// IterStats counts the work of one iterator: the slot-directory entries it
// visited (visible or not), pages touched (pin groups, not pins —
// consecutive rows on one page count it once), how many of those page
// acquisitions hit or missed the buffer pool, and the records it decoded
// because no cached page columns covered them.
type IterStats struct {
	Slots   int64
	Pages   int64
	Hits    int64
	Misses  int64
	Decoded int64
}

// Iter streams the row versions visible in a snapshot, in heap order
// (insertion order, except that reclamation moves a sparse page's survivors
// to the end), one run at a time: the visible versions among consecutive directory
// entries on one page, or a single jumbo row. It pins one page at a time and
// reads a run from the page's cached columns (pageCols), so visibility is
// decided from the slot directory before any page is touched and a run of
// invisible versions costs no page IO.
//
// NextBatch hands a run over as column vectors; Next materializes its rows,
// one allocation per run. An Iter is single-goroutine and serves one of the
// two; Close must be called (it releases the pinned page). Iterating is safe
// against concurrent DML and reclamation: the directory header is copied at
// creation, a published record never changes, and a page whose records were
// reclaimed or moved stays readable until every registered reader that could
// hold the old header is gone.
type Iter struct {
	t     *Table
	snap  txn.Snapshot
	slots []*slot
	i     int

	cur    *frame // pinned current page
	curPid uint32
	hasCur bool
	stats  IterStats

	// The current run: its page columns, the slots of its visible versions
	// within them, and — for Next — their row ids.
	pc  *pageCols
	pos []int
	ids []RowID
	// Next's materialized rows of the current run.
	rows []sqltypes.Row
	ri   int
}

// IterAt returns an iterator over the versions visible in s.
func (t *Table) IterAt(s txn.Snapshot) *Iter {
	return &Iter{t: t, snap: s, slots: t.view()}
}

// Next returns the next visible row. A nil row with nil error is EOF. The
// caller may retain the returned row.
func (it *Iter) Next() (RowID, sqltypes.Row, error) {
	for it.ri >= len(it.rows) {
		ok, err := it.nextRun(true)
		if !ok {
			return 0, nil, err
		}
		clear(it.rows)
		it.rows, it.ri = it.pc.rows(it.pos, it.rows[:0]), 0
	}
	it.ri++
	return it.ids[it.ri-1], it.rows[it.ri-1], nil
}

// NextBatch fills b with the columns cols of the next run of visible rows,
// each column a copy the caller owns. It returns false at the end.
func (it *Iter) NextBatch(cols []int, b *sqltypes.Batch) (bool, error) {
	ok, err := it.nextRun(false)
	if ok {
		it.pc.gather(cols, it.pos, b)
	}
	return ok, err
}

// Stats returns the page-traffic counters accumulated so far.
func (it *Iter) Stats() IterStats { return it.stats }

// Close releases the current pin. Idempotent.
func (it *Iter) Close() { it.release() }

func (it *Iter) release() {
	if it.hasCur {
		it.t.heap.pager.pool.unpin(it.cur, false)
		it.cur, it.hasCur = nil, false
	}
}

// nextRun advances to the next run holding a visible version, recording the
// versions' row ids when withIDs is set, and reports false at the end of the
// directory.
func (it *Iter) nextRun(withIDs bool) (bool, error) {
	h := it.t.heap
	for it.i < len(it.slots) {
		it.pos, it.ids = it.pos[:0], it.ids[:0]
		if loc := it.slots[it.i].loc; loc.span > 0 {
			// A jumbo row pins its own page run; the current fill-page pin is
			// kept so the scan resumes on it without re-pinning.
			it.i++
			it.stats.Slots++
			sl := it.slots[it.i-1]
			if !txn.Visible(sl.begin.Load(), sl.end.Load(), it.snap) {
				continue
			}
			it.stats.Pages += int64(loc.span)
			rec, err := h.readJumbo(loc)
			if err != nil {
				return false, err
			}
			it.pc = &pageCols{} // no frame caches a jumbo row's columns
			if err = it.pc.decode(rec, 1); err != nil {
				return false, err
			}
			it.stats.Decoded++
			it.pos, it.ids = append(it.pos, 0), append(it.ids, RowID(sl.id))
			return true, nil
		}
		pid, need, end := it.slots[it.i].loc.pid, 0, it.i
		for end < len(it.slots) && it.slots[end].loc.span == 0 && it.slots[end].loc.pid == pid {
			end++
		}
		it.stats.Slots += int64(end - it.i)
		it.pos = slices.Grow(it.pos, end-it.i)
		if withIDs {
			it.ids = slices.Grow(it.ids, end-it.i)
		}
		for ; it.i < end; it.i++ {
			sl := it.slots[it.i]
			if txn.Visible(sl.begin.Load(), sl.end.Load(), it.snap) {
				it.pos = append(it.pos, int(sl.loc.slot))
				if withIDs {
					it.ids = append(it.ids, RowID(sl.id))
				}
				need = max(need, int(sl.loc.slot)+1)
			}
		}
		if len(it.pos) == 0 {
			continue
		}
		if err := it.pin(pid); err != nil {
			return false, err
		}
		pc, decoded, err := h.pager.pool.columns(it.cur, need)
		if err != nil {
			return false, err
		}
		it.pc = pc
		it.stats.Decoded += int64(decoded)
		return true, nil
	}
	it.release()
	return false, nil
}

// pin makes page pid the current pinned page.
func (it *Iter) pin(pid uint32) error {
	if it.hasCur && it.curPid == pid {
		return nil
	}
	it.release()
	h := it.t.heap
	f, hit, err := h.pager.pool.pin(h.hf, pid)
	if err != nil {
		return err
	}
	it.cur, it.curPid, it.hasCur = f, pid, true
	it.stats.Pages++
	if hit {
		it.stats.Hits++
	} else {
		it.stats.Misses++
	}
	return nil
}
