package storage

import (
	"rfview/internal/sqltypes"
	"rfview/internal/txn"
)

// IterStats counts the page traffic of one iterator: pages touched (pin
// groups, not pins — consecutive rows on one page count it once), and how
// many of those page acquisitions hit or missed the buffer pool.
type IterStats struct {
	Pages  int64
	Hits   int64
	Misses int64
}

// Iter streams the row versions visible in a snapshot, in row-id (insertion)
// order. It pins one page at a time and decodes only visible versions
// (stamps live in the slot directory, so invisible rows cost no page IO
// beyond sharing a page with visible ones).
//
// An Iter is single-goroutine; Close must be called (it releases the pinned
// page). Iterating is safe against concurrent DML: the directory header is
// copied at creation and pages are append-only.
type Iter struct {
	t     *Table
	snap  txn.Snapshot
	slots []*slot
	i     int

	cur    *frame // pinned current page
	curPid uint32
	hasCur bool
	stats  IterStats
}

// IterAt returns an iterator over the versions visible in s.
func (t *Table) IterAt(s txn.Snapshot) *Iter {
	return &Iter{t: t, snap: s, slots: t.view()}
}

// Next returns the next visible row. A nil row with nil error is EOF. The
// caller may retain the returned row.
func (it *Iter) Next() (RowID, sqltypes.Row, error) {
	for ; it.i < len(it.slots); it.i++ {
		sl := it.slots[it.i]
		if !txn.Visible(sl.begin.Load(), sl.end.Load(), it.snap) {
			continue
		}
		id := RowID(it.i)
		row, err := it.rowAt(sl)
		if err != nil {
			return 0, nil, err
		}
		it.i++
		return id, row, nil
	}
	it.release()
	return 0, nil, nil
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

// rowAt decodes the payload of sl, moving the current pin when the row
// lives on a different page.
func (it *Iter) rowAt(sl *slot) (sqltypes.Row, error) {
	h := it.t.heap
	if sl.loc.span > 0 {
		// Jumbo rows pin their own page run; the current fill-page pin is
		// kept so the scan resumes on it without re-pinning.
		it.stats.Pages += int64(sl.loc.span)
		return h.read(sl.loc)
	}
	if !it.hasCur || it.curPid != sl.loc.pid {
		if it.hasCur {
			h.pager.pool.unpin(it.cur, false)
			it.hasCur = false
		}
		f, hit, err := h.pager.pool.pin(h.hf, sl.loc.pid)
		if err != nil {
			return nil, err
		}
		it.cur, it.curPid, it.hasCur = f, sl.loc.pid, true
		it.stats.Pages++
		if hit {
			it.stats.Hits++
		} else {
			it.stats.Misses++
		}
	}
	if row := it.cur.cachedRow(sl.loc.slot); row != nil {
		return row, nil
	}
	rec, err := pageRecord(it.cur.buf, sl.loc.slot)
	if err != nil {
		return nil, err
	}
	row, err := sqltypes.DecodeRowData(rec)
	if err != nil {
		return nil, err
	}
	h.pager.pool.cacheRow(it.cur, sl.loc.slot, row)
	return row, nil
}
