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

// prefetchRes carries a readahead pin from its goroutine to the iterator.
type prefetchRes struct {
	f   *frame
	hit bool
	err error
}

type prefetch struct {
	pid uint32
	ch  chan prefetchRes
}

// Iter streams the row versions visible in a snapshot, in row-id (insertion)
// order. It pins one page at a time, prefetches the next distinct page in
// the background while the current one is consumed, and decodes only
// visible versions (stamps live in the slot directory, so invisible rows
// cost no page IO beyond sharing a page with visible ones).
//
// An Iter is single-goroutine; Close must be called (it releases the pinned
// page and drains any in-flight prefetch). Iterating is safe against
// concurrent DML: the directory header is copied at creation and pages are
// append-only.
type Iter struct {
	t     *Table
	snap  txn.Snapshot
	slots []*slot
	i     int

	cur     *frame // pinned current page
	curPid  uint32
	hasCur  bool
	pending *prefetch
	stats   IterStats
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

// Close releases the current pin and drains any in-flight prefetch.
// Idempotent.
func (it *Iter) Close() { it.release() }

func (it *Iter) release() {
	pool := it.t.heap.pager.pool
	if it.hasCur {
		pool.unpin(it.cur, false)
		it.cur, it.hasCur = nil, false
	}
	if p := it.pending; p != nil {
		it.pending = nil
		if res := <-p.ch; res.err == nil {
			pool.unpin(res.f, false)
		}
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
		f, hit, err := it.acquire(sl.loc.pid)
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
		// Readahead earns its goroutine only when pages are actually coming
		// from disk; a warm scan that just hit skips the scheduling cost.
		if !hit {
			it.schedulePrefetch()
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

// acquire pins pid, consuming the pending prefetch when it matches.
func (it *Iter) acquire(pid uint32) (*frame, bool, error) {
	pool := it.t.heap.pager.pool
	if p := it.pending; p != nil {
		it.pending = nil
		res := <-p.ch
		if p.pid == pid {
			return res.f, res.hit, res.err
		}
		if res.err == nil {
			pool.unpin(res.f, false) // readahead guessed wrong: discard
		}
	}
	return pool.pin(it.t.heap.hf, pid)
}

// prefetchLookahead bounds the forward scan for the next distinct page so a
// long run of same-page or jumbo slots cannot make scheduling quadratic.
const prefetchLookahead = 4096

// schedulePrefetch starts a background pin of the next distinct slotted
// page after the current position.
func (it *Iter) schedulePrefetch() {
	if it.pending != nil {
		return
	}
	limit := len(it.slots)
	if limit > it.i+prefetchLookahead {
		limit = it.i + prefetchLookahead
	}
	for j := it.i + 1; j < limit; j++ {
		loc := it.slots[j].loc
		if loc.span != 0 || loc.pid == it.curPid {
			continue
		}
		ch := make(chan prefetchRes, 1)
		it.pending = &prefetch{pid: loc.pid, ch: ch}
		hf, pool := it.t.heap.hf, it.t.heap.pager.pool
		go func(pid uint32) {
			f, hit, err := pool.pin(hf, pid)
			ch <- prefetchRes{f, hit, err}
		}(loc.pid)
		return
	}
}
