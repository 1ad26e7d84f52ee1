package storage

import (
	"fmt"
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

// Add accumulates o into s.
func (s *IterStats) Add(o IterStats) {
	s.Slots += o.Slots
	s.Pages += o.Pages
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Decoded += o.Decoded
}

// String renders the counters as EXPLAIN ANALYZE shows them.
func (s IterStats) String() string {
	hr := PoolStats{Hits: s.Hits, Misses: s.Misses}.HitRatio()
	return fmt.Sprintf("slots=%d pages=%d hit_ratio=%.2f decoded=%d", s.Slots, s.Pages, hr, s.Decoded)
}

// Iter streams the row versions visible in a snapshot, one run at a time:
// the visible versions among consecutive selected slots on one page, or a
// single jumbo row. IterAt selects the whole directory, in heap order
// (insertion order, except that reclamation moves a sparse page's survivors
// to the end); RangeIterAt selects an index range, in key order. It pins one
// page at a time and reads a run from the page's cached columns (pageCols),
// so visibility is decided from the slot directory before any page is
// touched and a run of invisible versions costs no page IO. A key-order run
// the cached columns do not cover, and a jumbo row, decode just their own
// records into the iterator's run columns and leave the cache alone, as a
// point read does (tableHeap.read).
//
// NextBatch hands a run over as column vectors; Next materializes its rows,
// one allocation per run. An Iter is single-goroutine and serves one of the
// two; Close must be called: the iterator keeps its last page pinned past
// the end of its selection, and across Seek, so a probe landing on the page
// the last one read pins nothing. Iterating is safe against concurrent DML
// and reclamation: the directory header is copied at creation, a published
// record never changes, and a page whose records were reclaimed or moved
// stays readable until every registered reader that could hold the old
// header is gone.
type Iter struct {
	t     *Table
	snap  txn.Snapshot
	slots []*slot
	i     int
	// index is the index a key-range iterator walks, nil in heap order.
	index *IndexHandle

	cur    *frame // pinned current page
	curPid uint32
	hasCur bool
	stats  IterStats

	// The current run: its columns — the page's cached ones, or run, its
	// own decode, whose vectors the next such run reuses — the slots of its
	// visible versions within them, and — for Next — their row ids.
	pc  *pageCols
	run pageCols
	pos []int
	ids []RowID
	// Next's materialized rows of the current run.
	rows []sqltypes.Row
	ri   int
}

// IterAt returns an iterator over the versions visible in s, in heap order.
func (t *Table) IterAt(s txn.Snapshot) *Iter {
	return &Iter{t: t, snap: s, slots: t.view()}
}

// RangeIterAt returns an iterator over the versions visible in s whose key
// in index h lies from from to to (inclusive, prefix comparison, either may
// be nil), in key order. It collects the range's slots under the read lock,
// as IterAt copies the directory header, so the iteration holds no lock. A
// caller that writes the table drains the iterator first: a write view
// sees the transaction's own later writes.
func (t *Table) RangeIterAt(h *IndexHandle, from, to sqltypes.Row, s txn.Snapshot) *Iter {
	it := &Iter{t: t, index: h}
	it.Seek(from, to, s)
	return it
}

// Seek re-aims a key-range iterator, closed or not, at the versions visible
// in s in the range from…to of its index, reusing its buffers and pin — an
// index join's probes share one — and keeps counting its Stats.
func (it *Iter) Seek(from, to sqltypes.Row, s txn.Snapshot) {
	it.snap, it.slots, it.rows, it.i, it.ri = s, it.slots[:0], it.rows[:0], 0, 0
	var buf [96]byte // two bounds of two numeric columns (68 bytes) fit
	key := appendKey(buf[:0], from)
	n := len(key)
	key = appendKey(key, to)
	t := it.t
	t.mu.RLock()
	it.index.Idx.Range(key[:n], key[n:], func(id RowID) bool {
		if sl := t.byID[id]; sl != nil {
			it.slots = append(it.slots, sl)
		}
		return true
	})
	t.mu.RUnlock()
}

// Next returns the next visible row. A nil row with nil error is EOF. The
// caller may retain the returned row.
func (it *Iter) Next() (RowID, sqltypes.Row, error) {
	for it.ri >= len(it.rows) {
		clear(it.rows)
		it.rows, it.ri = it.rows[:0], 0
		ok, err := it.nextRun(true)
		if !ok {
			return 0, nil, err
		}
		it.rows = sqltypes.AppendRows(it.rows, it.pc.vecs, len(it.pc.vecs), it.pos)
	}
	it.ri++
	return it.ids[it.ri-1], it.rows[it.ri-1], nil
}

// NextBatch fills b with the columns cols of the next run of visible rows,
// each column a copy the caller owns. It returns false at the end.
func (it *Iter) NextBatch(cols []int, b *sqltypes.Batch) (bool, error) {
	ok, err := it.nextRun(false)
	if ok {
		it.pc.gather(cols, it.pos, it.index == nil, b)
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
// selection.
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
			it.pos, it.ids = append(it.pos, 0), append(it.ids, RowID(sl.id))
			err = it.decodeRun(func(int) ([]byte, error) { return rec, nil })
			return err == nil, err
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
		var err error
		if pc := it.cur.cols.Load(); it.index != nil && (pc == nil || pc.n < need) {
			buf := it.cur.buf
			err = it.decodeRun(func(s int) ([]byte, error) { return pageRecord(buf, uint16(s)) })
		} else {
			var decoded int
			it.pc, decoded, err = h.pager.pool.columns(it.cur, need)
			it.stats.Decoded += int64(decoded)
		}
		return err == nil, err
	}
	return false, nil
}

// decodeRun decodes just the current run's records, record(s) for each of
// its slots s, into the run columns, in run order, and renumbers the run to
// them.
func (it *Iter) decodeRun(record func(s int) ([]byte, error)) error {
	it.pc, it.run.n = &it.run, 0
	for i, s := range it.pos {
		rec, err := record(s)
		if err == nil {
			err = it.run.decode(rec, len(it.pos))
		}
		if err != nil {
			return err
		}
		it.pos[i] = i
	}
	it.stats.Decoded += int64(len(it.pos))
	return nil
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
