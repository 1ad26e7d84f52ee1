package storage

import (
	"slices"

	"rfview/internal/sqltypes"
	"rfview/internal/txn"
)

// Reclamation bounds a table's versions by its live rows plus what open
// snapshots can still see. A version whose committed end is at or below the
// clock's horizon — the oldest registered snapshot, or the clock itself when
// none is open — is visible to no snapshot, open or future, and neither is an
// aborted insert. Reclaiming one deletes its index entries, drops it from the
// slot directory and frees its row id. Pages that fall under half full have
// their survivors moved to the fill page, so live rows end up packed on few
// pages, and a page no directory entry points into any more is retired: its
// pid is reused once every reader that could hold an older directory header
// has finished.
//
// The cut is DBSP's (PAPERS.md): a reader observes only the integral of the
// changes up to its snapshot, so what ended at or before the oldest snapshot
// is never read again.

// VersionStats describes a table's slot directory.
type VersionStats struct {
	// Slots is the directory's length: live, pending and dead versions not
	// yet reclaimed.
	Slots int
	// Live counts committed live rows; Dead the ended or aborted versions
	// still in the directory.
	Live, Dead int
	// Reclaimed totals the versions freed over the table's life.
	Reclaimed int64
}

// Versions returns the table's directory counters.
func (t *Table) Versions() VersionStats {
	t.mu.RLock()
	n := len(t.slots)
	t.mu.RUnlock()
	return VersionStats{Slots: n, Live: int(t.live.Load()), Dead: int(t.dead.Load()), Reclaimed: t.reclaimed.Load()}
}

// Reclaim frees the versions no snapshot can see any more once the dead
// versions outnumber the live rows — and, so that a long-open snapshot does
// not make every call rescan what it keeps, outnumber twice what the last
// pass had to keep. Each pass costs O(directory), paid for by at least as
// many new deaths: amortized O(1) per ended version. It returns the number
// of versions freed; an error is a heap IO failure, after which the
// directory is consistent and the next pass retries.
//
// Reclaim must not run concurrently with a reader of t that is not
// registered on the clock, since such a reader may hold a directory header
// into a page it retires. The engine calls it once a commit is published,
// still under its exclusive lock, which excludes its own unregistered
// readers (view maintenance, REFRESH, the checkpoint's capture); every other
// reader registers its snapshot first.
func (t *Table) Reclaim() (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.heap.limbo) > 0 {
		t.heap.reuse(t.clock.Oldest())
	}
	d := t.dead.Load()
	if d <= t.live.Load() || d-t.pinned <= t.pinned {
		return 0, nil
	}
	n, err := t.reclaimLocked(t.clock.Horizon())
	t.pinned = t.dead.Load()
	return n, err
}

// pageTally is one slotted page's share of the directory during a pass.
type pageTally struct {
	entries, kept int  // directory entries on the page before and after
	fixed         bool // a survivor has a pending stamp, so none may move
}

// unreachable reports whether no snapshot at or above horizon h can see sl.
func unreachable(sl *slot, h uint64) bool {
	b, e := sl.begin.Load(), sl.end.Load()
	return b == txn.Infinity || (!txn.Pending(e) && e != txn.Infinity && e <= h)
}

// settled reports whether sl's stamps are final or can change only by a
// claim, which needs the table mutex: such a version may move.
func settled(sl *slot) bool {
	return !txn.Pending(sl.begin.Load()) && !txn.Pending(sl.end.Load())
}

// reclaimLocked is one pass at horizon h. The caller holds t.mu.
func (t *Table) reclaimLocked(h uint64) (int, error) {
	heap := t.heap
	pages := make([]pageTally, len(heap.nrec))
	drop := make([]bool, len(t.slots))
	var gone []*slot
	for i, sl := range t.slots {
		var pt *pageTally
		if sl.loc.span == 0 {
			pt = &pages[sl.loc.pid]
			pt.entries++
		}
		if unreachable(sl, h) {
			drop[i], gone = true, append(gone, sl)
			continue
		}
		if pt != nil {
			pt.kept++
			pt.fixed = pt.fixed || !settled(sl)
		}
	}
	if len(gone) == 0 {
		return 0, nil
	}
	// Read every index key before changing anything, so an IO failure
	// leaves the pass undone.
	var rows []sqltypes.Row
	if len(t.indexes) > 0 {
		rows = make([]sqltypes.Row, len(gone))
		for i, sl := range gone {
			row, err := heap.read(sl.loc)
			if err != nil {
				return 0, err
			}
			rows[i] = row
		}
	}
	now := t.clock.Now()
	for i, sl := range gone {
		// An id whose index entry is missing (an insert aborted before the
		// index was built) stays unused rather than risk a stale entry.
		id, indexed := RowID(sl.id), true
		for _, ix := range t.indexes {
			indexed = ix.Idx.Delete(extractKey(rows[i], ix.Cols), id) && indexed
		}
		t.byID[id] = nil
		if indexed {
			t.free = append(t.free, id)
		}
		if sl.loc.span > 0 {
			heap.retire(sl.loc.pid, int(sl.loc.span), now)
		}
	}

	// Pack the survivors of sparse pages onto the fill page. A moved version
	// gets a new slot with the same id and stamps; the old one stays in the
	// directory headers readers already hold.
	tail := heap.tail
	sparse := func(pid uint32) bool {
		pt := &pages[pid]
		return int64(pid) != tail && !pt.fixed && 2*pt.kept < int(heap.nrec[pid])
	}
	dir := make([]*slot, 0, len(t.slots)-len(gone)+len(t.slots)/4)
	var moved []*slot
	var moveErr error
	for i, sl := range t.slots {
		if drop[i] {
			continue
		}
		if moveErr == nil && sl.loc.span == 0 && sparse(sl.loc.pid) {
			loc, err := heap.move(sl.loc)
			if err == nil {
				ns := &slot{id: sl.id, loc: loc}
				ns.begin.Store(sl.begin.Load())
				ns.end.Store(sl.end.Load())
				t.byID[sl.id] = ns
				moved = append(moved, ns)
				pages[sl.loc.pid].kept--
				continue
			}
			moveErr = err // keep the rest in place
		}
		dir = append(dir, sl)
	}
	t.slots = append(dir, moved...)
	for pid, pt := range pages {
		if pt.entries == 0 || pt.kept > 0 {
			continue
		}
		if int64(pid) == tail {
			if slices.ContainsFunc(moved, func(ns *slot) bool { return ns.loc.pid == uint32(pid) }) {
				continue // moved versions went to this fill page
			}
			if heap.tail == tail {
				heap.tail = -1 // the next append starts a new page
			}
		}
		heap.retire(uint32(pid), 1, now)
	}
	t.dead.Add(-int64(len(gone)))
	t.reclaimed.Add(int64(len(gone)))
	heap.reuse(t.clock.Oldest())
	return len(gone), moveErr
}
