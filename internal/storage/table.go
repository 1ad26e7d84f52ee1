// Package storage implements the physical layer of the rfview engine:
// multi-version heap tables addressed by row id, their payloads in slotted
// pages behind a shared buffer pool, plus ordered (B+tree) indexes over
// arbitrary column prefixes. The evaluation in the paper hinges on the
// indexed/unindexed distinction — Table 1 compares the self-join simulation
// of reporting functions with and without an index on the sequence position
// — so the physical layer keeps the two access paths explicit.
//
// Concurrency model (MVCC): every row version is an immutable payload plus
// two atomic epoch stamps (begin/end) from the table's commit clock. Readers
// never lock — they copy the slot-directory header under a microsecond
// read-lock and then filter versions against an immutable txn.Snapshot using
// only atomic loads. Writers take the table mutex for structural changes
// (appending a version, maintaining indexes, checking uniqueness, claiming a
// version's end stamp); the claim is a CAS, which is also where write-write
// conflicts are detected (first-updater-wins). Index entries are inserted
// when a version is created, so probes filter by visibility exactly like
// scans, and they are removed when the version is reclaimed (reclaim.go):
// once no registered snapshot can see it, a dead version leaves the
// directory, the indexes and, with its page, the heap.
package storage

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	rferrors "rfview/errors"
	"rfview/internal/sqltypes"
	"rfview/internal/txn"
)

// RowID identifies a row version within one table. An UPDATE creates a new
// version under a new id and ends the old one. A version keeps its id while
// any snapshot can see it, wherever reclamation moves its payload; the id of
// a reclaimed version is reused once no registered snapshot can see that
// version, so no statement still holds it between a probe and a write.
type RowID int64

// slot is one immutable row version with its visibility stamps. The payload
// lives in the table's paged heap at loc. The stamps stay resident and
// mutable — they are committed/aborted/claimed in place — which is why they
// live in the slot directory rather than the page payload: pages hold only
// immutable encoded rows, so visibility filtering happens before any page is
// touched and invisible versions are never decoded.
//
// A slot's id and loc never change once it is published. Reclamation that
// moves a payload publishes a new slot with the same id and copied stamps;
// iterators holding the old directory keep reading the old one, whose page
// stays readable until they are gone.
type slot struct {
	loc recLoc
	// id is the version's RowID in 32 bits, which with recLoc fill two words:
	// a slot stays 32 bytes, and a scan's visibility test reads every slot.
	id    uint32
	begin atomic.Uint64 // epoch, or pending stamp, or txn.Infinity = aborted
	end   atomic.Uint64 // txn.Infinity = live, epoch or pending stamp otherwise
}

// Table is a heap of row versions. It knows nothing about column names or
// types — the catalog layer owns schema; the storage layer owns bytes (here:
// datums).
type Table struct {
	mu sync.RWMutex
	// slots is the slot directory: every version not yet reclaimed, in heap
	// order (a page's versions are adjacent). It is only appended to in
	// place; reclamation publishes a new array, so a copied header stays
	// valid for as long as its holder needs it.
	slots []*slot
	// byID maps a row id to its current slot; nil marks a free id, listed in
	// free for reuse. Read and written under mu only.
	byID    []*slot
	free    []RowID
	indexes []*IndexHandle

	// heap holds the encoded row payloads in slotted pages cached by a shared
	// buffer pool; slots carry locations into it.
	heap *tableHeap

	clock *txn.Clock
	live  atomic.Int64
	// dead counts the versions in the directory that are neither live nor
	// pending: committed ends and aborted inserts, which reclamation frees
	// once no snapshot can see them. pinned is how many of them the last
	// reclamation pass had to keep for open snapshots (guarded by mu), and
	// reclaimed totals the versions freed.
	dead      atomic.Int64
	pinned    int64
	reclaimed atomic.Int64
	// version counts committed mutations (inserts, updates, deletes). Cached
	// query plans record the versions of every table they read and
	// revalidate on reuse, so any mutation — including materialized-view
	// refreshes, which rewrite the view's backing table — invalidates
	// dependent plans. Transactional writes bump it at commit publication,
	// never while pending.
	version atomic.Uint64
}

// IndexHandle couples an index with the column positions it covers so the
// table can maintain it on every mutation.
type IndexHandle struct {
	Name   string
	Cols   []int // column ordinals of the indexed key, in index order
	Unique bool
	Idx    *BTree
}

// NewPagedTable returns an empty heap table stamping versions from c, whose
// row payloads live in slotted pages owned by pager, cached through its
// buffer pool, and spilled to a per-table heap file when evicted. tag names
// the heap file (usually the table name). The immediate (non-transactional)
// mutation methods tick the clock directly, so on a shared clock they must
// be serialized with every transactional committer — in the engine both run
// under its write mutex.
func NewPagedTable(c *txn.Clock, pager *Pager, tag string) (*Table, error) {
	h, err := newTableHeap(pager, tag)
	if err != nil {
		return nil, err
	}
	return &Table{clock: c, heap: h}, nil
}

// rowOf materializes the payload of a slot. A heap IO or decode failure is
// unrecoverable state corruption on an ephemeral file the storage layer
// itself owns, and the read paths that land here (point lookups, index
// builds) have no error channel — so it panics, Postgres-style, rather than
// thread errors through every probe signature. Scans use Iter, which returns
// errors properly.
func (t *Table) rowOf(sl *slot) sqltypes.Row {
	row, err := t.heap.read(sl.loc)
	if err != nil {
		panic(fmt.Sprintf("storage: heap read: %v", err))
	}
	return row
}

// Clock returns the commit clock this table stamps versions from.
func (t *Table) Clock() *txn.Clock { return t.clock }

// Len returns the number of live (committed, not ended) rows.
func (t *Table) Len() int { return int(t.live.Load()) }

// Version returns the committed-mutation counter. Two equal readings with no
// interleaved commit guarantee the visible table contents did not change
// between them.
func (t *Table) Version() uint64 { return t.version.Load() }

// BumpVersion advances the mutation counter; the engine calls it during
// commit publication (txn.Written).
func (t *Table) BumpVersion() { t.version.Add(1) }

// Latest returns a snapshot seeing everything committed so far.
func (t *Table) Latest() txn.Snapshot { return txn.Snapshot{Epoch: t.clock.Now()} }

// WriteView returns the visibility horizon a transaction's own maintenance
// work uses: everything committed so far plus tx's pending writes. A nil tx
// yields Latest.
func (t *Table) WriteView(tx *txn.Txn) txn.Snapshot {
	if tx == nil {
		return t.Latest()
	}
	return txn.Snapshot{Epoch: t.clock.Now(), TxnID: tx.ID}
}

// view copies the slot-directory header so the caller can iterate without
// holding any lock: a published slot never changes its id or location, the
// array behind the header is never rewritten (reclamation publishes a new
// one), and versions appended afterwards are invisible to the copied header
// (they would be invisible to the snapshot anyway).
func (t *Table) view() []*slot {
	t.mu.RLock()
	s := t.slots
	t.mu.RUnlock()
	return s
}

// slotLocked returns the current slot of id, nil when the id is free or out
// of range. The caller holds mu.
func (t *Table) slotLocked(id RowID) *slot {
	if id < 0 || int(id) >= len(t.byID) {
		return nil
	}
	return t.byID[id]
}

// appendLocked creates a new version; the caller holds t.mu and has already
// passed uniqueness checks. The payload is encoded into the heap, which can
// fail on write-back IO.
func (t *Table) appendLocked(row sqltypes.Row, begin uint64) (RowID, *slot, error) {
	if len(t.free) == 0 && len(t.byID) > math.MaxUint32 {
		return 0, nil, fmt.Errorf("storage: more than %d row versions", uint64(math.MaxUint32)+1)
	}
	loc, err := t.heap.append(row)
	if err != nil {
		return 0, nil, err
	}
	sl := &slot{loc: loc}
	sl.begin.Store(begin)
	sl.end.Store(txn.Infinity)
	id := RowID(len(t.byID))
	if n := len(t.free); n > 0 {
		id, t.free = t.free[n-1], t.free[:n-1]
		t.byID[id] = sl
	} else {
		t.byID = append(t.byID, sl)
	}
	sl.id = uint32(id)
	t.slots = append(t.slots, sl)
	for _, h := range t.indexes {
		h.Idx.Insert(extractKey(row, h.Cols), id)
	}
	return id, sl, nil
}

// checkUnique enforces unique indexes against the would-be row. The caller
// holds t.mu, which serializes all uniqueness decisions: two concurrent
// inserts of the same key cannot both pass, because the second probe sees
// the first one's pending version. txnID 0 means an immediate
// (non-transactional) writer; exclude names a version being replaced by an
// update (-1 for none); snap is the writer's snapshot, which splits the
// committed-live case into a true duplicate (the writer can see the holder)
// and a first-committer-wins conflict (the holder committed after the
// writer's snapshot — retryable, so it must carry the conflict code).
func (t *Table) checkUnique(row sqltypes.Row, txnID uint64, exclude RowID, snap txn.Snapshot) error {
	for _, h := range t.indexes {
		if !h.Unique {
			continue
		}
		key := extractKey(row, h.Cols)
		var dup, conflict bool
		h.Idx.Lookup(key, func(id RowID) bool {
			sl := t.byID[id]
			if id == exclude || sl == nil {
				return true
			}
			b, e := sl.begin.Load(), sl.end.Load()
			if b == txn.Infinity {
				return true // aborted insert, never visible
			}
			if txn.Pending(b) {
				if txnID != 0 && txn.Owner(b) == txnID {
					// Our own pending version: a live duplicate unless this
					// same transaction already ended it (update chains).
					if txn.Pending(e) && txn.Owner(e) == txnID {
						return true
					}
					dup = true
					return false
				}
				conflict = true // someone else's uncommitted insert
				return false
			}
			// Committed version.
			switch {
			case e == txn.Infinity:
				if b > snap.Epoch {
					// Live, but committed after the writer's snapshot: the
					// collision comes from a concurrent commit the writer
					// never saw, so classify it as a conflict, not a
					// duplicate.
					conflict = true
				} else {
					dup = true
				}
				return false
			case txn.Pending(e):
				if txnID != 0 && txn.Owner(e) == txnID {
					return true // we deleted it in this transaction
				}
				conflict = true // someone else is deleting it; may abort
				return false
			default:
				return true // committed-dead version
			}
		})
		if dup {
			return fmt.Errorf("duplicate key %v violates unique index %q", key, h.Name)
		}
		if conflict {
			return rferrors.New(rferrors.CodeConflict,
				"key %v contested by a concurrent transaction on unique index %q", key, h.Name)
		}
	}
	return nil
}

// claimEnd takes ownership of a live version's end stamp for txnID,
// detecting write-write conflicts: if another transaction already ended (or
// is ending) the version, the claim fails with a coded conflict error. The
// caller holds the table mutex, so reclamation never moves a version while
// it is being claimed.
func claimEnd(sl *slot, txnID uint64) error {
	for {
		e := sl.end.Load()
		switch {
		case e == txn.Infinity:
			if sl.end.CompareAndSwap(txn.Infinity, txn.PendingStamp(txnID)) {
				return nil
			}
		case txn.Pending(e) && txnID != 0 && txn.Owner(e) == txnID:
			return rferrors.New(rferrors.CodeInternal, "row version already ended by this transaction")
		default:
			return rferrors.New(rferrors.CodeConflict,
				"write-write conflict: row already updated or deleted by a concurrent transaction")
		}
	}
}

// slotRef is the write-set handle the commit/abort protocol stamps through.
type slotRef struct {
	t *Table
	s *slot
}

// CommitWrite implements txn.SlotRef.
func (r slotRef) CommitWrite(op txn.Op, epoch uint64) {
	switch op {
	case txn.OpInsert:
		r.s.begin.Store(epoch)
		r.t.live.Add(1)
	case txn.OpDelete:
		r.s.end.Store(epoch)
		r.t.live.Add(-1)
		r.t.dead.Add(1)
	}
}

// AbortWrite implements txn.SlotRef.
func (r slotRef) AbortWrite(op txn.Op) {
	switch op {
	case txn.OpInsert:
		r.s.begin.Store(txn.Infinity) // never visible to any snapshot
		r.t.dead.Add(1)
	case txn.OpDelete:
		r.s.end.Store(txn.Infinity) // restore liveness
	}
}

// ---------------------------------------------------------------------------
// Immediate (auto-committed per operation) mutations. Each operation commits
// at its own clock tick; on a shared clock the caller must serialize these
// with transactional committers (the engine runs both under its write lock).

// Insert appends a row, maintains every index, and commits it immediately.
// The row is stored as given; callers must not mutate it afterwards.
func (t *Table) Insert(row sqltypes.Row) (RowID, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkUnique(row, 0, -1, t.Latest()); err != nil {
		return 0, err
	}
	id, _, err := t.appendLocked(row, t.clock.Tick())
	if err != nil {
		return 0, err
	}
	t.live.Add(1)
	t.version.Add(1)
	return id, nil
}

// Delete ends the live row version under id immediately.
func (t *Table) Delete(id RowID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sl := t.slotLocked(id)
	if sl == nil || !txn.Visible(sl.begin.Load(), sl.end.Load(), t.Latest()) {
		return fmt.Errorf("delete: row %d does not exist", id)
	}
	if err := claimEnd(sl, 0); err != nil {
		return err
	}
	sl.end.Store(t.clock.Tick())
	t.live.Add(-1)
	t.dead.Add(1)
	t.version.Add(1)
	return nil
}

// Update replaces the row under id immediately: the old version is ended and
// a new version is created under a fresh row id (returned). Indexes gain the
// new version's entries; old entries stay, filtered by visibility, until the
// old version is reclaimed.
func (t *Table) Update(id RowID, row sqltypes.Row) (RowID, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sl := t.slotLocked(id)
	if sl == nil || !txn.Visible(sl.begin.Load(), sl.end.Load(), t.Latest()) {
		return 0, fmt.Errorf("update: row %d does not exist", id)
	}
	if err := t.checkUnique(row, 0, id, t.Latest()); err != nil {
		return 0, err
	}
	// Append the new version before ending the old one: a heap IO failure
	// then leaves the old version live and the table consistent (the
	// orphaned new payload is unreferenced). The Infinity begin stamp keeps
	// the new version invisible until it is committed below.
	nid, nsl, err := t.appendLocked(row, txn.Infinity)
	if err != nil {
		return 0, err
	}
	if err := claimEnd(sl, 0); err != nil {
		nsl.begin.Store(txn.Infinity) // abort the orphan: never visible
		t.dead.Add(1)
		return 0, err
	}
	e := t.clock.Tick()
	sl.end.Store(e)
	nsl.begin.Store(e)
	t.dead.Add(1)
	t.version.Add(1)
	return nid, nil
}

// ---------------------------------------------------------------------------
// Transactional mutations. Versions are created or ended with pending stamps
// owned by tx; the engine's commit protocol later stamps the whole write-set
// with one epoch (or aborts it). Conflicts surface here, at claim time.

// writable reports whether a version may serve as the target of a
// transactional delete or update: visible in tx's snapshot (the DML case —
// a committed successor version then surfaces as a conflict at claim time)
// or visible at the write view (the commit-time maintenance case, where the
// target may postdate tx's snapshot).
func (t *Table) writable(sl *slot, tx *txn.Txn) bool {
	b, e := sl.begin.Load(), sl.end.Load()
	return txn.Visible(b, e, tx.Snap) || txn.Visible(b, e, t.WriteView(tx))
}

// InsertTx appends a row as a pending version of tx.
func (t *Table) InsertTx(tx *txn.Txn, row sqltypes.Row) (RowID, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkUnique(row, tx.ID, -1, tx.Snap); err != nil {
		return 0, err
	}
	id, sl, err := t.appendLocked(row, txn.PendingStamp(tx.ID))
	if err != nil {
		return 0, err
	}
	tx.Record(slotRef{t, sl}, txn.OpInsert)
	tx.Touch(t)
	return id, nil
}

// DeleteTx claims the end of the version under id for tx. The version must
// be visible in tx's snapshot (or at the write view — commit-time view
// maintenance targets backing rows committed after tx began); a version
// already ended by another transaction is a write-write conflict.
func (t *Table) DeleteTx(tx *txn.Txn, id RowID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sl := t.slotLocked(id)
	if sl == nil || !t.writable(sl, tx) {
		return fmt.Errorf("delete: row %d does not exist", id)
	}
	if err := claimEnd(sl, tx.ID); err != nil {
		return err
	}
	tx.Record(slotRef{t, sl}, txn.OpDelete)
	tx.Touch(t)
	return nil
}

// UpdateTx ends the version under id and creates the replacement as pending
// versions of tx, returning the new version's row id.
func (t *Table) UpdateTx(tx *txn.Txn, id RowID, row sqltypes.Row) (RowID, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sl := t.slotLocked(id)
	if sl == nil || !t.writable(sl, tx) {
		return 0, fmt.Errorf("update: row %d does not exist", id)
	}
	if err := t.checkUnique(row, tx.ID, id, tx.Snap); err != nil {
		return 0, err
	}
	nid, nsl, err := t.appendLocked(row, txn.PendingStamp(tx.ID))
	if err != nil {
		return 0, err
	}
	if err := claimEnd(sl, tx.ID); err != nil {
		nsl.begin.Store(txn.Infinity) // abort the orphan: never visible
		t.dead.Add(1)
		return 0, err
	}
	tx.Record(slotRef{t, sl}, txn.OpDelete)
	tx.Record(slotRef{t, nsl}, txn.OpInsert)
	tx.Touch(t)
	return nid, nil
}

// ---------------------------------------------------------------------------
// Reads. All lock-free against a snapshot.

// Get returns the row version under id if live at the latest snapshot.
func (t *Table) Get(id RowID) sqltypes.Row { return t.GetAt(id, t.Latest()) }

// GetAt returns the row version under id if visible in s, else nil.
func (t *Table) GetAt(id RowID, s txn.Snapshot) sqltypes.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	sl := t.slotLocked(id)
	if sl == nil || !txn.Visible(sl.begin.Load(), sl.end.Load(), s) {
		return nil
	}
	return t.rowOf(sl)
}

// Scan invokes fn for every row live at the latest snapshot, in heap
// order, stopping early if fn returns false. fn may mutate the table: the
// iteration runs over a copied directory header and holds no lock.
func (t *Table) Scan(fn func(id RowID, row sqltypes.Row) bool) error {
	return t.ScanAt(t.Latest(), fn)
}

// ScanAt invokes fn for every row version visible in s, in heap order,
// stopping early if fn returns false. The error is a heap IO or decode
// failure.
func (t *Table) ScanAt(s txn.Snapshot, fn func(id RowID, row sqltypes.Row) bool) error {
	it := t.IterAt(s)
	defer it.Close()
	for {
		id, row, err := it.Next()
		if err != nil {
			return err
		}
		if row == nil {
			return nil
		}
		if !fn(id, row) {
			return nil
		}
	}
}

// FirstAt probes an index for the first version under key visible in s.
func (t *Table) FirstAt(h *IndexHandle, key sqltypes.Row, s txn.Snapshot) (RowID, bool) {
	var found RowID
	ok := false
	t.lookupVisible(h, key, s, func(id RowID, _ sqltypes.Row) bool {
		found, ok = id, true
		return false
	})
	return found, ok
}

// LookupAt probes an index and invokes fn for every version under key
// visible in s, stopping early if fn returns false. fn runs without any
// table lock held and may mutate the table.
func (t *Table) LookupAt(h *IndexHandle, key sqltypes.Row, s txn.Snapshot, fn func(id RowID, row sqltypes.Row) bool) {
	t.lookupVisible(h, key, s, fn)
}

// lookupVisible collects the visible matches under the read lock (index
// structures are only safe against concurrent structural writes while
// locked), then hands them to fn unlocked.
func (t *Table) lookupVisible(h *IndexHandle, key sqltypes.Row, s txn.Snapshot, fn func(id RowID, row sqltypes.Row) bool) {
	type match struct {
		id  RowID
		row sqltypes.Row
	}
	var buf [4]match
	matches := buf[:0]
	t.mu.RLock()
	h.Idx.Lookup(key, func(id RowID) bool {
		sl := t.byID[id]
		if sl != nil && txn.Visible(sl.begin.Load(), sl.end.Load(), s) {
			matches = append(matches, match{id, t.rowOf(sl)})
		}
		return true
	})
	t.mu.RUnlock()
	for _, m := range matches {
		if !fn(m.id, m.row) {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Index management.

// AddIndex builds an index over the given column ordinals from the current
// table contents and registers it for maintenance. Every non-aborted version
// is indexed — including pending and dead ones, since open snapshots may
// still see them; probes filter by visibility.
func (t *Table) AddIndex(name string, cols []int, unique bool) (*IndexHandle, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, h := range t.indexes {
		if h.Name == name {
			return nil, fmt.Errorf("index %q already exists", name)
		}
	}
	idx := NewBTree()
	h := &IndexHandle{Name: name, Cols: append([]int(nil), cols...), Unique: unique, Idx: idx}
	possiblyLive := func(sl *slot) bool {
		b, e := sl.begin.Load(), sl.end.Load()
		if b == txn.Infinity {
			return false
		}
		return e == txn.Infinity || txn.Pending(e)
	}
	for _, sl := range t.slots {
		b := sl.begin.Load()
		if b == txn.Infinity {
			continue // aborted insert: no snapshot can ever see it
		}
		key := extractKey(t.rowOf(sl), h.Cols)
		if unique && possiblyLive(sl) {
			var dup bool
			idx.Lookup(key, func(prev RowID) bool {
				if possiblyLive(t.byID[prev]) {
					dup = true
					return false
				}
				return true
			})
			if dup {
				return nil, fmt.Errorf("duplicate key %v while building unique index %q", key, name)
			}
		}
		idx.Insert(key, RowID(sl.id))
	}
	t.indexes = append(t.indexes, h)
	return h, nil
}

// DropIndex unregisters an index.
func (t *Table) DropIndex(name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, h := range t.indexes {
		if h.Name == name {
			t.indexes = append(t.indexes[:i], t.indexes[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("index %q does not exist", name)
}

// Indexes returns the registered index handles.
func (t *Table) Indexes() []*IndexHandle {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]*IndexHandle(nil), t.indexes...)
}

// IndexOn returns the first registered index whose key starts with exactly
// the given column ordinals, or nil.
func (t *Table) IndexOn(cols []int) *IndexHandle {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, h := range t.indexes {
		if len(h.Cols) < len(cols) {
			continue
		}
		match := true
		for i, c := range cols {
			if h.Cols[i] != c {
				match = false
				break
			}
		}
		if match {
			return h
		}
	}
	return nil
}

func extractKey(row sqltypes.Row, cols []int) sqltypes.Row {
	key := make(sqltypes.Row, len(cols))
	for i, c := range cols {
		key[i] = row[c]
	}
	return key
}
