// Package txn implements the engine's MVCC transaction machinery: a global
// commit clock, snapshots, version-visibility rules, and the write-set a
// transaction accumulates so commit can stamp every created or deleted row
// version with one epoch, atomically with respect to concurrent readers.
//
// The model is snapshot isolation with first-updater-wins conflict handling
// (which realizes first-committer-wins: the statement that would create the
// second committed version of the same row fails immediately instead of at
// commit). Row versions carry begin/end epochs:
//
//   - a committed stamp is a plain epoch value e <= Infinity;
//   - a pending stamp has the high bit set and carries the owning
//     transaction id, so concurrent snapshots can tell "not yet committed"
//     from "committed before me";
//   - Infinity as an end stamp means "live"; Infinity as a begin stamp means
//     "aborted insert, never visible".
//
// The package deliberately knows nothing about tables or SQL: the storage
// layer implements SlotRef for its row versions, the engine drives the
// commit protocol, and Delta carries logical row images to view maintenance
// and the WAL.
package txn

import (
	"sync/atomic"

	"rfview/internal/sqltypes"
)

// pendingBit tags a stamp as uncommitted; the low 63 bits then hold the
// owning transaction id rather than an epoch.
const pendingBit = uint64(1) << 63

// Infinity is the largest committed epoch value. As an end stamp it means
// the version is live; as a begin stamp it means the insert was aborted and
// the version is visible to no snapshot (no snapshot epoch reaches it).
const Infinity = pendingBit - 1

// Pending reports whether a stamp is an uncommitted claim.
func Pending(stamp uint64) bool { return stamp&pendingBit != 0 }

// PendingStamp builds the uncommitted claim stamp for a transaction.
func PendingStamp(txnID uint64) uint64 { return pendingBit | txnID }

// Owner extracts the transaction id from a pending stamp.
func Owner(stamp uint64) uint64 { return stamp &^ pendingBit }

// Snapshot is an immutable visibility horizon: every version committed at or
// before Epoch is visible, plus the pending writes of TxnID (0 = none). A
// snapshot is what makes reads lock-free — it never changes, so a reader
// consults only the atomic begin/end stamps of each version against it.
type Snapshot struct {
	Epoch uint64
	TxnID uint64
}

// Visible reports whether a version stamped (begin, end) is visible in s.
func Visible(begin, end uint64, s Snapshot) bool {
	if Pending(begin) {
		if s.TxnID == 0 || Owner(begin) != s.TxnID {
			return false // someone else's uncommitted insert
		}
	} else if begin > s.Epoch {
		return false // committed after the snapshot (or aborted: Infinity)
	}
	if Pending(end) {
		if s.TxnID != 0 && Owner(end) == s.TxnID {
			return false // deleted by this transaction itself
		}
		return true // someone else's uncommitted delete: still visible to us
	}
	return end > s.Epoch
}

// Clock is the global commit clock: a single monotone epoch counter. Readers
// load it to build snapshots; committers — which the engine serializes —
// stamp their writes with Now()+1 and Publish it, making the whole
// transaction visible in one atomic store. Tick is the immediate path for
// standalone single-operation writes (storage-layer library use and WAL
// restore), which commit each operation at its own epoch.
type Clock struct{ c atomic.Uint64 }

// NewClock returns a clock at epoch 0.
func NewClock() *Clock { return &Clock{} }

// Now returns the latest published epoch.
func (c *Clock) Now() uint64 { return c.c.Load() }

// Next returns the epoch a committer should stamp with (Now()+1). Callers
// must be serialized with every other committer of tables on this clock.
func (c *Clock) Next() uint64 { return c.c.Load() + 1 }

// Publish makes epoch e the latest. Paired with Next under the committer
// serialization described there.
func (c *Clock) Publish(e uint64) { c.c.Store(e) }

// Tick atomically claims and publishes the next epoch, for single-operation
// immediate commits.
func (c *Clock) Tick() uint64 { return c.c.Add(1) }

// Op distinguishes the two physical write kinds a transaction records.
type Op uint8

// Write kinds.
const (
	OpInsert Op = iota // a new version this txn created (pending begin)
	OpDelete           // a claim on an existing version's end stamp
)

// SlotRef is one physical row version in a transaction's write-set. The
// storage layer implements it: CommitWrite replaces the pending stamp with
// the commit epoch (and maintains the table's live-row count); AbortWrite
// restores the slot as if the claim never happened.
type SlotRef interface {
	CommitWrite(op Op, epoch uint64)
	AbortWrite(op Op)
}

// Bumper is anything whose plan-cache version must advance when a
// transaction touching it commits (the storage layer's tables).
type Bumper interface{ BumpVersion() }

// DeltaKind discriminates logical DML deltas.
type DeltaKind uint8

// Delta kinds.
const (
	DeltaInsert DeltaKind = iota
	DeltaUpdate
	DeltaDelete
)

// Delta is the logical row-image record of one DML statement against one
// table: what view maintenance folds in at commit and what the WAL commit
// record carries so recovery replays exactly the committed effects. Rows
// holds insert or delete images; Before/After hold update image pairs. The
// rows reference the immutable version payloads — never mutate them.
type Delta struct {
	Table         string
	Kind          DeltaKind
	Cols          []string
	Rows          []sqltypes.Row
	Before, After []sqltypes.Row
}

// Txn is one transaction: a fixed snapshot, a write-set of physical slot
// claims, and the logical deltas for maintenance and the WAL. A Txn is not
// safe for concurrent use — it belongs to one session, which runs statements
// sequentially.
type Txn struct {
	ID   uint64
	Snap Snapshot

	// Deltas accumulates the logical row images of every completed
	// statement, in order, for commit-time view maintenance and the WAL
	// commit record.
	Deltas []Delta

	writes  []write
	touched []Bumper
}

type write struct {
	ref SlotRef
	op  Op
}

// Record adds one physical write to the write-set.
func (t *Txn) Record(ref SlotRef, op Op) { t.writes = append(t.writes, write{ref, op}) }

// Touch registers a table for a commit-time version bump (deduplicated; the
// set stays tiny — a transaction touches few tables).
func (t *Txn) Touch(b Bumper) {
	for _, x := range t.touched {
		if x == b {
			return
		}
	}
	t.touched = append(t.touched, b)
}

// AddDelta appends one statement's logical delta.
func (t *Txn) AddDelta(d Delta) { t.Deltas = append(t.Deltas, d) }

// HasWrites reports whether the transaction changed anything.
func (t *Txn) HasWrites() bool { return len(t.writes) > 0 }

// Mark returns a write-set watermark for statement-level rollback.
func (t *Txn) Mark() (writes, deltas int) { return len(t.writes), len(t.Deltas) }

// AbortTo rolls back every write recorded after a Mark, restoring the slots
// in reverse order, and drops the deltas recorded since. Statement-level
// atomicity: a failed statement unwinds its own writes while the
// transaction stays open.
func (t *Txn) AbortTo(writes, deltas int) {
	for i := len(t.writes) - 1; i >= writes; i-- {
		w := t.writes[i]
		w.ref.AbortWrite(w.op)
	}
	t.writes = t.writes[:writes]
	t.Deltas = t.Deltas[:deltas]
}

// Abort rolls back the whole write-set.
func (t *Txn) Abort() { t.AbortTo(0, 0) }

// CommitStamps replaces every pending stamp in the write-set with the commit
// epoch. The caller (the engine) is responsible for ordering: stamps first,
// then clock publication, then version bumps.
func (t *Txn) CommitStamps(epoch uint64) {
	for _, w := range t.writes {
		w.ref.CommitWrite(w.op, epoch)
	}
}

// BumpTouched advances the version counter of every touched table.
func (t *Txn) BumpTouched() {
	for _, b := range t.touched {
		b.BumpVersion()
	}
}
