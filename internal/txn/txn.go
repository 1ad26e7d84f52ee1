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
	"math/rand/v2"
	"sync"
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
// stamp a transaction's writes with Now()+1 and publish it (Commit), making
// the whole transaction visible in one atomic store. A transaction is the
// only way a row version is written, so every epoch is one commit.
//
// The clock also mints transaction ids (Begin) and keeps the registry of
// open snapshots (Register), whose minimum is the horizon below which no
// reader can see a version again.
type Clock struct {
	c   atomic.Uint64
	ids atomic.Uint64
	reg registry
}

// NewClock returns a clock at epoch 0.
func NewClock() *Clock { return &Clock{} }

// Now returns the latest published epoch.
func (c *Clock) Now() uint64 { return c.c.Load() }

// Next returns the epoch the next commit publishes (Now()+1). Callers must
// be serialized with every committer of tables on this clock.
func (c *Clock) Next() uint64 { return c.c.Load() + 1 }

// Register announces a reader and returns its registration and the epoch of
// its snapshot. The reader is registered before it reads the clock: it
// records the epoch it last saw, claims a slot with it, and only then reads
// the epoch it will use, which is never older. A reclaimer that reads the
// clock and then scans the slots (Horizon) therefore either sees the
// registration or knows the reader reads at an epoch no older than its own
// clock reading. Lock-free: one compare-and-swap on a slot picked at random,
// so concurrent readers rarely share a cache line.
func (c *Clock) Register() (Reg, uint64) {
	seen := c.Now()
	for {
		chunks := c.reg.load()
		n := len(chunks) * regChunkSlots
		for i, start := 0, rand.IntN(n); i < n; i++ {
			j := (start + i) % n
			s := &chunks[j/regChunkSlots][j%regChunkSlots]
			if s.v.Load() == 0 && s.v.CompareAndSwap(0, seen+1) {
				return Reg{s}, c.Now()
			}
		}
		c.reg.grow(len(chunks))
	}
}

// Horizon returns the oldest epoch any reader can still read at: the
// minimum of the registered snapshots and the clock. A version whose end
// epoch is at or below it is visible to no snapshot, open or future.
func (c *Clock) Horizon() uint64 {
	now := c.Now()
	return min(now, c.Oldest())
}

// Oldest returns the minimum registered snapshot epoch, or Infinity when no
// reader is registered.
func (c *Clock) Oldest() uint64 {
	oldest := Infinity
	for _, ch := range c.reg.load() {
		for i := range ch {
			if v := ch[i].v.Load(); v != 0 {
				oldest = min(oldest, v-1)
			}
		}
	}
	return oldest
}

// Reg is one registered reader. Release it exactly once, when the reader
// has finished with every version it read; the zero Reg is no registration.
type Reg struct{ s *regSlot }

// Release ends the registration.
func (r Reg) Release() {
	if r.s != nil {
		r.s.v.Store(0)
	}
}

// registry is the set of open snapshots: fixed chunks of padded slots, each
// holding a registered epoch plus one (0 = free). Chunks are only ever added,
// so a reader's slot pointer stays valid.
type registry struct {
	mu     sync.Mutex // serializes growth
	chunks atomic.Pointer[[]*regChunk]
}

const regChunkSlots = 64

type regChunk [regChunkSlots]regSlot

type regSlot struct {
	v atomic.Uint64
	_ [56]byte // one slot per cache line
}

func (r *registry) load() []*regChunk {
	if p := r.chunks.Load(); p != nil {
		return *p
	}
	r.grow(0)
	return *r.chunks.Load()
}

// grow adds a chunk unless another reader already grew past have chunks.
func (r *registry) grow(have int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var cur []*regChunk
	if p := r.chunks.Load(); p != nil {
		cur = *p
	}
	if len(cur) > have {
		return
	}
	next := append(cur[:len(cur):len(cur)], new(regChunk))
	r.chunks.Store(&next)
}

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

// Written is a table a transaction wrote (the storage layer's tables): its
// plan-cache version advances when the transaction commits, and once the
// commit is published it reclaims the versions no snapshot can see any more.
type Written interface {
	BumpVersion()
	Reclaim() (int, error)
}

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
	touched []Written
	reg     Reg
}

// Begin starts a transaction under a fresh id (never zero, which means "no
// owner") with a snapshot registered on c until Release (or Abort): while
// it is open, no version it can see is reclaimed.
func (c *Clock) Begin() *Txn {
	id := c.ids.Add(1)
	reg, epoch := c.Register()
	return &Txn{ID: id, Snap: Snapshot{Epoch: epoch, TxnID: id}, reg: reg}
}

// Commit publishes tx at the next epoch: the write-set's pending stamps
// become that epoch, stamp (when non-nil) runs with it, the
// clock publishes it — the one atomic store that makes the whole
// transaction visible — every table tx wrote bumps its version, and tx's
// snapshot registration ends. Committers of tables on c must be serialized;
// reclamation (ReclaimTouched) is the caller's next step.
func (c *Clock) Commit(tx *Txn, stamp func(epoch uint64)) {
	epoch := c.Next()
	for _, w := range tx.writes {
		w.ref.CommitWrite(w.op, epoch)
	}
	if stamp != nil {
		stamp(epoch)
	}
	c.c.Store(epoch)
	for _, b := range tx.touched {
		b.BumpVersion()
	}
	tx.Release()
}

// Release ends the transaction's snapshot registration. Idempotent.
func (t *Txn) Release() {
	t.reg.Release()
	t.reg = Reg{}
}

type write struct {
	ref SlotRef
	op  Op
}

// Record adds one physical write to the write-set.
func (t *Txn) Record(ref SlotRef, op Op) { t.writes = append(t.writes, write{ref, op}) }

// Touch registers a table for a commit-time version bump (deduplicated; the
// set stays tiny — a transaction touches few tables).
func (t *Txn) Touch(b Written) {
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

// Abort rolls back the whole write-set and ends the transaction's snapshot
// registration.
func (t *Txn) Abort() {
	t.AbortTo(0, 0)
	t.Release()
}

// ReclaimTouched lets every touched table reclaim its unreachable versions,
// returning how many went and the first failure. The caller runs it after
// Commit, so the versions this transaction ended count.
func (t *Txn) ReclaimTouched() (int, error) {
	total := 0
	var first error
	for _, b := range t.touched {
		n, err := b.Reclaim()
		total += n
		if err != nil && first == nil {
			first = err
		}
	}
	return total, first
}
