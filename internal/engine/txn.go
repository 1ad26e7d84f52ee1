package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	rferrors "rfview/errors"
	"rfview/internal/sqlparser"
	"rfview/internal/txn"
)

// This file is the engine half of MVCC snapshot isolation (internal/txn
// holds the mechanism): transaction lifecycle, the commit protocol, and the
// lock-free read path.
//
// Concurrency discipline:
//
//   - Reads (SELECT, UNION, EXPLAIN) never take the engine lock. Each
//     statement resolves one snapshot from the commit clock and scans
//     version chains lock-free. Whether a view answers is decided at the
//     same snapshot — its rows are fresh over a range of commit epochs — and
//     a derived answer reads its sequence's length off the view rows there.
//   - Explicit-transaction DML takes no engine lock either: pending version
//     stamps plus per-table mutexes and the claim-CAS give first-claimer-
//     wins write-write conflict detection.
//   - Commits — auto-commit statements, explicit COMMIT, DDL, REFRESH —
//     serialize on the exclusive engine lock; each publishes atomically by
//     bumping the commit clock inside a commitSeq window.
//
// commitSeq is a seqlock over everything a read statement consumes that is
// neither row-versioned nor stamped with epochs: storage version counters
// (the plan cache's validity) and catalog schema. View freshness needs no
// retry — a commit stamps it with the epoch it publishes before publishing,
// so no snapshot older than the commit sees the change. A commit flips it
// odd, publishes, flips it even; a reader that saw it change (or odd)
// retries, and after a few torn attempts falls back to the shared lock,
// which writers' exclusive lock makes race-free by construction.

// readRetries is how many optimistic attempts a read statement makes before
// falling back to the shared engine lock.
const readRetries = 3

// newTxn mints a transaction with a fresh snapshot, registered with the
// commit clock until the transaction ends, so reclamation keeps every version
// it can see. Registration is one compare-and-swap, so transactions begin
// without any engine lock; TxnID in the snapshot makes the transaction's own
// pending writes visible to its statements (read-your-writes).
func (e *Engine) newTxn() *txn.Txn {
	tx := e.Cat.Clock().Begin(e.txnIDs.Add(1))
	e.txnBegins.Add(1)
	return tx
}

// BeginTxn starts an explicit transaction: a stable snapshot for every
// statement until Commit or Rollback. Lock-free.
func (e *Engine) BeginTxn() *txn.Txn { return e.newTxn() }

// CommitTxn publishes an explicit transaction's writes atomically and logs
// a durable commit record. A read-only transaction commits trivially.
func (e *Engine) CommitTxn(tx *txn.Txn) error {
	if !tx.HasWrites() && len(tx.Deltas) == 0 {
		tx.Release()
		e.txnCommits.Add(1)
		return nil
	}
	start := time.Now()
	e.mu.Lock()
	e.met.commitWait.Observe(time.Since(start).Seconds())
	defer e.mu.Unlock()
	return e.commitTxnLocked(tx, true, nil)
}

// RollbackTxn abandons a transaction, reversing its pending stamps and
// ending its snapshot registration. Lock-free (stamps revert via the same
// atomics that set them).
func (e *Engine) RollbackTxn(tx *txn.Txn) {
	tx.Abort()
	e.txnRollbacks.Add(1)
}

// commitTxnLocked is the commit protocol. Callers hold the exclusive engine
// lock. durable selects whether a commit record is written to the WAL
// (client work) or not (internal transactions: replayed records, REFRESH
// under an already-logged statement).
//
//  1. Write the commit record — the commit point. A log error aborts
//     cleanly: nothing is visible yet.
//  2. Fold view maintenance into the same transaction: backing-table patches
//     join the write-set, and a view the deltas break is stale from the
//     epoch this commit publishes — fixed (Clock().Next()) before the fold,
//     so readers of older snapshots keep reading the view.
//  3. Publication window: flip commitSeq odd, stamp the write-set with that
//     epoch, run stamp (a REFRESH's freshness stamp) with it, publish the
//     clock, bump table versions, flip commitSeq even. Between the clock
//     store and the flip a reader may start at the new epoch and see version
//     counters mid-flip — the seqlock catches exactly that, and any reader
//     that saw stamp's effect overlapped the window and retries.
//  4. End the transaction's snapshot registration and let every table it
//     wrote reclaim the versions no snapshot can see any more. This runs
//     under the exclusive lock, which keeps the engine's own unregistered
//     readers (maintenance, REFRESH, checkpoints) out of the way; a failed
//     pass changes nothing it could not finish and is retried by the next
//     commit, so it does not fail this one.
func (e *Engine) commitTxnLocked(tx *txn.Txn, durable bool, stamp func(epoch uint64)) error {
	if !tx.HasWrites() && len(tx.Deltas) == 0 {
		tx.Release()
		e.txnCommits.Add(1)
		return nil
	}
	if durable && e.logWrite != nil {
		rec, err := encodeCommitRecord(tx.Deltas)
		if err == nil {
			err = e.logWrite(rec)
		}
		if err != nil {
			tx.Abort()
			e.txnRollbacks.Add(1)
			return fmt.Errorf("durability: %w", err)
		}
	}
	epoch := e.Cat.Clock().Next()
	for _, d := range tx.Deltas {
		switch d.Kind {
		case txn.DeltaInsert:
			e.Views.AfterInsert(tx, d.Table, d.Rows, d.Cols)
		case txn.DeltaUpdate:
			e.Views.AfterUpdate(tx, d.Table, d.Before, d.After, d.Cols)
		case txn.DeltaDelete:
			e.Views.AfterDelete(tx, d.Table, d.Rows, d.Cols)
		}
	}
	e.commitSeq.Add(1)
	tx.CommitStamps(epoch)
	if stamp != nil {
		stamp(epoch)
	}
	e.Cat.Clock().Publish(epoch)
	tx.BumpTouched()
	e.commitSeq.Add(1)
	e.txnCommits.Add(1)
	tx.Release()
	n, _ := tx.ReclaimTouched()
	e.versionsReclaimed.Add(int64(n))
	if durable && e.postWrite != nil {
		e.postWrite()
	}
	return nil
}

// abortStmt reverses one failed statement's writes inside an explicit
// transaction (statement-level atomicity); the transaction survives unless
// the failure was a write-write conflict, which the session escalates to a
// full rollback.
func abortStmt(tx *txn.Txn, markW, markD int) { tx.AbortTo(markW, markD) }

// ExecTxn executes one statement inside an explicit transaction. Reads run
// lock-free at the transaction's snapshot, bypassing the plan/result cache
// (which tracks the latest committed state); a view answers them — derived
// or by name — when it is fresh at the snapshot and tx has not written its
// base table. DML creates pending versions owned by tx. DDL, REFRESH, and
// transaction-control statements are rejected. On a write-write conflict the
// statement is reversed and the whole transaction rolled back; the returned
// error carries code "conflict".
func (e *Engine) ExecTxn(ctx context.Context, tx *txn.Txn, sql string, opts ...ExecOption) (*Result, error) {
	var cfg execConfig
	for _, o := range opts {
		o(&cfg)
	}
	cfg.trace = cfg.analyze || e.slowLogArmed()
	cfg.tx = tx
	start := time.Now()
	res, err := e.exec(ctx, sql, cfg)
	e.observeQuery(func() string { return sql }, res, err, time.Since(start))
	return res, err
}

// execTxnWrite runs one DML statement inside an explicit transaction,
// without the engine lock: row claims conflict-check via CAS, uniqueness via
// the per-table mutex.
func (e *Engine) execTxnWrite(ctx context.Context, stmt sqlparser.Statement, cfg execConfig) (*Result, error) {
	tx := cfg.tx
	switch stmt.(type) {
	case *sqlparser.Insert, *sqlparser.Update, *sqlparser.Delete:
	case *sqlparser.Begin:
		return nil, rferrors.New(rferrors.CodeTxnState, "already in a transaction")
	default:
		return nil, rferrors.New(rferrors.CodeTxnState,
			"%T is not allowed inside a transaction (DDL and REFRESH auto-commit)", stmt)
	}
	markW, markD := tx.Mark()
	res, err := e.execDML(ctx, stmt, cfg)
	if err != nil {
		abortStmt(tx, markW, markD)
		if rferrors.CodeOf(err) == rferrors.CodeConflict {
			e.txnConflicts.Add(1)
			e.RollbackTxn(tx)
			return nil, fmt.Errorf("%w; transaction rolled back", err)
		}
		return nil, err
	}
	return res, nil
}

// newSnapCell returns the per-statement snapshot resolver threaded into the
// planner: every scan and index probe of one statement must read at the same
// epoch. A transaction statement reads at the transaction's (registered)
// snapshot; any other statement latches the latest committed epoch once, at
// first use. Such a latest-epoch snapshot is not registered: it is for
// callers holding the exclusive engine lock, which excludes reclamation.
// Lock-free reads use a snapCell instead.
func (e *Engine) newSnapCell(tx *txn.Txn) func() txn.Snapshot {
	if tx != nil {
		s := tx.Snap
		return func() txn.Snapshot { return s }
	}
	var once sync.Once
	var s txn.Snapshot
	return func() txn.Snapshot {
		once.Do(func() { s = txn.Snapshot{Epoch: e.Cat.Clock().Now()} })
		return s
	}
}

// snapCell is a lock-free read statement's snapshot: resolved at first use
// and registered with the commit clock before the clock is read, so no
// version it can see is reclaimed until release.
type snapCell struct {
	clock *txn.Clock
	once  sync.Once
	reg   txn.Reg
	snap  txn.Snapshot
}

func (c *snapCell) get() txn.Snapshot {
	c.once.Do(func() {
		var epoch uint64
		c.reg, epoch = c.clock.Register()
		c.snap = txn.Snapshot{Epoch: epoch}
	})
	return c.snap
}

// release ends the registration, if the statement made one. The statement
// is done with every version it read: its result rows are copies.
func (c *snapCell) release() {
	c.once.Do(func() {}) // orders the release after any get
	c.reg.Release()
}

// readStable runs one read statement optimistically against the commitSeq
// seqlock: attempt with a fresh snapshot cell, and accept the outcome only
// if no commit published during the attempt. After readRetries torn attempts
// it falls back to the shared engine lock, which commit holders exclude.
func (e *Engine) readStable(cfg execConfig, attempt func(execConfig) (*Result, error)) (*Result, error) {
	start := time.Now()
	run := func() (*Result, error) {
		cell := &snapCell{clock: e.Cat.Clock()}
		defer cell.release()
		c := cfg
		c.snap = cell.get
		e.met.snapshotWait.Observe(time.Since(start).Seconds())
		return attempt(c)
	}
	for i := 0; i < readRetries; i++ {
		s0 := e.commitSeq.Load()
		if s0&1 != 0 {
			runtime.Gosched()
			continue
		}
		res, err := run()
		if e.commitSeq.Load() == s0 {
			return res, err
		}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return run()
}

// TxnStats is a snapshot of the transaction counters, for the stats protocol
// op and tests.
type TxnStats struct {
	Begins, Commits, Rollbacks, ConflictAborts int64
	// VersionsReclaimed totals the row versions reclamation freed;
	// DeadVersions counts the ended or aborted versions still held across
	// all tables; HorizonLag is the commit clock less the horizon, the
	// oldest epoch an open snapshot reads at (0 with none open).
	VersionsReclaimed, DeadVersions int64
	HorizonLag                      uint64
}

// TxnStats returns the engine's transaction counters.
func (e *Engine) TxnStats() TxnStats {
	clock := e.Cat.Clock()
	now := clock.Now()
	st := TxnStats{
		Begins:            e.txnBegins.Load(),
		Commits:           e.txnCommits.Load(),
		Rollbacks:         e.txnRollbacks.Load(),
		ConflictAborts:    e.txnConflicts.Load(),
		VersionsReclaimed: e.versionsReclaimed.Load(),
		HorizonLag:        now - min(now, clock.Oldest()),
	}
	for _, name := range e.Cat.Tables() {
		if t, err := e.Cat.Table(name); err == nil {
			st.DeadVersions += int64(t.Heap.Versions().Dead)
		}
	}
	return st
}
