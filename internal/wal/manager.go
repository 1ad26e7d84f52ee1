package wal

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"rfview/internal/engine"
	"rfview/internal/metrics"
)

// Options configures a durability manager.
type Options struct {
	// Dir is the data directory; it is created if missing.
	Dir string
	// Sync is the fsync policy for WAL appends.
	Sync SyncPolicy
	// SyncInterval is the flush cadence under SyncInterval (default 100ms).
	SyncInterval time.Duration
	// CheckpointEvery takes a snapshot and truncates the WAL after this many
	// logged statements; 0 disables automatic checkpoints (manual Checkpoint
	// and the close-time checkpoint still run).
	CheckpointEvery int
	// SegmentBytes rotates WAL segments at this size (default 4 MiB).
	SegmentBytes int64
}

// RecoveryStats describes what Open found and replayed.
type RecoveryStats struct {
	// SnapshotLoaded reports whether a snapshot was restored.
	SnapshotLoaded bool
	// SnapshotLSN is the restored snapshot's LSN (0 when none).
	SnapshotLSN uint64
	// RecordsReplayed counts WAL records replayed after the snapshot.
	RecordsReplayed int
	// RecordsDiscarded counts the intact records the log held past a tear,
	// which recovery did not replay and deleted with their segments.
	RecordsDiscarded int
	// ReplayErrors counts replayed SQL records that returned an error. The
	// engine is deterministic, so these are statements that failed the same
	// way before the crash (and were logged under the log-before-apply
	// rule); they change nothing on replay either. A commit record is
	// written only for a committed transaction, so one that fails to replay
	// fails Open instead.
	ReplayErrors int
	// Fresh reports a brand-new data directory: no snapshot, no records.
	Fresh bool
}

// Manager owns one engine's durability: it logs every write ahead of
// application, checkpoints state into snapshots, and is the factory that
// recovers an engine from its data directory.
type Manager struct {
	opts Options
	eng  *engine.Engine
	log  *Log
	rec  RecoveryStats

	// sinceCheckpoint and checkpointErr are mutated only under the engine's
	// exclusive lock (write hooks and Quiesce'd checkpoints).
	sinceCheckpoint int
	checkpointErr   error

	// checkpoint instruments, wired by instrumentMetrics.
	checkpointSeconds *metrics.Histogram
	checkpoints       *metrics.Counter

	closeOnce sync.Once
	closeErr  error
}

// FormatError is a snapshot or log record in a format this version does not
// read: the data directory was written by an earlier rfview, before rows on
// disk had one encoding. Open refuses the directory and leaves it as it was.
type FormatError struct {
	Where string // the snapshot's file name, or "log record <LSN>"
	Found string // the format found: a snapshot magic or a commit-record marker
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("wal: %s is in format %s, which this version does not read (it reads %s snapshots and %s commit records): "+
		"the data directory was written by an earlier rfview", e.Where, e.Found, snapMagic, engine.CommitFormat)
}

// GapError is a log that does not continue from the snapshot recovery
// loaded: its oldest record is past the snapshot's LSN + 1. The records in
// between were truncated behind a newer snapshot that no longer loads, and
// replaying around them would lose them.
type GapError struct {
	SnapshotLSN uint64 // the loaded snapshot's LSN, 0 when none loaded
	FirstLSN    uint64 // the oldest LSN the log still holds
}

func (e *GapError) Error() string {
	return fmt.Sprintf("wal: the log starts at record %d, but the newest snapshot that loads covers records through %d: records %d to %d are lost",
		e.FirstLSN, e.SnapshotLSN, e.SnapshotLSN+1, e.FirstLSN-1)
}

// Open recovers (or initializes) an engine from the data directory: load
// the newest valid snapshot, replay the WAL tail through the normal exec
// path, take a recovery-ending checkpoint, and attach the write-ahead hooks.
// The returned manager owns the engine; use Engine to reach it. A directory
// Open cannot recover — a FormatError, a GapError, a commit record that does
// not replay — fails before the log is opened for append, leaving the
// directory as it was, and the engine built for it is closed.
func Open(opts Options, engOpts engine.Options) (*Manager, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	snap, _, err := loadNewestSnapshot(opts.Dir)
	if err != nil {
		return nil, err
	}
	var afterLSN uint64
	if snap != nil {
		afterLSN = snap.LSN
	}
	recs, discarded, err := readTail(opts.Dir, afterLSN)
	if err != nil {
		return nil, err
	}
	eng := engine.New(engOpts)
	m, err := recoverInto(eng, opts, snap, recs)
	if err != nil {
		eng.Close()
		return nil, err
	}
	m.rec.RecordsDiscarded = discarded
	return m, nil
}

// recoverInto is Open's work on the engine it built: restore snap, replay
// recs, open the log after them and checkpoint.
func recoverInto(eng *engine.Engine, opts Options, snap *Snapshot, recs []Record) (*Manager, error) {
	m := &Manager{opts: opts, eng: eng}
	var lastLSN uint64
	if snap != nil {
		if err := restoreState(eng, snap); err != nil {
			return nil, err
		}
		m.rec.SnapshotLoaded = true
		m.rec.SnapshotLSN = snap.LSN
		lastLSN = snap.LSN
	}
	for _, r := range recs {
		// Transactions reach the log as commit records (their deltas, encoded
		// at commit), everything else as canonical SQL. A transaction that
		// never committed has no record and is invisible after replay.
		if engine.IsCommitRecord(r.SQL) {
			if found, _, _ := strings.Cut(r.SQL, " "); found != engine.CommitFormat {
				return nil, &FormatError{Where: fmt.Sprintf("log record %d", r.LSN), Found: found}
			}
			if err := eng.ApplyCommitRecord(r.SQL); err != nil {
				return nil, fmt.Errorf("wal: log record %d: %w", r.LSN, err)
			}
		} else if _, err := eng.Exec(r.SQL); err != nil {
			m.rec.ReplayErrors++
		}
		m.rec.RecordsReplayed++
		if r.LSN > lastLSN {
			lastLSN = r.LSN
		}
	}
	m.rec.Fresh = snap == nil && len(recs) == 0
	// The plan/result cache of a fresh engine is empty, and restored heaps
	// restart their version counters; purge anyway so no code path can ever
	// carry a pre-crash cache entry across recovery.
	eng.InvalidatePlans()

	var err error
	m.log, err = openLog(opts.Dir, lastLSN+1, opts.Sync, opts.SegmentBytes, opts.SyncInterval)
	if err != nil {
		return nil, err
	}
	m.instrumentMetrics()
	// Recovery ends with a checkpoint: the replayed tail is folded into a
	// snapshot, bounding the next recovery, and once it is synced the
	// segments past the tear go (Log.Truncate), so no later recovery can
	// replay what this one discarded. Nothing is concurrent yet, so no lock
	// is needed.
	if err := m.checkpointLocked(); err != nil {
		m.log.Close()
		return nil, err
	}
	eng.SetWriteHooks(
		func(sql string) error {
			_, err := m.log.Append(sql)
			return err
		},
		m.afterWrite,
	)
	return m, nil
}

// Engine returns the recovered engine.
func (m *Manager) Engine() *engine.Engine { return m.eng }

// Recovery returns what Open found.
func (m *Manager) Recovery() RecoveryStats { return m.rec }

// afterWrite runs under the engine's exclusive lock after each statement.
func (m *Manager) afterWrite() {
	m.sinceCheckpoint++
	if m.opts.CheckpointEvery > 0 && m.sinceCheckpoint >= m.opts.CheckpointEvery {
		// A failed automatic checkpoint must not fail the statement that
		// tripped it — the statement is already logged and applied, so
		// durability is intact; the WAL just keeps growing. The error is
		// kept for Err and retried at the next boundary.
		m.checkpointErr = m.checkpointLocked()
	}
}

// Err returns the most recent automatic-checkpoint failure, or nil.
func (m *Manager) Err() error { return m.checkpointErr }

// Checkpoint quiesces the engine, snapshots its state, and truncates the
// WAL.
func (m *Manager) Checkpoint() error {
	return m.eng.Quiesce(m.checkpointLocked)
}

// checkpointLocked is the checkpoint protocol. Callers hold the engine's
// exclusive lock (or own the engine exclusively, as during Open). Order
// matters for crash safety:
//
//  1. capture state at the current last LSN;
//  2. write the snapshot to a temp file, fsync, rename, fsync dir — a crash
//     up to here leaves the previous snapshot and the full WAL: no loss;
//  3. truncate the WAL (delete covered segments, open a fresh one) — a
//     crash after the rename but before this replays covered records onto
//     the new snapshot's state; replay tolerates the resulting determinis-
//     tic re-failures, and ReadTail's LSN filter skips already-folded
//     records;
//  4. prune old snapshots, keeping one fallback.
func (m *Manager) checkpointLocked() error {
	start := time.Now()
	lsn := m.log.LastLSN()
	snap, err := captureState(m.eng, lsn)
	if err != nil {
		return err
	}
	// Quiesce paged storage too: write back dirty pages so the heap files on
	// disk are consistent with the snapshot just captured. Not needed for
	// durability — heap files are scratch, rebuilt from the snapshot + WAL on
	// recovery — but it keeps eviction off the post-checkpoint hot path.
	if err := m.eng.FlushStorage(); err != nil {
		return err
	}
	if err := writeSnapshot(m.opts.Dir, snap); err != nil {
		return err
	}
	if err := m.log.Truncate(lsn); err != nil {
		return err
	}
	if err := pruneSnapshots(m.opts.Dir); err != nil {
		return err
	}
	m.sinceCheckpoint = 0
	m.checkpointErr = nil
	if m.checkpointSeconds != nil {
		m.checkpointSeconds.Observe(time.Since(start).Seconds())
		m.checkpoints.Inc()
	}
	return nil
}

// Close detaches the hooks, takes a final checkpoint, and closes the WAL.
// The engine keeps working afterwards — volatile, as if it had been built
// without a manager.
func (m *Manager) Close() error {
	m.closeOnce.Do(func() {
		m.eng.SetWriteHooks(nil, nil)
		err := m.eng.Quiesce(m.checkpointLocked)
		if cerr := m.log.Close(); err == nil {
			err = cerr
		}
		m.closeErr = err
	})
	return m.closeErr
}
