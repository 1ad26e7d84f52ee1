// Package engine is the top of the rfview stack: it parses SQL, routes DDL
// and DML, keeps materialized views maintained, answers reporting-function
// queries from a matching fresh sequence view (the §3–§5 derivation rewrite)
// or with the native window operator, plans, and executes.
//
// Options describes the one served system: whether views answer queries,
// and the executor's parallelism, memory and paging. The paper's evaluation
// axes — Fig. 2 self join vs. native, with/without index, MaxOA vs. MinOA,
// disjunctive vs. UNION — are not engine switches: internal/bench renders
// them as SQL with the rewrite package and runs that SQL here. The engine
// itself answers a derivable query by the sequence algebra only.
package engine

import (
	"context"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	rferrors "rfview/errors"
	"rfview/internal/catalog"
	"rfview/internal/exec"
	"rfview/internal/metrics"
	"rfview/internal/mview"
	"rfview/internal/plan"
	"rfview/internal/qcache"
	"rfview/internal/rewrite"
	"rfview/internal/spill"
	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
	"rfview/internal/storage"
	"rfview/internal/txn"
)

// Options configures an engine.
type Options struct {
	// UseMatViews enables answering window queries from materialized
	// sequence views (§3–§5 derivation rewrites).
	UseMatViews bool
	// WindowParallelism bounds the worker pool the Window operator uses to
	// evaluate independent partitions (the §6 partitioning reduction lemma)
	// concurrently: 0 resolves to GOMAXPROCS, 1 forces sequential
	// evaluation, N > 1 allows up to N workers. It also governs a plain
	// materialized view's REFRESH, which re-executes the view query through
	// the planner; a sequence view's CREATE and REFRESH fill partition after
	// partition with core's §2.2 kernels (core.ComputePipelined) and no
	// Window operator.
	WindowParallelism int
	// DisableSharedSort switches off the shared-sort multi-window planner
	// pass: every Window operator of a multi-OVER query sorts internally
	// instead of stacking over one shared Sort per ordering-compatible spec
	// class. Results are identical either way; the knob exists for the
	// differential oracle and for A/B benchmarks.
	DisableSharedSort bool
	// MemoryBudgetBytes caps executor working memory: Sort buffers and
	// window partition orderings charge a shared spill.Budget, and an
	// operator whose charge would exceed the cap goes external — spilling
	// memcomparable sort runs to disk and merging them back (internal/spill).
	// 0 means unlimited (nothing ever spills); the RFVIEW_TEST_MEM_BUDGET
	// environment variable supplies a default when unset, so the whole test
	// suite can be forced through the spill path.
	MemoryBudgetBytes int64
	// SpillDir is where spill run files live; empty means a private
	// directory under os.TempDir. Servers point it at <data-dir>/tmp so
	// stale runs from a crashed process are swept on restart.
	SpillDir string
	// PageSize is the slotted-page size of paged heap storage in bytes;
	// 0 means storage.DefaultPageSize (8 KiB). Values are clamped to
	// [storage.MinPageSize, storage.MaxPageSize].
	PageSize int
	// PageCacheBytes is a hard cap on buffer-pool residency, independent of
	// the shared memory budget; 0 means budget-governed only. The
	// RFVIEW_TEST_PAGE_CACHE environment variable supplies a default when
	// unset, so the whole suite can be forced through a starved page cache.
	PageCacheBytes int64
}

// DefaultOptions answers window queries from materialized views where one
// applies; everything else is at its zero value.
func DefaultOptions() Options { return Options{UseMatViews: true} }

// Engine executes SQL statements.
//
// An Engine is safe for concurrent use. Read statements (SELECT, UNION,
// EXPLAIN) take no lock: each runs against an MVCC snapshot — including the
// view match, the MaxOA/MinOA rewrite and the plan it executes — and
// validates the commitSeq seqlock afterwards, retrying when a commit or DDL
// published in between and falling back to the shared mode of mu only after
// repeated torn attempts (readStable in txn.go). Commits, DDL and REFRESH
// MATERIALIZED VIEW serialize on the exclusive mode of mu and publish inside
// a commitSeq window, so every read observes base tables, views and catalog
// of one pre- or post-commit state. The catalog and the view manager carry
// their own finer-grained locks for direct library use.
type Engine struct {
	Cat   *catalog.Catalog
	Views *mview.Manager
	Opts  Options

	// mu serializes commits and DDL against each other; read statements take
	// its shared mode only as the fallback described above.
	mu sync.RWMutex
	// commitSeq is the seqlock guarding non-row-versioned read state (view
	// freshness, table version counters, schema); odd while a commit or DDL
	// publication is in flight. See txn.go.
	commitSeq atomic.Uint64
	// Transaction counters, exposed as metrics and by TxnStats().
	txnBegins, txnCommits, txnRollbacks, txnConflicts atomic.Int64
	// versionsReclaimed totals the row versions commits reclaimed.
	versionsReclaimed atomic.Int64
	// plans caches parse/match/derive work keyed by SQL text; see cache.go.
	plans *qcache.Cache[*cachedPlan]

	// logWrite, when set, receives the canonical SQL of every mutating
	// statement *before* it applies, under the exclusive lock — the
	// write-ahead discipline of the durability subsystem. A logWrite error
	// refuses the statement: nothing may change state that was not first
	// logged. postWrite runs after the apply attempt (success or failure),
	// still under the exclusive lock; the durability subsystem uses it to
	// trigger checkpoints at record-count boundaries.
	logWrite  func(sql string) error
	postWrite func()

	// reg/met expose the engine's operational counters; see metrics.go.
	// winStats aggregates Window-operator parallelism across all queries.
	reg      *metrics.Registry
	met      *engineMetrics
	winStats *exec.WindowStats

	// spillCfg carries the out-of-core execution state shared by every
	// operator this engine plans: the memory budget, the run-file directory,
	// and the spill counters. Always non-nil; with no budget configured it is
	// simply never enabled. spillEnv is owned here so Close can remove run
	// files.
	spillCfg *spill.Config
	spillEnv *spill.Env

	// pager owns paged heap storage: the buffer pool and every table's heap
	// file.
	pager *storage.Pager

	// Slow-query log configuration. These live outside Options because
	// Options must stay comparable (the plan cache validates entries with
	// `e.Opts != p.opts`) and a func field would break that.
	slowMu     sync.Mutex
	slowThresh time.Duration
	slowSink   func(SlowQuery)
}

// Result is the outcome of one statement.
type Result struct {
	Columns  []string
	Rows     []sqltypes.Row
	Affected int
	// Plan carries the EXPLAIN rendering when requested.
	Plan string
	// Derivation records a §4/§5 view-derivation rewrite, when one fired.
	Derivation *rewrite.Derivation
	// Analyzed carries the annotated operator tree (per-node row counts and
	// wall time) when the statement ran instrumented: EXPLAIN ANALYZE,
	// WithAnalyze, or an armed slow-query log.
	Analyzed string
	// CacheHit reports that the plan cache answered this statement.
	CacheHit bool

	// execStmt is the statement that was actually planned (post-derivation);
	// the plan cache replans from it on a hit.
	execStmt sqlparser.SelectStatement
	// skipped names the view the derivation rewrite declined to read and
	// skipWhy says why; EXPLAIN prints both, and the plan cache drops the
	// plan once the view is fresh.
	skipped, skipWhy string
	// cached is the cache entry whose stored rows this result returns, so
	// Encoded and Rewritten memoize beside them; nil for executed results.
	cached *cachedPlan
}

// ExecOption adjusts a single ExecContext call.
type ExecOption func(*execConfig)

type execConfig struct {
	// analyze requests the annotated plan in Result.Analyzed and bypasses
	// result-row reuse (the rows must actually flow to be counted).
	analyze bool
	// trace instruments the operator tree; implied by analyze and by an
	// armed slow-query log.
	trace bool
	// tx is the transaction this statement runs inside: the enclosing
	// explicit transaction, or the statement's own auto-commit transaction
	// for DML. nil for auto-commit reads.
	tx *txn.Txn
	// snap resolves the snapshot every scan and index probe of this
	// statement reads at. Set by the read path (readStable) or derived from
	// tx; planSelect fills in a latest-committed default when unset.
	snap func() txn.Snapshot
}

// WithAnalyze executes the statement instrumented and fills Result.Analyzed
// with the per-operator row counts and timings, as EXPLAIN ANALYZE does.
func WithAnalyze() ExecOption { return func(c *execConfig) { c.analyze = true } }

// New builds an engine with the given options: one spill environment, one
// memory budget, one pager over both, and a catalog handed that pager, so
// every table the engine ever creates is a paged heap.
func New(opts Options) *Engine {
	if opts.MemoryBudgetBytes == 0 {
		// Test knob: force a budget (and thus the spill path) suite-wide.
		if env := os.Getenv("RFVIEW_TEST_MEM_BUDGET"); env != "" {
			if n, err := spill.ParseBytes(env); err == nil {
				opts.MemoryBudgetBytes = n
			}
		}
	}
	if opts.PageCacheBytes == 0 {
		// Test knob: starve every engine's page cache suite-wide.
		if env := os.Getenv("RFVIEW_TEST_PAGE_CACHE"); env != "" {
			if n, err := spill.ParseBytes(env); err == nil {
				opts.PageCacheBytes = n
			}
		}
	}
	e := &Engine{Opts: opts, plans: qcache.New[*cachedPlan](DefaultPlanCacheCapacity)}
	e.spillEnv = spill.NewEnv(opts.SpillDir)
	e.spillCfg = &spill.Config{
		Budget: spill.NewBudget(opts.MemoryBudgetBytes),
		Env:    e.spillEnv,
		Stats:  &spill.Stats{},
	}
	// Page residency charges the same budget as sort/window spilling, so
	// -mem-budget is the one knob that governs total executor memory.
	e.pager = storage.NewPager(storage.PagerConfig{
		PageSize: opts.PageSize,
		CapBytes: opts.PageCacheBytes,
		Budget:   e.spillCfg.Budget,
		Env:      e.spillEnv,
	})
	e.Cat = catalog.New(e.pager)
	e.Views = mview.NewManager(e.Cat, func(ctx context.Context, stmt sqlparser.SelectStatement) ([]string, []sqltypes.Row, error) {
		res, err := e.execSelect(ctx, stmt, execConfig{})
		if err != nil {
			return nil, nil, err
		}
		return res.Columns, res.Rows, nil
	})
	e.initMetrics()
	return e
}

// Exec parses and executes a single statement without a deadline: the
// context.Background() convenience form of ExecContext (the database/sql
// convention), for callers that need neither cancellation nor per-call
// options.
func (e *Engine) Exec(sql string) (*Result, error) {
	return e.ExecContext(context.Background(), sql)
}

// ExecContext parses and executes a single statement. For queries it
// consults the plan cache first: a valid cached entry skips parse, view
// matching, and derivation entirely. Cancelling ctx aborts row production at
// the next operator boundary and returns an error matching
// rfview/errors.ErrCancelled; the engine's state is untouched by a cancelled
// read (writes are not interruptible once logged).
func (e *Engine) ExecContext(ctx context.Context, sql string, opts ...ExecOption) (*Result, error) {
	var cfg execConfig
	for _, o := range opts {
		o(&cfg)
	}
	cfg.trace = cfg.analyze || e.slowLogArmed()
	start := time.Now()
	res, err := e.exec(ctx, sql, cfg)
	e.observeQuery(func() string { return sql }, res, err, time.Since(start))
	return res, err
}

func (e *Engine) exec(ctx context.Context, sql string, cfg execConfig) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, rferrors.Wrap(rferrors.CodeCancelled, err)
	}
	if cfg.tx != nil {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			return nil, rferrors.Wrap(rferrors.CodeParse, err)
		}
		return e.execInTxn(ctx, stmt, cfg)
	}
	if res, err, ok := e.execCached(ctx, sql, cfg); ok {
		return res, err
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, rferrors.Wrap(rferrors.CodeParse, err)
	}
	if isReadStmt(stmt) {
		// Lock-free: execute optimistically against the seqlock, and cache
		// the plan only after the attempt proved stable — a torn attempt
		// could otherwise pair pre-commit rows with post-commit versions.
		var ent *cachedPlan
		res, err := e.readStable(cfg, func(c execConfig) (*Result, error) {
			ent = nil
			r, err := e.execStmtLocked(ctx, stmt, c)
			if err == nil {
				ent = e.preparePlan(stmt, r)
			}
			return r, err
		})
		if err == nil && ent != nil {
			e.plans.Put(sql, ent)
		}
		return res, err
	}
	lockStart := time.Now()
	e.mu.Lock()
	e.met.commitWait.Observe(time.Since(lockStart).Seconds())
	defer e.mu.Unlock()
	return e.execWriteLocked(ctx, stmt)
}

// execInTxn runs one statement inside an explicit transaction: reads at the
// transaction's fixed snapshot without any engine lock — deriving from the
// views that answer there, but with no plan cache, which tracks the latest
// committed state — and DML through the lock-free pending-version path.
func (e *Engine) execInTxn(ctx context.Context, stmt sqlparser.Statement, cfg execConfig) (*Result, error) {
	if isReadStmt(stmt) {
		cfg.snap = e.newSnapCell(cfg.tx)
		return e.execStmtLocked(ctx, stmt, cfg)
	}
	return e.execTxnWrite(ctx, stmt, cfg)
}

// ExecAll executes a semicolon-separated script, returning one result per
// statement. Execution stops at the first error. Each statement acquires the
// engine lock independently; a script is not one atomic unit with respect to
// concurrent readers. It is the context.Background() convenience form of
// ExecAllContext.
func (e *Engine) ExecAll(sql string) ([]*Result, error) {
	return e.ExecAllContext(context.Background(), sql)
}

// ExecAllContext is ExecAll with cancellation: the script stops at the first
// error or at the first statement that observes a cancelled context.
func (e *Engine) ExecAllContext(ctx context.Context, sql string) ([]*Result, error) {
	stmts, err := sqlparser.ParseAll(sql)
	if err != nil {
		return nil, rferrors.Wrap(rferrors.CodeParse, err)
	}
	out := make([]*Result, 0, len(stmts))
	for _, s := range stmts {
		res, err := e.ExecStmtContext(ctx, s)
		if err != nil {
			return out, fmt.Errorf("in %q: %w", s.String(), err)
		}
		out = append(out, res)
	}
	return out, nil
}

// isReadStmt reports whether a statement runs under the shared lock.
func isReadStmt(stmt sqlparser.Statement) bool {
	switch stmt.(type) {
	case *sqlparser.Select, *sqlparser.Union, *sqlparser.Explain:
		return true
	}
	return false
}

// ExecStmt executes a parsed statement under the engine's locking
// discipline: shared for reads, exclusive for everything else. It is the
// context.Background() convenience form of ExecStmtContext.
func (e *Engine) ExecStmt(stmt sqlparser.Statement) (*Result, error) {
	return e.ExecStmtContext(context.Background(), stmt)
}

// ExecStmtContext is ExecStmt with cancellation and per-call options.
func (e *Engine) ExecStmtContext(ctx context.Context, stmt sqlparser.Statement, opts ...ExecOption) (*Result, error) {
	var cfg execConfig
	for _, o := range opts {
		o(&cfg)
	}
	cfg.trace = cfg.analyze || e.slowLogArmed()
	start := time.Now()
	res, err := e.execStmt(ctx, stmt, cfg)
	e.observeQuery(stmt.String, res, err, time.Since(start))
	return res, err
}

func (e *Engine) execStmt(ctx context.Context, stmt sqlparser.Statement, cfg execConfig) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, rferrors.Wrap(rferrors.CodeCancelled, err)
	}
	if cfg.tx != nil {
		return e.execInTxn(ctx, stmt, cfg)
	}
	if isReadStmt(stmt) {
		return e.readStable(cfg, func(c execConfig) (*Result, error) {
			return e.execStmtLocked(ctx, stmt, c)
		})
	}
	lockStart := time.Now()
	e.mu.Lock()
	e.met.commitWait.Observe(time.Since(lockStart).Seconds())
	defer e.mu.Unlock()
	return e.execWriteLocked(ctx, stmt)
}

// SetWriteHooks installs the durability hooks: before receives the canonical
// text of each mutating statement ahead of its application (an error refuses
// the statement), after runs once the application attempt finishes. Both run
// under the exclusive engine lock. Either may be nil.
func (e *Engine) SetWriteHooks(before func(sql string) error, after func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.logWrite = before
	e.postWrite = after
}

// Quiesce runs fn while holding the engine's exclusive lock, blocking every
// statement for the duration. The durability subsystem uses it to take
// consistent snapshots of the catalog, heaps, and view manager.
func (e *Engine) Quiesce(fn func() error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return fn()
}

// execWriteLocked dispatches a mutating statement. Callers hold the
// exclusive lock. The durability discipline differs by class:
//
//   - DML runs inside an auto-commit transaction and reaches the log as a
//     commit record, only on success — failed or conflicted statements leave
//     no trace, in memory or on disk.
//   - DDL and REFRESH log their canonical SQL ahead of applying (a failed
//     statement replays to the same failure — the engine is deterministic),
//     and publish inside a commitSeq window so lock-free readers never
//     observe a half-applied schema change. CREATE and REFRESH MATERIALIZED
//     VIEW write the view's rows in one internal transaction, whose commit
//     is that window.
func (e *Engine) execWriteLocked(ctx context.Context, stmt sqlparser.Statement) (*Result, error) {
	switch s := stmt.(type) {
	case *sqlparser.Begin, *sqlparser.Commit, *sqlparser.Rollback:
		return nil, rferrors.New(rferrors.CodeTxnState,
			"transaction control requires a session (server connections hold one; library callers use engine.NewSession)")
	case *sqlparser.Insert, *sqlparser.Update, *sqlparser.Delete:
		tx := e.newTxn()
		cfg := execConfig{tx: tx, snap: e.newSnapCell(tx)}
		res, err := e.execDML(ctx, stmt, cfg)
		if err != nil {
			tx.Abort()
			e.txnRollbacks.Add(1)
			if rferrors.CodeOf(err) == rferrors.CodeConflict {
				e.txnConflicts.Add(1)
			}
			return nil, err
		}
		if err := e.commitTxnLocked(tx, true, nil); err != nil {
			return nil, err
		}
		return res, nil
	case *sqlparser.RefreshMatView:
		return e.viewTxnLocked(stmt, func(tx *txn.Txn) (func(uint64), error) {
			return e.Views.RefreshTx(ctx, tx, s.Name)
		})
	case *sqlparser.CreateMatView:
		return e.viewTxnLocked(stmt, func(tx *txn.Txn) (func(uint64), error) {
			return e.Views.CreateTx(ctx, tx, s)
		})
	default:
		if e.logWrite != nil {
			if err := e.logWrite(stmt.String()); err != nil {
				return nil, fmt.Errorf("durability: %w", err)
			}
		}
		e.commitSeq.Add(1)
		res, err := e.execStmtLocked(ctx, stmt, execConfig{})
		e.commitSeq.Add(1)
		if e.postWrite != nil {
			e.postWrite()
		}
		return res, err
	}
}

// viewTxnLocked runs CREATE or REFRESH MATERIALIZED VIEW as one internal
// transaction: run writes the backing rows as pending versions and returns
// the step that registers or stamps the view, which the commit runs inside
// its publication window. The statement's SQL is logged ahead, like DDL,
// and is its replay. Callers hold the exclusive lock.
func (e *Engine) viewTxnLocked(stmt sqlparser.Statement, run func(*txn.Txn) (func(uint64), error)) (*Result, error) {
	if e.logWrite != nil {
		if err := e.logWrite(stmt.String()); err != nil {
			return nil, fmt.Errorf("durability: %w", err)
		}
	}
	tx := e.newTxn()
	stamp, err := run(tx)
	if err != nil {
		tx.Abort()
		e.txnRollbacks.Add(1)
	} else {
		err = e.commitTxnLocked(tx, false, stamp)
	}
	if e.postWrite != nil {
		e.postWrite()
	}
	if err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// execDML routes a DML statement into its transaction.
func (e *Engine) execDML(ctx context.Context, stmt sqlparser.Statement, cfg execConfig) (*Result, error) {
	switch s := stmt.(type) {
	case *sqlparser.Insert:
		return e.execInsert(ctx, s, cfg)
	case *sqlparser.Update:
		return e.execUpdate(s, cfg)
	case *sqlparser.Delete:
		return e.execDelete(s, cfg)
	}
	return nil, rferrors.New(rferrors.CodeUnsupported, "engine: unsupported statement %T", stmt)
}

// execStmtLocked dispatches a parsed statement. Callers hold the engine lock
// in the mode appropriate for the statement kind.
func (e *Engine) execStmtLocked(ctx context.Context, stmt sqlparser.Statement, cfg execConfig) (*Result, error) {
	switch s := stmt.(type) {
	case *sqlparser.Select, *sqlparser.Union:
		return e.execSelect(ctx, s.(sqlparser.SelectStatement), cfg)
	case *sqlparser.Explain:
		return e.explain(ctx, s, cfg)
	case *sqlparser.CreateTable:
		cols := make([]catalog.Column, len(s.Columns))
		for i, c := range s.Columns {
			cols[i] = catalog.Column{Name: c.Name, Type: c.Type}
		}
		if _, err := e.Cat.CreateTable(s.Name, cols); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.CreateIndex:
		if _, err := e.userTable(s.Table); err != nil {
			return nil, err
		}
		if _, err := e.Cat.CreateIndex(s.Name, s.Table, s.Columns, s.Unique); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.DropTable:
		if err := e.Cat.DropTable(s.Name); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.DropMatView:
		if err := e.Views.Drop(s.Name); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.DropIndex:
		if _, err := e.userTable(s.Table); err != nil {
			return nil, err
		}
		if err := e.Cat.DropIndex(s.Table, s.Name); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.Begin, *sqlparser.Commit, *sqlparser.Rollback:
		return nil, rferrors.New(rferrors.CodeTxnState,
			"transaction control requires a session (server connections hold one; library callers use engine.NewSession)")
	default:
		return nil, rferrors.New(rferrors.CodeUnsupported, "engine: unsupported statement %T", stmt)
	}
}

// planner returns a fresh planner with the engine's current options. The
// context rides into the Window operator so partition evaluation — the
// longest-running phase of a reporting-function query — observes
// cancellation; winStats aggregates its parallelism telemetry.
func (e *Engine) planner(ctx context.Context, snap func() txn.Snapshot) *plan.Planner {
	return plan.New(e.Cat, plan.Options{
		WindowParallelism: e.Opts.WindowParallelism,
		Ctx:               ctx,
		WindowStats:       e.winStats,
		NoSharedSort:      e.Opts.DisableSharedSort,
		Spill:             e.spillCfg,
		Snap:              snap,
	})
}

// SpillStats returns the engine's out-of-core execution counters.
func (e *Engine) SpillStats() *spill.Stats { return e.spillCfg.Stats }

// WindowStats returns the engine's window-operator telemetry: partition
// parallelism and the shared-sort counters (sorts performed, shared
// consumptions, segmented re-partitionings).
func (e *Engine) WindowStats() *exec.WindowStats { return e.winStats }

// SpillBudget returns the engine's shared executor memory budget.
func (e *Engine) SpillBudget() *spill.Budget { return e.spillCfg.Budget }

// SweepSpill eagerly resolves the spill directory, removing stale run files
// and orphaned heap files a dead process left behind, and reports how many
// were swept. Servers call it at startup; engines that never spill or page
// out otherwise never touch the disk.
func (e *Engine) SweepSpill() (int, error) { return e.spillEnv.Sweep() }

// StorageStats snapshots the buffer pool.
func (e *Engine) StorageStats() storage.PoolStats { return e.pager.Stats() }

// PageSize returns the paged-storage page size.
func (e *Engine) PageSize() int { return e.pager.PageSize() }

// FlushStorage writes back every dirty unpinned page. The WAL checkpoint
// calls it under the exclusive lock so heap files quiesce alongside the
// snapshot.
func (e *Engine) FlushStorage() error { return e.pager.FlushDirty() }

// Close releases engine-owned disk state: the buffer pool's budget charge,
// every heap file, and every spill run file (and the private spill
// directory, when no SpillDir was configured). The engine itself remains
// usable for in-memory work only in tests; servers call Close once, at
// shutdown, after the last query finished.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	first := e.pager.Close()
	if err := e.spillEnv.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// RewriteSelect applies the materialized-view derivation (§3–§5) to a select
// statement without executing it, deciding at the latest committed epoch. It
// returns the statement to plan — the derivation's DeriveSelect node when one
// applies, else stmt unchanged — and the derivation record. Matching does not
// fail: the error is always nil.
func (e *Engine) RewriteSelect(stmt sqlparser.SelectStatement) (sqlparser.SelectStatement, *rewrite.Derivation, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if d, _, _ := e.rewriteSelect(stmt, execConfig{snap: e.newSnapCell(nil)}); d != nil {
		return d.Plan, d, nil
	}
	return stmt, nil, nil
}

// rewriteSelect applies the derivation rewrite at the statement's snapshot:
// d is the derivation when one applies. A view answers when its rows are
// fresh at the snapshot's epoch and the statement's transaction has not
// written its base table (pendingWrites); otherwise it declines the rewrite
// and is returned as skipped, with why: the user named the base table, which
// can always answer.
func (e *Engine) rewriteSelect(stmt sqlparser.SelectStatement, cfg execConfig) (d *rewrite.Derivation, skipped, why string) {
	sel, ok := stmt.(*sqlparser.Select)
	if !ok || !e.Opts.UseMatViews {
		return nil, "", ""
	}
	if d = rewrite.Derive(e.Cat, sel); d == nil {
		return nil, "", ""
	}
	v := d.View.Name
	if why = e.Views.StaleAt(v, cfg.snap().Epoch); why == "" {
		why = e.pendingWrites(v, cfg.tx)
	}
	if why != "" {
		return nil, v, why
	}
	return d, "", ""
}

// pendingWrites says why view v lags transaction tx, "" when it does not:
// tx has written the view's base table, and maintenance folds those writes
// into the view only when tx commits — until then the base table alone holds
// them (read-your-writes).
func (e *Engine) pendingWrites(v string, tx *txn.Txn) string {
	if tx == nil || len(tx.Deltas) == 0 {
		return ""
	}
	mv, ok := e.Cat.MatView(v)
	if ok && mv.Kind == catalog.SequenceView &&
		slices.ContainsFunc(tx.Deltas, func(d txn.Delta) bool { return strings.EqualFold(d.Table, mv.BaseTable) }) {
		return "behind this transaction's writes to " + mv.BaseTable
	}
	return ""
}

func (e *Engine) planSelect(ctx context.Context, stmt sqlparser.SelectStatement, cfg execConfig) (exec.Operator, *Result, error) {
	if cfg.snap == nil {
		cfg.snap = e.newSnapCell(cfg.tx)
	}
	d, skipped, why := e.rewriteSelect(stmt, cfg)
	res := &Result{skipped: skipped, skipWhy: why}
	if d != nil {
		res.Derivation = d
		stmt = d.Plan
	} else {
		// A materialized view queried by name must answer at the snapshot as
		// a derivation's view must.
		for _, v := range e.viewsRead(stmt) {
			if err := e.Views.CheckFresh(v, cfg.snap().Epoch); err != nil {
				return nil, nil, err
			}
			if why := e.pendingWrites(v, cfg.tx); why != "" {
				return nil, nil, rferrors.New(rferrors.CodeStaleView, "materialized view %q is %s", v, why)
			}
		}
	}
	op, err := e.planPhysical(ctx, stmt, cfg)
	if err != nil {
		return nil, nil, err
	}
	res.execStmt = stmt
	return op, res, nil
}

// planPhysical turns a (post-derivation) statement into an operator tree.
func (e *Engine) planPhysical(ctx context.Context, stmt sqlparser.SelectStatement, cfg execConfig) (exec.Operator, error) {
	if cfg.snap == nil {
		cfg.snap = e.newSnapCell(cfg.tx)
	}
	return e.planner(ctx, cfg.snap).PlanSelect(stmt)
}

func (e *Engine) execSelect(ctx context.Context, stmt sqlparser.SelectStatement, cfg execConfig) (*Result, error) {
	op, res, err := e.planSelect(ctx, stmt, cfg)
	if err != nil {
		return nil, err
	}
	return e.runOperator(ctx, op, res, cfg)
}

// runOperator drains an operator tree into res, instrumenting it first when
// tracing is on.
func (e *Engine) runOperator(ctx context.Context, op exec.Operator, res *Result, cfg execConfig) (*Result, error) {
	if cfg.trace {
		op = exec.Instrument(op)
	}
	rows, err := exec.CollectCtx(ctx, op)
	if err != nil {
		return nil, err
	}
	res.Columns = plan.OutputNames(op)
	res.Rows = rows
	res.Affected = len(rows)
	if cfg.trace {
		res.Analyzed = e.annotationHeader(res) + exec.FormatAnalyzedPlan(op)
	}
	return res, nil
}

func (e *Engine) explain(ctx context.Context, s *sqlparser.Explain, cfg execConfig) (*Result, error) {
	sel, ok := s.Stmt.(sqlparser.SelectStatement)
	if !ok {
		return nil, rferrors.New(rferrors.CodeUnsupported, "EXPLAIN supports SELECT statements")
	}
	if s.Analyze {
		// EXPLAIN ANALYZE executes the statement instrumented and reports
		// the measured tree instead of the result rows.
		cfg.analyze, cfg.trace = true, true
		op, res, err := e.planSelect(ctx, sel, cfg)
		if err != nil {
			return nil, err
		}
		if _, err := e.runOperator(ctx, op, res, cfg); err != nil {
			return nil, err
		}
		return planResult(res, res.Analyzed), nil
	}
	// Plain EXPLAIN outside a transaction plans a valid cache entry's
	// statement, as a hit would, when the statement as written has one. The
	// cache holds auto-commit plans only: a transaction's statement is
	// planned at its own snapshot.
	var op exec.Operator
	var res *Result
	var err error
	var ent *cachedPlan
	if cfg.tx == nil {
		ent, _ = e.plans.Get(s.Source)
	}
	if ent != nil && e.planValid(ent) {
		res = &Result{Derivation: ent.derivation, skipped: ent.skipped, skipWhy: ent.skipWhy, CacheHit: true}
		op, err = e.planPhysical(ctx, ent.exec, cfg)
	} else {
		op, res, err = e.planSelect(ctx, sel, cfg)
	}
	if err != nil {
		return nil, err
	}
	return planResult(res, e.annotationHeader(res)+exec.FormatPlan(op)), nil
}

// planResult packages an EXPLAIN rendering as a one-row result.
func planResult(res *Result, txt string) *Result {
	res.Plan = txt
	res.Columns = []string{"plan"}
	res.Rows = []sqltypes.Row{{sqltypes.NewString(txt)}}
	res.Affected = len(res.Rows)
	res.execStmt = nil // EXPLAIN results must never enter the plan cache
	return res
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

// DML executors. Each runs inside cfg.tx — the enclosing explicit
// transaction, or the statement's own auto-commit transaction — creating
// pending row versions and recording a delta for commit-time view
// maintenance and the WAL commit record. Reads (target selection, INSERT
// ... SELECT sources) happen at the transaction's snapshot, which includes
// the transaction's own earlier writes.

// userTable resolves the target of a user's DML or index DDL. A materialized
// view's rows and pk index — under the view's name or its backing table's —
// belong to the view manager: a user write would silently diverge the view
// from its definition, so it is refused.
func (e *Engine) userTable(name string) (*catalog.Table, error) {
	if v, ok := e.Cat.StoredView(name); ok {
		return nil, rferrors.New(rferrors.CodeUnsupported,
			"%q holds the rows of materialized view %q, which only maintenance and REFRESH write", name, v.Name)
	}
	return e.Cat.Table(name)
}

func (e *Engine) execInsert(ctx context.Context, s *sqlparser.Insert, cfg execConfig) (*Result, error) {
	tx := cfg.tx
	tbl, err := e.userTable(s.Table)
	if err != nil {
		return nil, err
	}
	// Column mapping: explicit list or full table layout.
	colOrds := make([]int, 0, len(tbl.Columns))
	if len(s.Columns) == 0 {
		for i := range tbl.Columns {
			colOrds = append(colOrds, i)
		}
	} else {
		for _, c := range s.Columns {
			ord := tbl.ColumnIndex(c)
			if ord < 0 {
				return nil, fmt.Errorf("column %q does not exist in %q", c, s.Table)
			}
			colOrds = append(colOrds, ord)
		}
	}

	var srcRows []sqltypes.Row
	if s.Select != nil {
		res, err := e.execSelect(ctx, s.Select, execConfig{tx: tx, snap: e.newSnapCell(tx)})
		if err != nil {
			return nil, err
		}
		srcRows = res.Rows
	} else {
		empty := exprSchema()
		for _, rowExprs := range s.Rows {
			row := make(sqltypes.Row, len(rowExprs))
			for i, ex := range rowExprs {
				compiled, err := compileConst(ex, empty)
				if err != nil {
					return nil, err
				}
				row[i] = compiled
			}
			srcRows = append(srcRows, row)
		}
	}

	inserted := make([]sqltypes.Row, 0, len(srcRows))
	for _, src := range srcRows {
		if len(src) != len(colOrds) {
			return nil, fmt.Errorf("INSERT has %d values for %d columns", len(src), len(colOrds))
		}
		row := make(sqltypes.Row, len(tbl.Columns))
		for i := range row {
			row[i] = sqltypes.NullDatum
		}
		for i, ord := range colOrds {
			v, err := coerce(src[i], tbl.Columns[ord].Type)
			if err != nil {
				return nil, fmt.Errorf("column %q: %w", tbl.Columns[ord].Name, err)
			}
			row[ord] = v
		}
		if _, err := tbl.Heap.InsertTx(tx, row); err != nil {
			return nil, err
		}
		inserted = append(inserted, row)
	}
	if len(inserted) > 0 {
		tx.AddDelta(txn.Delta{Table: tbl.Name, Kind: txn.DeltaInsert, Cols: tbl.ColumnNames(), Rows: inserted})
	}
	return &Result{Affected: len(inserted)}, nil
}

func (e *Engine) execUpdate(s *sqlparser.Update, cfg execConfig) (*Result, error) {
	tx := cfg.tx
	tbl, err := e.userTable(s.Table)
	if err != nil {
		return nil, err
	}
	schema := tableSchema(tbl, s.Table)
	var where compiledExpr
	if s.Where != nil {
		where, err = compileAgainst(s.Where, schema)
		if err != nil {
			return nil, err
		}
	}
	type setter struct {
		ord int
		ex  compiledExpr
	}
	setters := make([]setter, len(s.Set))
	for i, a := range s.Set {
		ord := tbl.ColumnIndex(a.Column)
		if ord < 0 {
			return nil, fmt.Errorf("column %q does not exist in %q", a.Column, s.Table)
		}
		ex, err := compileAgainst(a.Value, schema)
		if err != nil {
			return nil, err
		}
		setters[i] = setter{ord: ord, ex: ex}
	}

	var ids []storage.RowID
	var befores, afters []sqltypes.Row
	var evalErr error
	visit := func(id storage.RowID, row sqltypes.Row) bool {
		if where != nil {
			v, err := where.Eval(row)
			if err != nil {
				evalErr = err
				return false
			}
			if !truthy(v) {
				return true
			}
		}
		after := row.Clone()
		for _, st := range setters {
			v, err := st.ex.Eval(row)
			if err != nil {
				evalErr = err
				return false
			}
			cv, err := coerce(v, tbl.Columns[st.ord].Type)
			if err != nil {
				evalErr = err
				return false
			}
			after[st.ord] = cv
		}
		ids, befores, afters = append(ids, id), append(befores, row), append(afters, after)
		return true
	}
	// Point updates (WHERE col = literal with an index) probe instead of
	// scanning — the access-path side of §2.3's locality argument.
	if ids, rows, ok := pointLookupRows(tbl, s.Where, tx.Snap); ok {
		for i, id := range ids {
			if !visit(id, rows[i]) {
				break
			}
		}
	} else if err := tbl.Heap.ScanAt(tx.Snap, visit); err != nil {
		return nil, err
	}
	if evalErr != nil {
		return nil, evalErr
	}
	if len(ids) == 0 {
		return &Result{}, nil
	}
	if _, err := tbl.Heap.UpdateRowsTx(tx, ids, afters); err != nil {
		return nil, err
	}
	tx.AddDelta(txn.Delta{Table: tbl.Name, Kind: txn.DeltaUpdate, Cols: tbl.ColumnNames(), Before: befores, After: afters})
	return &Result{Affected: len(ids)}, nil
}

func (e *Engine) execDelete(s *sqlparser.Delete, cfg execConfig) (*Result, error) {
	tx := cfg.tx
	tbl, err := e.userTable(s.Table)
	if err != nil {
		return nil, err
	}
	schema := tableSchema(tbl, s.Table)
	var where compiledExpr
	if s.Where != nil {
		where, err = compileAgainst(s.Where, schema)
		if err != nil {
			return nil, err
		}
	}
	var ids []storage.RowID
	var rows []sqltypes.Row
	var evalErr error
	visit := func(id storage.RowID, row sqltypes.Row) bool {
		if where != nil {
			v, err := where.Eval(row)
			if err != nil {
				evalErr = err
				return false
			}
			if !truthy(v) {
				return true
			}
		}
		ids = append(ids, id)
		rows = append(rows, row)
		return true
	}
	if cand, candRows, ok := pointLookupRows(tbl, s.Where, tx.Snap); ok {
		for i, id := range cand {
			if !visit(id, candRows[i]) {
				break
			}
		}
	} else if err := tbl.Heap.ScanAt(tx.Snap, visit); err != nil {
		return nil, err
	}
	if evalErr != nil {
		return nil, evalErr
	}
	for _, id := range ids {
		if err := tbl.Heap.DeleteTx(tx, id); err != nil {
			return nil, err
		}
	}
	if len(ids) > 0 {
		tx.AddDelta(txn.Delta{Table: tbl.Name, Kind: txn.DeltaDelete, Cols: tbl.ColumnNames(), Rows: rows})
	}
	return &Result{Affected: len(ids)}, nil
}
