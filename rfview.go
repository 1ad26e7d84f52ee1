// Package rfview is a from-scratch reproduction of "Processing Reporting
// Function Views in a Data Warehouse Environment" (Lehner, Hümmer,
// Schlesinger; ICDE 2002): a small relational engine with native reporting
// functions (SQL window functions), materialized reporting-function views
// with §2.3 incremental maintenance, and the paper's query-rewriting
// machinery — the MaxOA/MinOA view derivation algorithms (§4, §5). The
// renderings the paper only measures (the Fig. 2 self-join simulation, a
// forced MaxOA or MinOA, the UNION form of Figs. 10/13) are experiments,
// not options: `rfbench -exp table1|table2|patterns` runs them.
//
// Two entry points:
//
//   - the SQL surface: Open an engine, Exec DDL/DML/queries. Reporting
//     functions are answered by a rewrite against a matching, fresh
//     materialized sequence view, or else by the native window operator;
//
//   - the sequence algebra: the Seq* functions expose the paper's formal
//     model directly (complete simple sequences, pipelined computation,
//     incremental maintenance, MaxOA/MinOA derivation, reporting sequences
//     with multi-column ordering and partitioning).
package rfview

import (
	"context"
	"time"

	"rfview/internal/core"
	"rfview/internal/engine"
	"rfview/internal/metrics"
	"rfview/internal/sqltypes"
)

// ---------------------------------------------------------------------------
// SQL surface
// ---------------------------------------------------------------------------

// DB is a handle to one warehouse engine. Rows live in paged heaps behind a
// buffer pool charged to Options.MemoryBudgetBytes; the heap files are
// scratch, durability is the WAL layer's.
type DB struct {
	eng *engine.Engine
}

// Options re-exports the engine configuration.
type Options = engine.Options

// Result re-exports statement results. Its Rewritten method renders a
// derivation's DERIVE node as text when called.
type Result = engine.Result

// Datum and Row re-export the value system used in results.
type (
	Datum = sqltypes.Datum
	Row   = sqltypes.Row
)

// DefaultOptions answers window queries from materialized views where one
// applies.
func DefaultOptions() Options { return engine.DefaultOptions() }

// Open creates an empty warehouse with the given options.
func Open(opts Options) *DB { return &DB{eng: engine.New(opts)} }

// OpenDefault creates an empty warehouse with DefaultOptions.
func OpenDefault() *DB { return Open(DefaultOptions()) }

// ExecOption adjusts one ExecContext/QueryContext call.
type ExecOption = engine.ExecOption

// WithAnalyze executes the statement instrumented and fills Result.Analyzed
// with per-operator row counts and timings (as EXPLAIN ANALYZE reports).
func WithAnalyze() ExecOption { return engine.WithAnalyze() }

// SlowQuery re-exports the slow-query log record.
type SlowQuery = engine.SlowQuery

// Exec parses and executes one SQL statement: the context.Background()
// convenience form of ExecContext, as in database/sql.
func (db *DB) Exec(sql string) (*Result, error) { return db.eng.Exec(sql) }

// ExecContext parses and executes one SQL statement. Cancelling ctx aborts
// execution at the next operator boundary with an error matching
// rfview/errors.ErrCancelled.
func (db *DB) ExecContext(ctx context.Context, sql string, opts ...ExecOption) (*Result, error) {
	return db.eng.ExecContext(ctx, sql, opts...)
}

// ExecAll executes a semicolon-separated script: the context.Background()
// convenience form of ExecAllContext.
func (db *DB) ExecAll(sql string) ([]*Result, error) { return db.eng.ExecAll(sql) }

// ExecAllContext executes a semicolon-separated script under ctx.
func (db *DB) ExecAllContext(ctx context.Context, sql string) ([]*Result, error) {
	return db.eng.ExecAllContext(ctx, sql)
}

// Query is Exec for statements expected to return rows: the
// context.Background() convenience form of QueryContext.
func (db *DB) Query(sql string) (*Result, error) { return db.eng.Exec(sql) }

// QueryContext is ExecContext for statements expected to return rows.
func (db *DB) QueryContext(ctx context.Context, sql string, opts ...ExecOption) (*Result, error) {
	return db.eng.ExecContext(ctx, sql, opts...)
}

// Metrics returns the engine's metrics registry: use Expose for the
// Prometheus text rendering or Handler to serve it over HTTP.
func (db *DB) Metrics() *metrics.Registry { return db.eng.Metrics() }

// SetSlowQueryLog arms the slow-query log: read statements slower than
// threshold are reported to sink with their analyzed plan. Zero threshold or
// nil sink disarms.
func (db *DB) SetSlowQueryLog(threshold time.Duration, sink func(SlowQuery)) {
	db.eng.SetSlowQueryLog(threshold, sink)
}

// Engine exposes the underlying engine for advanced use: option toggling,
// the view manager's counters and staleness, and sessions (NewSession) for
// multi-statement transactions — a positional shift is one: the ±1
// renumbering of a partition's suffix and the insert or delete at k,
// committed together so the base table and the view publish at one epoch.
func (db *DB) Engine() *engine.Engine { return db.eng }

// ---------------------------------------------------------------------------
// Sequence algebra (the paper's formal model, §2–§6)
// ---------------------------------------------------------------------------

// Window is a window specification: cumulative or sliding (l, h).
type Window = core.Window

// Sequence is a complete simple sequence (values plus header/trailer).
type Sequence = core.Sequence[float64]

// Agg identifies the aggregation function of a sequence.
type Agg = core.Agg

// The aggregation functions of the paper.
const (
	Sum   = core.Sum
	Count = core.Count
	Avg   = core.Avg
	Min   = core.Min
	Max   = core.Max
)

// Cumul returns the cumulative window specification.
func Cumul() Window { return core.Cumul() }

// Sliding returns the sliding window specification (l, h).
func Sliding(l, h int) Window { return core.Sliding(l, h) }

// SeqCompute materializes the complete sequence for a window and aggregate
// over raw data using the pipelined strategy of §2.2.
func SeqCompute(raw []float64, w Window, agg Agg) (*Sequence, error) {
	return core.ComputePipelined(raw, w, agg)
}

// SeqComputeNaive materializes the sequence with the explicit O(n·W) form.
func SeqComputeNaive(raw []float64, w Window, agg Agg) (*Sequence, error) {
	return core.ComputeNaive(raw, w, agg)
}

// SeqDerive answers a target-window query from a materialized sequence,
// picking MinOA, MaxOA, or the cumulative rules automatically (§3–§5).
func SeqDerive(src *Sequence, target Window) (*Sequence, error) {
	return core.Derive(src, target)
}

// SeqMaxOA derives via the maximal-overlapping algorithm's explicit form.
func SeqMaxOA(src *Sequence, target Window) (*Sequence, error) {
	return core.MaxOA(src, target)
}

// SeqMinOA derives via the minimal-overlapping algorithm.
func SeqMinOA(src *Sequence, target Window) (*Sequence, error) {
	return core.MinOA(src, target)
}

// SeqReconstructRaw recovers the raw data from a complete materialized
// sequence (§3.1/§3.2).
func SeqReconstructRaw(src *Sequence) ([]float64, error) {
	return core.ReconstructRawFromSliding(src)
}

// Maintainer re-exports the §2.3 incremental maintenance engine.
type Maintainer = core.Maintainer[float64]

// NewMaintainer materializes a sequence and returns its maintainer.
func NewMaintainer(raw []float64, w Window, agg Agg) (*Maintainer, error) {
	return core.NewMaintainer(raw, w, agg)
}

// Reporting sequences (§6).
type (
	// PosFunc is the multi-column position function.
	PosFunc = core.PosFunc
	// ReportingSequence is a partitioned, multi-column-ordered sequence.
	ReportingSequence = core.ReportingSequence
	// PartitionKey identifies one partition.
	PartitionKey = core.PartitionKey
	// PartitionMerge maps coarse partitions to ordered fine partitions.
	PartitionMerge = core.PartitionMerge
)

// NewPosFunc builds a position function over per-column cardinalities.
func NewPosFunc(card ...int) (PosFunc, error) { return core.NewPosFunc(card...) }

// NewReportingSequence materializes per-partition sequences.
func NewReportingSequence(pf PosFunc, w Window, agg Agg, parts map[PartitionKey][]float64) (*ReportingSequence, error) {
	return core.NewReportingSequence(pf, w, agg, parts)
}

// OrderingReduction derives a sequence over fewer ordering columns (§6.1).
func OrderingReduction(rs *ReportingSequence, dropCols int, target Window) (*ReportingSequence, error) {
	return core.OrderingReduction(rs, dropCols, target)
}

// PartitioningReduction derives a sequence over a coarser partitioning
// scheme (§6.2).
func PartitioningReduction(rs *ReportingSequence, merge PartitionMerge, target Window) (*ReportingSequence, error) {
	return core.PartitioningReduction(rs, merge, target)
}
