package engine

import (
	"fmt"
	"strings"
	"time"

	rferrors "rfview/errors"
	"rfview/internal/exec"
	"rfview/internal/metrics"
)

// engineMetrics bundles the instruments the engine updates per statement.
// Scrape-time values (plan-cache counters, view staleness, window-pool
// telemetry) register as gauge funcs instead and read live state.
type engineMetrics struct {
	queries      *metrics.CounterVec
	queryErrors  *metrics.CounterVec
	querySeconds *metrics.Histogram
	slowQueries  *metrics.Counter
	// snapshotWait is the time a lock-free read spent acquiring a stable
	// snapshot (retries against in-flight commits included); commitWait is
	// the time a writer spent waiting for the exclusive engine lock.
	snapshotWait *metrics.Histogram
	commitWait   *metrics.Histogram
}

// initMetrics builds the engine's registry. Each engine owns its registry, so
// tests and embedded engines never share series; the server and WAL attach
// their instruments to this same registry via Metrics().
func (e *Engine) initMetrics() {
	e.reg = metrics.NewRegistry()
	e.winStats = &exec.WindowStats{}
	e.met = &engineMetrics{
		queries: e.reg.CounterVec("rfview_queries_total",
			"Read statements executed, by evaluation strategy.", "strategy"),
		queryErrors: e.reg.CounterVec("rfview_query_errors_total",
			"Statements that returned an error, by error code.", "code"),
		querySeconds: e.reg.Histogram("rfview_query_seconds",
			"End-to-end statement latency.", metrics.DefBuckets),
		slowQueries: e.reg.Counter("rfview_slow_queries_total",
			"Statements that exceeded the slow-query threshold."),
		snapshotWait: e.reg.Histogram("rfview_txn_snapshot_wait_seconds",
			"Time lock-free reads spent acquiring a stable snapshot.", metrics.DefBuckets),
		commitWait: e.reg.Histogram("rfview_txn_commit_lock_wait_seconds",
			"Time writers spent waiting for the exclusive commit lock.", metrics.DefBuckets),
	}
	e.reg.GaugeFunc("rfview_txn_begins_total",
		"Transactions started (explicit and auto-commit).", func() float64 { return float64(e.txnBegins.Load()) })
	e.reg.GaugeFunc("rfview_txn_commits_total",
		"Transactions committed.", func() float64 { return float64(e.txnCommits.Load()) })
	e.reg.GaugeFunc("rfview_txn_rollbacks_total",
		"Transactions rolled back (explicit, failed statements, and conflicts).", func() float64 { return float64(e.txnRollbacks.Load()) })
	e.reg.GaugeFunc("rfview_txn_conflict_aborts_total",
		"Transactions aborted by first-committer-wins write-write conflicts.", func() float64 { return float64(e.txnConflicts.Load()) })
	e.reg.GaugeFunc("rfview_txn_versions_reclaimed_total",
		"Row versions freed because no open snapshot could see them any more.", func() float64 { return float64(e.versionsReclaimed.Load()) })
	e.reg.GaugeFunc("rfview_txn_dead_versions",
		"Ended or aborted row versions still held in slot directories, across all tables.", func() float64 { return float64(e.TxnStats().DeadVersions) })
	e.reg.GaugeFunc("rfview_txn_horizon_lag",
		"Commit epochs between the clock and the oldest open snapshot; 0 with none open.", func() float64 { return float64(e.TxnStats().HorizonLag) })
	e.reg.GaugeFunc("rfview_plan_cache_hits",
		"Plan cache hits since start.", func() float64 { return float64(e.PlanCacheStats().Hits) })
	e.reg.GaugeFunc("rfview_plan_cache_misses",
		"Plan cache misses since start.", func() float64 { return float64(e.PlanCacheStats().Misses) })
	e.reg.GaugeFunc("rfview_plan_cache_entries",
		"Plan cache resident entries.", func() float64 { return float64(e.PlanCacheStats().Len) })
	e.reg.GaugeFunc("rfview_plan_cache_hit_ratio",
		"Plan cache hits / lookups, 0 when no lookups yet.", func() float64 {
			st := e.PlanCacheStats()
			if total := st.Hits + st.Misses; total > 0 {
				return float64(st.Hits) / float64(total)
			}
			return 0
		})
	e.reg.GaugeSetFunc("rfview_view_staleness_seconds",
		"Seconds each stale materialized view has been stale; fresh views report 0.",
		"view", func() map[string]float64 { return e.Views.StalenessAges() })
	e.reg.GaugeFunc("rfview_window_runs",
		"Window operator executions since start.", func() float64 { return float64(e.winStats.Runs.Load()) })
	e.reg.GaugeFunc("rfview_window_parallel_runs",
		"Window executions that used more than one worker.", func() float64 { return float64(e.winStats.ParallelRuns.Load()) })
	e.reg.GaugeFunc("rfview_window_partitions",
		"Partitions evaluated by the window operator since start.", func() float64 { return float64(e.winStats.Partitions.Load()) })
	e.reg.GaugeFunc("rfview_window_parallelism_utilization",
		"Mean workers per window execution.", func() float64 {
			runs := e.winStats.Runs.Load()
			if runs == 0 {
				return 0
			}
			return float64(e.winStats.WorkersUsed.Load()) / float64(runs)
		})
	e.reg.GaugeFunc("rfview_sort_normalized_total",
		"Partition orderings that ran on normalized keys: the typed and the encoded ones together.",
		func() float64 { return float64(e.winStats.NormalizedSorts.Load()) })
	e.reg.GaugeFunc("rfview_sort_typed_total",
		"Partition orderings that sorted packed fixed-width key records.",
		func() float64 { return float64(e.winStats.TypedSorts.Load()) })
	e.reg.GaugeFunc("rfview_sort_encoded_total",
		"Partition orderings that ran on memcomparable byte keys (a VARCHAR key, or the external sorter).",
		func() float64 { return float64(e.winStats.NormalizedSorts.Load() - e.winStats.TypedSorts.Load()) })
	e.reg.GaugeFunc("rfview_sort_comparator_total",
		"Partition orderings that fell back to the Compare-based sort.",
		func() float64 { return float64(e.winStats.ComparatorSorts.Load()) })
	e.reg.GaugeFunc("rfview_window_sorts_performed_total",
		"Full window-ordering sorts executed: shared class sorts, unshared in-operator orderings, and NaN-fallback shared runs.",
		func() float64 { return float64(e.winStats.SortsPerformed.Load()) })
	e.reg.GaugeFunc("rfview_window_sorts_shared_total",
		"Window runs that consumed a shared class sort without re-ordering.",
		func() float64 { return float64(e.winStats.SortsShared.Load()) })
	e.reg.GaugeFunc("rfview_window_sorts_segmented_total",
		"Window runs that reused stream partition grouping and re-sorted only within segments.",
		func() float64 { return float64(e.winStats.SortsSegmented.Load()) })
	e.reg.GaugeFunc("rfview_window_kernel_typed_total",
		"Window-function evaluations served by a typed columnar kernel.",
		func() float64 { return float64(e.winStats.TypedKernels.Load()) })
	e.reg.GaugeFunc("rfview_window_kernel_boxed_total",
		"Window-function evaluations that used the boxed accumulator path.",
		func() float64 { return float64(e.winStats.BoxedKernels.Load()) })
	spillStats := e.spillCfg.Stats
	e.reg.GaugeFunc("rfview_spill_runs_total",
		"Sort runs flushed to disk by the out-of-core executor.",
		func() float64 { return float64(spillStats.Runs.Load()) })
	e.reg.GaugeFunc("rfview_spill_bytes_total",
		"Bytes written to spill run files (initial runs and merge passes).",
		func() float64 { return float64(spillStats.RunBytes.Load()) })
	e.reg.GaugeFunc("rfview_spill_operators_total",
		"Operator executions that spilled at least one run.",
		func() float64 { return float64(spillStats.Spills.Load()) })
	e.reg.GaugeFunc("rfview_spill_budget_limit_bytes",
		"Configured executor memory budget; 0 = unlimited.",
		func() float64 { return float64(e.spillCfg.Budget.Limit()) })
	e.reg.GaugeFunc("rfview_spill_budget_used_bytes",
		"Executor memory currently charged against the budget.",
		func() float64 { return float64(e.spillCfg.Budget.Used()) })
	e.spillCfg.ObserveMerge = e.reg.Histogram("rfview_spill_merge_seconds",
		"Wall time of external-sort merge passes.", metrics.DefBuckets).Observe
	e.reg.GaugeFunc("rfview_bufferpool_hits_total",
		"Page pins served from the buffer pool without disk IO.",
		func() float64 { return float64(e.StorageStats().Hits) })
	e.reg.GaugeFunc("rfview_bufferpool_misses_total",
		"Page pins that had to load the page from a heap file.",
		func() float64 { return float64(e.StorageStats().Misses) })
	e.reg.GaugeFunc("rfview_bufferpool_evictions_total",
		"Resident pages evicted by the clock sweep to make room.",
		func() float64 { return float64(e.StorageStats().Evictions) })
	e.reg.GaugeFunc("rfview_bufferpool_writebacks_total",
		"Dirty pages written back to their heap file.",
		func() float64 { return float64(e.StorageStats().Writebacks) })
	e.reg.GaugeFunc("rfview_bufferpool_resident_bytes",
		"Buffer-pool memory charged against the shared budget: frames plus cached page columns.",
		func() float64 { return float64(e.StorageStats().BytesResident) })
	e.reg.GaugeFunc("rfview_bufferpool_column_cache_bytes",
		"Resident pages' records decoded into typed columns, the cached share of resident bytes.",
		func() float64 { return float64(e.StorageStats().ColumnCacheBytes) })
	e.reg.GaugeFunc("rfview_bufferpool_pages_cached",
		"Heap pages resident in the buffer pool right now.",
		func() float64 { return float64(e.StorageStats().PagesCached) })
	mstats := e.Views.Stats()
	e.reg.GaugeFunc("rfview_maintenance_delta_total",
		"DML deltas folded into materialized sequence views incrementally (§2.3).",
		func() float64 { return float64(mstats.DeltaApplied.Load()) })
	e.reg.GaugeFunc("rfview_maintenance_full_total",
		"Full REFRESH recomputes of materialized sequence views.",
		func() float64 { return float64(mstats.FullRefreshes.Load()) })
	e.Views.SetTouchedObserver(e.reg.Histogram("rfview_maintenance_touched_rows",
		"View sequence positions rewritten per applied maintenance delta.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384}).Observe)
}

// Metrics returns the engine's metrics registry, for exposition and for
// other subsystems (server, WAL) to attach their own instruments to.
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// SlowQuery is one slow-query log record.
type SlowQuery struct {
	SQL     string
	Elapsed time.Duration
	// Plan is the analyzed operator tree (per-node rows and timings) of the
	// slow execution; empty for statements that produce no plan.
	Plan string
}

// SetSlowQueryLog arms the slow-query log: read statements slower than
// threshold are reported to sink, with their analyzed plan. While armed,
// query execution runs instrumented (result-cache hits excepted — a cached
// answer is never slow). A zero threshold or nil sink disarms.
func (e *Engine) SetSlowQueryLog(threshold time.Duration, sink func(SlowQuery)) {
	e.slowMu.Lock()
	defer e.slowMu.Unlock()
	e.slowThresh = threshold
	e.slowSink = sink
}

func (e *Engine) slowLogArmed() bool {
	e.slowMu.Lock()
	defer e.slowMu.Unlock()
	return e.slowThresh > 0 && e.slowSink != nil
}

func (e *Engine) slowLog() (time.Duration, func(SlowQuery)) {
	e.slowMu.Lock()
	defer e.slowMu.Unlock()
	return e.slowThresh, e.slowSink
}

// observeQuery records one top-level statement outcome: strategy counters,
// latency, and the slow-query log. sql renders the statement text; it runs
// only when the slow-query sink fires.
func (e *Engine) observeQuery(sql func() string, res *Result, err error, elapsed time.Duration) {
	if err != nil {
		e.met.queryErrors.With(string(rferrors.CodeOf(err))).Inc()
		return
	}
	if res == nil || res.execStmt == nil {
		return // DDL/DML and EXPLAIN renderings are not query executions
	}
	e.met.queries.With(strategyLabel(res)).Inc()
	e.met.querySeconds.Observe(elapsed.Seconds())
	if th, sink := e.slowLog(); sink != nil && th > 0 && elapsed >= th {
		e.met.slowQueries.Inc()
		sink(SlowQuery{SQL: sql(), Elapsed: elapsed, Plan: res.Analyzed})
	}
}

// strategyLabel names how a statement was evaluated, for the per-strategy
// counter and the EXPLAIN header: the derivation's algorithm (exact /
// cumulative / maxoa / minoa — the name the Derive operator runs and prints),
// or native evaluation from the base rows.
func strategyLabel(res *Result) string {
	if d := res.Derivation; d != nil {
		return strings.ToLower(string(d.Plan.Source.Algo))
	}
	return "native"
}

// annotationHeader renders the provenance lines EXPLAIN [ANALYZE] prefixes
// to the operator tree: the chosen strategy with the paper's Δl/Δh window
// overlap factors, the view a native plan declined to derive from and why,
// the rewritten SQL, and plan-cache provenance.
func (e *Engine) annotationHeader(res *Result) string {
	var b strings.Builder
	b.WriteString("-- strategy: " + strategyLabel(res))
	if d := res.Derivation; d != nil {
		fmt.Fprintf(&b, " view=%s Δl=%d Δh=%d wx=%d", d.View.Name, d.DeltaL, d.DeltaH, d.Wx)
	}
	b.WriteString("\n")
	if res.skipped != "" {
		fmt.Fprintf(&b, "-- view %s skipped: %s\n", res.skipped, res.skipWhy)
	}
	if res.Rewritten != "" {
		b.WriteString("-- rewritten: " + res.Rewritten + "\n")
	}
	if res.CacheHit {
		b.WriteString("-- plan cache: hit\n")
	}
	return b.String()
}
