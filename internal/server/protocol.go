// Package server exposes an engine over TCP as a concurrent query service.
//
// The protocol is newline-delimited JSON: the client writes one request
// object per line, the server answers with one response object per line, in
// order. One goroutine serves each connection; reads run lock-free against
// MVCC snapshots, so SELECTs from many connections proceed even while a
// writer's transaction is open, and DML from different connections
// serializes only at commit.
//
// Each connection owns an engine session, so transactions work over the
// wire: send BEGIN / COMMIT / ROLLBACK as ordinary "exec" statements.
// Statements between BEGIN and COMMIT read at the transaction's snapshot and
// stay invisible to other connections until COMMIT. A write-write conflict
// answers with code "conflict" and the transaction is already rolled back; a
// dropped connection rolls back its open transaction.
//
// Operations:
//
//	ping     liveness check; echoes the session id
//	query    execute a statement, return columns + rows
//	exec     execute a statement, return the affected count
//	explain  plan a read statement, return the plan text
//	stats    server and session counters, plan cache stats, parallelism
//	metrics  Prometheus text exposition of the engine's registry
//
// Failed requests carry a stable machine-readable "code" field (see
// rfview/errors) alongside the human-readable "error" text; clients map the
// code back onto the same error sentinels the embedded engine returns. A
// request may set "timeout_ms" to bound its execution; statements that
// exceed it abort with code "cancelled". A result holding a value JSON has no
// form for (a non-finite FLOAT) is answered with code "unsupported" naming
// the row and column, and the connection stays open.
//
// Requests are decoded with encoding/json. Responses go through one
// hand-written codec (wire.go) that writes the bytes encoding/json would
// write for Response and reads them back; Response's MarshalJSON and
// UnmarshalJSON use it too. A repeated query the engine answers from its
// result cache costs a copy of bytes encoded once: the columns, rows and
// affected count are stored beside the cached result on first use, and the
// server writes the per-request id, session, rewritten and elapsed_us around
// them. Those bytes live and die with the cache entry.
//
// Example session:
//
//	→ {"id":1,"op":"query","sql":"SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS s FROM seq"}
//	← {"id":1,"ok":true,"columns":["pos","s"],"rows":[[1,9],[2,14]],"affected":2}
//	→ {"id":2,"op":"exec","sql":"BEGIN"}
//	← {"id":2,"ok":true}
//	→ {"id":3,"op":"exec","sql":"UPDATE seq SET val = 9 WHERE pos = 1"}
//	← {"id":3,"ok":true,"affected":1}
//	→ {"id":4,"op":"exec","sql":"COMMIT"}
//	← {"id":4,"ok":true}
package server

// Request is one client→server message.
type Request struct {
	// ID is echoed verbatim in the response so clients can match replies.
	ID uint64 `json:"id"`
	// Op is one of "ping", "query", "exec", "explain", "stats", "metrics".
	Op string `json:"op"`
	// SQL is the statement text (unused for ping/stats/metrics).
	SQL string `json:"sql,omitempty"`
	// TimeoutMs, when positive, cancels the statement after this many
	// milliseconds; the response then carries code "cancelled".
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Analyze asks query/explain ops for the instrumented plan (per-operator
	// rows and timings) in the response's "plan" field.
	Analyze bool `json:"analyze,omitempty"`
}

// Response is one server→client message.
type Response struct {
	ID    uint64 `json:"id"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Code is the stable machine-readable error classification (see
	// rfview/errors.Code); empty on success.
	Code    string `json:"code,omitempty"`
	Session uint64 `json:"session,omitempty"`

	Columns  []string `json:"columns,omitempty"`
	Rows     [][]any  `json:"rows,omitempty"`
	Affected int      `json:"affected,omitempty"`
	Plan     string   `json:"plan,omitempty"`
	// Rewritten is the derivation's DERIVE node as text (view, windows and
	// algorithm), set exactly when the answer was derived from a view.
	Rewritten string `json:"rewritten,omitempty"`
	// ElapsedUs is the server-side execution time in microseconds.
	ElapsedUs int64 `json:"elapsed_us,omitempty"`
	// Stats carries the answer to a "stats" request.
	Stats *StatsReply `json:"stats,omitempty"`
	// Metrics carries the Prometheus text exposition for a "metrics" request.
	Metrics string `json:"metrics,omitempty"`

	// result, when set, is the encoded "columns", "rows" and "affected"
	// members, written in place of those three fields.
	result []byte
}

// StatsReply is the payload of a "stats" response: server-wide counters,
// the asking session's counters, and the engine's cache and parallelism
// configuration.
type StatsReply struct {
	// UptimeSec is seconds since the server was created.
	UptimeSec int64 `json:"uptime_sec"`
	// Accepted counts connections over the server's lifetime; ActiveSessions
	// counts connections open right now.
	Accepted       uint64 `json:"accepted"`
	ActiveSessions int    `json:"active_sessions"`
	// Requests and Errors are server-wide request counters.
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`

	// SessionID identifies the asking connection; SessionQueries and
	// SessionExecs split its statement traffic by op. SessionInTxn reports
	// whether the asking connection has a transaction open.
	SessionID      uint64 `json:"session_id"`
	SessionQueries uint64 `json:"session_queries"`
	SessionExecs   uint64 `json:"session_execs"`
	SessionInTxn   bool   `json:"session_in_txn"`

	// PlanCache mirrors the engine's combined plan/result cache counters.
	PlanCache CacheStats `json:"plan_cache"`

	// WindowParallelism is the resolved partition-worker count the window
	// operator uses (GOMAXPROCS substituted for the ≤0 "auto" setting).
	WindowParallelism int `json:"window_parallelism"`

	// Spill mirrors the engine's out-of-core execution counters, so wire
	// clients can confirm the spill path actually ran.
	Spill SpillStats `json:"spill"`

	// BufferPool mirrors the paged-storage buffer pool, so wire clients can
	// watch residency and hit ratios of the heap page cache.
	BufferPool BufferPoolStats `json:"buffer_pool"`

	// Maintenance mirrors the engine's view-maintenance counters, so wire
	// clients can confirm the delta path (rather than full REFRESH) ran.
	Maintenance MaintenanceStats `json:"maintenance"`

	// Txn mirrors the engine's transaction counters, so wire clients can
	// watch commit/conflict rates under concurrent load.
	Txn TxnStats `json:"txn"`
}

// TxnStats is the wire form of the engine's transaction counters.
type TxnStats struct {
	// Begins counts transactions started (explicit BEGIN and auto-commit
	// statements alike); Commits and Rollbacks split how they ended.
	Begins    int64 `json:"begins"`
	Commits   int64 `json:"commits"`
	Rollbacks int64 `json:"rollbacks"`
	// ConflictAborts counts rollbacks forced by first-committer-wins
	// write-write conflict detection (a subset of Rollbacks).
	ConflictAborts int64 `json:"conflict_aborts"`
	// VersionsReclaimed totals the row versions freed once no open snapshot
	// could see them; DeadVersions counts the ended or aborted versions still
	// held; HorizonLag is the commit epochs between the clock and the oldest
	// open snapshot.
	VersionsReclaimed int64  `json:"versions_reclaimed"`
	DeadVersions      int64  `json:"dead_versions"`
	HorizonLag        uint64 `json:"horizon_lag"`
}

// MaintenanceStats is the wire form of the engine's view-maintenance
// counters.
type MaintenanceStats struct {
	// DeltaApplied counts DML deltas folded into views incrementally;
	// FullRefreshes counts full REFRESH recomputes of sequence views.
	DeltaApplied  int64 `json:"delta_applied"`
	FullRefreshes int64 `json:"full_refreshes"`
}

// SpillStats is the wire form of the engine's spill counters.
type SpillStats struct {
	// BudgetBytes is the configured executor memory budget (0 = unlimited);
	// BudgetUsedBytes is the memory currently charged against it.
	BudgetBytes     int64 `json:"budget_bytes"`
	BudgetUsedBytes int64 `json:"budget_used_bytes"`
	// Runs counts run files flushed to disk, RunBytes the bytes written to
	// them, Merges the merge passes, and Operators the operator executions
	// that spilled at least once.
	Runs      int64 `json:"runs"`
	RunBytes  int64 `json:"run_bytes"`
	Merges    int64 `json:"merges"`
	Operators int64 `json:"operators"`
}

// BufferPoolStats is the wire form of the paged-storage buffer pool.
type BufferPoolStats struct {
	// PageSize is the heap page size in bytes.
	PageSize int `json:"page_size"`
	// PagesCached / PagesPinned / PagesDirty describe current residency.
	PagesCached int64 `json:"pages_cached"`
	PagesPinned int64 `json:"pages_pinned"`
	PagesDirty  int64 `json:"pages_dirty"`
	// Hits/Misses count page pins served from / loaded into the pool;
	// HitRatio is their ratio (1.0 on an untouched pool). Evictions counts
	// victim pages dropped; Writebacks counts dirty pages written to disk.
	Hits       int64   `json:"hits"`
	Misses     int64   `json:"misses"`
	Evictions  int64   `json:"evictions"`
	Writebacks int64   `json:"writebacks"`
	HitRatio   float64 `json:"hit_ratio"`
}

// CacheStats is the wire form of the engine's plan/result cache counters.
type CacheStats struct {
	Len           int    `json:"len"`
	Capacity      int    `json:"capacity"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
}
