package main

// metricDef names one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which a gated metric may worsen (0 for ungated ones).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics: every workload reports each of them on an
// untraced run. The bounds are the widest the driver allows: on the baseline
// host the quartile distance over ten seeds reached 12% of the median while
// the whole host ran slow for some minutes (README.md, "Baseline"). write_p50_ms and fail_ratio of the issue are not here because
// the driver requires every gated metric to be non-zero on every workload:
// write latency exists only on serve_mixed (reported ungated), and failures
// travel in the result's attempted/failed counts.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "stmt/s", Better: "higher", Bound: 0.25},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// ungated are reported beside the gated metrics on an untraced run.
var ungated = []metricDef{
	{Name: "read_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "write_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "recover_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower"},
}

// perLayer are the metrics of a traced run; layer = module name. A metric a
// workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "server.wire_us", Unit: "us", Better: "lower"},
	{Name: "server.ping_us", Unit: "us", Better: "lower"},
	{Name: "server.encode_us", Unit: "us", Better: "lower"},
	{Name: "client.decode_us", Unit: "us", Better: "lower"},
	{Name: "qcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "qcache.hit_us", Unit: "us", Better: "lower"},
	{Name: "sqlparser.parse_us", Unit: "us", Better: "lower"},
	{Name: "rewrite.derive_us", Unit: "us", Better: "lower"},
	{Name: "plan.plan_us", Unit: "us", Better: "lower"},
	{Name: "exec.run_us", Unit: "us", Better: "lower"},
	{Name: "exec.allocs_per_row", Unit: "count", Better: "lower"},
	{Name: "storage.pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "storage.evictions", Unit: "count", Better: "lower"},
	{Name: "storage.writebacks", Unit: "count", Better: "lower"},
	{Name: "storage.load_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "spill.runs", Unit: "count", Better: "lower"},
	{Name: "spill.bytes", Unit: "B", Better: "lower"},
	{Name: "mview.maint_us", Unit: "us", Better: "lower"},
	{Name: "mview.deltas_applied", Unit: "count", Better: "higher"},
	{Name: "mview.create_s", Unit: "s", Better: "lower"},
	{Name: "txn.commit_us", Unit: "us", Better: "lower"},
	{Name: "txn.conflict_ratio", Unit: "ratio", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_write", Unit: "B", Better: "lower"},
	{Name: "wal.recover_s", Unit: "s", Better: "lower"},
	{Name: "core.floor_us", Unit: "us", Better: "lower"},
	{Name: "trace.unattributed_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// allMetrics lists every metric in the order the tables print them.
func allMetrics() []metricDef {
	return append(append(append([]metricDef(nil), endToEnd...), ungated...), perLayer...)
}

// workloadDef is one named workload; Why is the one-line reason it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// tail is the highest percentile that keeps at least ten samples beyond
	// it at this workload's usual sample count; fixed here so that runs
	// compare the same percentile.
	tail float64
}

var workloads = []workloadDef{
	{Name: "serve_hot", tail: 99.9,
		Why: "repeated dashboard over the wire: server, client and qcache hits do the work; exec, rewrite, mview do none"},
	{Name: "serve_mixed", tail: 95,
		Why: "same dashboard with 10% point UPDATEs: cache invalidation, txn commit, eager mview deltas, WAL and re-derivation"},
	{Name: "derive_uncached", tail: 95,
		Why: "never-repeating derivable windows in process: rewrite, plan and join exec do the work; qcache, window kernel, wire do none"},
	{Name: "scan_window", tail: 95,
		Why: "native window queries over the credit-card table in memory: scan, sort, window kernel; cache, rewrite, wire do none"},
	{Name: "scan_window_oocore", tail: 90,
		Why: "the scan_window stream under a memory budget a fifth of the heap: buffer-pool eviction and spill runs"},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
