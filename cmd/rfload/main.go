// Command rfload is a concurrent load generator for rfserverd: it opens N
// client connections, fires the same query from each in a closed loop, and
// reports aggregate throughput and latency percentiles.
//
// Usage:
//
//	rfload -addr host:port [-clients N] [-duration 3s] [-sql QUERY]
//	       [-mixed RATIO -write-sql DML] [-setup script.sql] [-warmup 50]
//	       [-json] [-probe] [-mem-budget SIZE]
//
// -setup executes a SQL script through one connection before the load phase
// (statement by statement). -probe just pings once and exits 0/1, for
// scripts waiting on server start. -json prints a single machine-readable
// result line instead of the human summary. -mem-budget asserts the server
// runs under that executor memory budget (start rfserverd with the same
// flag) and appends the server's spill counters to the result, so a serve
// benchmark can confirm the out-of-core path actually ran end-to-end.
//
// -mixed R turns each client into a mixed reader/writer: every iteration is
// the -sql read with probability R, otherwise the -write-sql statement.
// Every "{i}" in -write-sql is replaced with a process-wide unique integer,
// so inserts can mint fresh keys ("INSERT INTO seq (pos, val) VALUES ({i},
// 1)"). Reads and writes are reported separately, write-write conflict
// aborts are counted rather than treated as errors, and the server's
// transaction counters are appended to the result — together they show
// readers scaling while writers commit (MVCC snapshot isolation).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	rferrors "rfview/errors"
	"rfview/internal/client"
	"rfview/internal/spill"
	"rfview/internal/sqlparser"
)

type runResult struct {
	Clients    int     `json:"clients"`
	DurationS  float64 `json:"duration_s"`
	Queries    uint64  `json:"queries"`
	Errors     uint64  `json:"errors"`
	QPS        float64 `json:"qps"`
	P50Us      int64   `json:"p50_us"`
	P95Us      int64   `json:"p95_us"`
	P99Us      int64   `json:"p99_us"`
	MeanUs     int64   `json:"mean_us"`
	ServerUsP  int64   `json:"server_p50_us"`
	RowsPerRes int     `json:"rows_per_result"`
	// Spill fields are filled only under -mem-budget: the server-reported
	// budget and cumulative spill counters after the run.
	MemBudget     int64 `json:"mem_budget_bytes,omitempty"`
	SpillRuns     int64 `json:"spill_runs,omitempty"`
	SpillRunBytes int64 `json:"spill_run_bytes,omitempty"`
	SpillOps      int64 `json:"spill_operators,omitempty"`
	// Buffer-pool counters, as reported by the server after the run.
	BPPageSize    int     `json:"bufferpool_page_size,omitempty"`
	BPPagesCached int64   `json:"bufferpool_pages_cached,omitempty"`
	BPHits        int64   `json:"bufferpool_hits,omitempty"`
	BPMisses      int64   `json:"bufferpool_misses,omitempty"`
	BPEvictions   int64   `json:"bufferpool_evictions,omitempty"`
	BPWritebacks  int64   `json:"bufferpool_writebacks,omitempty"`
	BPHitRatio    float64 `json:"bufferpool_hit_ratio,omitempty"`
	// View-maintenance counters, as reported by the server after the run.
	MaintDelta int64 `json:"maintenance_delta_applied,omitempty"`
	MaintFull  int64 `json:"maintenance_full_refreshes,omitempty"`
	// Mixed-workload fields, filled only under -mixed: the configured read
	// ratio, the read/write split of the measured iterations, and write-write
	// conflict aborts (counted apart from Errors).
	MixedRatio float64 `json:"mixed_ratio,omitempty"`
	Reads      uint64  `json:"reads,omitempty"`
	Writes     uint64  `json:"writes,omitempty"`
	Conflicts  uint64  `json:"conflicts,omitempty"`
	ReadQPS    float64 `json:"read_qps,omitempty"`
	WriteQPS   float64 `json:"write_qps,omitempty"`
	// Transaction counters, as reported by the server after the run.
	TxnBegins    int64 `json:"txn_begins,omitempty"`
	TxnCommits   int64 `json:"txn_commits,omitempty"`
	TxnRollbacks int64 `json:"txn_rollbacks,omitempty"`
	TxnConflicts int64 `json:"txn_conflict_aborts,omitempty"`
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "server address")
	clients := flag.Int("clients", 1, "concurrent client connections")
	duration := flag.Duration("duration", 3*time.Second, "measurement window")
	sqlText := flag.String("sql", "", "query to issue in a closed loop")
	op := flag.String("op", "query", `operation per iteration: "query", or "ping" for a protocol-only ceiling run`)
	setup := flag.String("setup", "", "SQL script to execute once before the load phase")
	warmup := flag.Int("warmup", 50, "per-client warmup queries excluded from measurement")
	jsonOut := flag.Bool("json", false, "print one JSON result line instead of the human summary")
	probe := flag.Bool("probe", false, "ping once and exit 0 on success, 1 on failure")
	memBudget := flag.String("mem-budget", "", "expected server executor memory budget, e.g. 64MiB; reports the server's spill counters after the run")
	mixed := flag.Float64("mixed", 0, "mixed workload: probability in (0,1] that an iteration is the -sql read; the rest issue -write-sql")
	writeSQL := flag.String("write-sql", "", `DML statement for the write side of -mixed; every "{i}" becomes a unique integer`)
	flag.Parse()

	if *probe {
		c, err := client.DialTimeout(*addr, time.Second)
		if err == nil {
			err = c.Ping()
			c.Close()
		}
		if err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}

	// Ctrl-C aborts the setup script and the load loop cleanly.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	if *setup != "" {
		runSetup(ctx, *addr, *setup)
	}
	if *op != "ping" && *sqlText == "" {
		log.Fatal("rfload: -sql is required (or use -op ping / -probe / -setup alone)")
	}
	if *mixed < 0 || *mixed > 1 {
		log.Fatal("rfload: -mixed must be in (0,1]")
	}
	if *mixed > 0 && *writeSQL == "" {
		log.Fatal("rfload: -mixed requires -write-sql")
	}

	res := runLoad(ctx, *addr, *clients, *duration, *op, *sqlText, *warmup, *mixed, *writeSQL)
	if *memBudget != "" {
		attachSpillStats(*addr, *memBudget, &res)
	}
	attachMaintenanceStats(*addr, &res)
	attachBufferPoolStats(*addr, &res)
	if *mixed > 0 {
		attachTxnStats(*addr, &res)
	}
	if *jsonOut {
		b, err := json.Marshal(res)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(b))
		return
	}
	fmt.Printf("clients=%d duration=%.2fs queries=%d errors=%d qps=%.0f\n",
		res.Clients, res.DurationS, res.Queries, res.Errors, res.QPS)
	fmt.Printf("latency: mean=%dus p50=%dus p95=%dus p99=%dus (server p50=%dus), %d rows/result\n",
		res.MeanUs, res.P50Us, res.P95Us, res.P99Us, res.ServerUsP, res.RowsPerRes)
	if res.MemBudget > 0 || res.SpillRuns > 0 {
		fmt.Printf("spill: budget=%dB runs=%d bytes=%d operators=%d\n",
			res.MemBudget, res.SpillRuns, res.SpillRunBytes, res.SpillOps)
	}
	if res.MaintDelta > 0 || res.MaintFull > 0 {
		fmt.Printf("maintenance: delta_applied=%d full_refreshes=%d\n", res.MaintDelta, res.MaintFull)
	}
	if res.BPPageSize > 0 {
		fmt.Printf("bufferpool: page_size=%dB cached=%d hits=%d misses=%d hit_ratio=%.2f evictions=%d writebacks=%d\n",
			res.BPPageSize, res.BPPagesCached, res.BPHits, res.BPMisses, res.BPHitRatio, res.BPEvictions, res.BPWritebacks)
	}
	if res.MixedRatio > 0 {
		fmt.Printf("mixed: ratio=%.2f reads=%d (%.0f/s) writes=%d (%.0f/s) conflicts=%d\n",
			res.MixedRatio, res.Reads, res.ReadQPS, res.Writes, res.WriteQPS, res.Conflicts)
		fmt.Printf("txn: begins=%d commits=%d rollbacks=%d conflict_aborts=%d\n",
			res.TxnBegins, res.TxnCommits, res.TxnRollbacks, res.TxnConflicts)
	}
}

// attachBufferPoolStats folds the server's paged-storage buffer-pool
// counters into the result. Best-effort, like attachMaintenanceStats.
func attachBufferPoolStats(addr string, res *runResult) {
	c, err := client.Dial(addr)
	if err != nil {
		return
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		return
	}
	res.BPPageSize = st.BufferPool.PageSize
	res.BPPagesCached = st.BufferPool.PagesCached
	res.BPHits = st.BufferPool.Hits
	res.BPMisses = st.BufferPool.Misses
	res.BPEvictions = st.BufferPool.Evictions
	res.BPWritebacks = st.BufferPool.Writebacks
	res.BPHitRatio = st.BufferPool.HitRatio
}

// attachTxnStats folds the server's transaction counters into the result.
// Best-effort, like attachMaintenanceStats.
func attachTxnStats(addr string, res *runResult) {
	c, err := client.Dial(addr)
	if err != nil {
		return
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		return
	}
	res.TxnBegins = st.Txn.Begins
	res.TxnCommits = st.Txn.Commits
	res.TxnRollbacks = st.Txn.Rollbacks
	res.TxnConflicts = st.Txn.ConflictAborts
}

// attachMaintenanceStats folds the server's view-maintenance counters into
// the result. Best-effort: a server predating the stats block just leaves the
// fields empty.
func attachMaintenanceStats(addr string, res *runResult) {
	c, err := client.Dial(addr)
	if err != nil {
		return
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		return
	}
	res.MaintDelta = st.Maintenance.DeltaApplied
	res.MaintFull = st.Maintenance.FullRefreshes
}

// attachSpillStats verifies the server runs under the expected memory budget
// and folds its spill counters into the result.
func attachSpillStats(addr, budget string, res *runResult) {
	want, err := spill.ParseBytes(budget)
	if err != nil {
		log.Fatalf("rfload: -mem-budget: %v", err)
	}
	c, err := client.Dial(addr)
	if err != nil {
		log.Fatalf("rfload: stats: %v", err)
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		log.Fatalf("rfload: stats: %v", err)
	}
	if st.Spill.BudgetBytes != want {
		log.Printf("rfload: warning: server mem budget is %dB, expected %dB (start rfserverd with -mem-budget %s)",
			st.Spill.BudgetBytes, want, budget)
	}
	res.MemBudget = st.Spill.BudgetBytes
	res.SpillRuns = st.Spill.Runs
	res.SpillRunBytes = st.Spill.RunBytes
	res.SpillOps = st.Spill.Operators
}

// runSetup replays a SQL script statement by statement over one connection.
func runSetup(ctx context.Context, addr, path string) {
	src, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("setup: %v", err)
	}
	stmts, err := sqlparser.ParseAll(string(src))
	if err != nil {
		log.Fatalf("setup: %v", err)
	}
	c, err := client.Dial(addr)
	if err != nil {
		log.Fatalf("setup: %v", err)
	}
	defer c.Close()
	for _, s := range stmts {
		if _, err := c.ExecContext(ctx, s.String()); err != nil {
			log.Fatalf("setup: %q: %v", s.String(), err)
		}
	}
}

func runLoad(ctx context.Context, addr string, clients int, duration time.Duration, op, sql string, warmup int, mixed float64, writeSQL string) runResult {
	type worker struct {
		latencies []time.Duration
		serverUs  []int64
		queries   uint64
		errors    uint64
		rows      int
		reads     uint64
		writes    uint64
		conflicts uint64
	}
	workers := make([]worker, clients)
	conns := make([]*client.Client, clients)
	for i := range conns {
		c, err := client.Dial(addr)
		if err != nil {
			log.Fatalf("dial: %v", err)
		}
		defer c.Close()
		conns[i] = c
	}

	// writeSeq mints process-wide unique integers for "{i}" in -write-sql,
	// so concurrent inserts never collide on a unique key by construction.
	var writeSeq atomic.Int64
	expand := func(tmpl string) string {
		if !strings.Contains(tmpl, "{i}") {
			return tmpl
		}
		return strings.ReplaceAll(tmpl, "{i}", strconv.FormatInt(writeSeq.Add(1), 10))
	}

	// one round-trip of the configured operation on conn i; isWrite picks the
	// write side of a mixed workload.
	issue := func(i int, isWrite bool) (*client.Result, error) {
		if op == "ping" {
			return &client.Result{}, conns[i].Ping()
		}
		if isWrite {
			return conns[i].ExecContext(ctx, expand(writeSQL))
		}
		return conns[i].QueryContext(ctx, sql)
	}

	// Warmup outside the measurement window; it also fills the server's
	// plan cache so the measured phase is the steady state. Mixed runs warm
	// up read-only: warmup writes would mutate the table before measurement.
	for i := 0; i < clients; i++ {
		for j := 0; j < warmup; j++ {
			if _, err := issue(i, false); err != nil {
				log.Fatalf("warmup: %v", err)
			}
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &workers[i]
			rng := rand.New(rand.NewSource(int64(i)*2654435761 + 1))
			for !stop.Load() {
				isWrite := mixed > 0 && rng.Float64() >= mixed
				t0 := time.Now()
				res, err := issue(i, isWrite)
				if err != nil {
					if rferrors.CodeOf(err) == rferrors.CodeConflict {
						w.conflicts++
					} else {
						w.errors++
					}
					continue
				}
				w.latencies = append(w.latencies, time.Since(t0))
				w.serverUs = append(w.serverUs, res.ElapsedUs)
				w.queries++
				if isWrite {
					w.writes++
				} else {
					w.reads++
					w.rows = len(res.Rows)
				}
			}
		}(i)
	}
	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	var total, errs, reads, writes, conflicts uint64
	var all []time.Duration
	var allServer []int64
	rows := 0
	for i := range workers {
		total += workers[i].queries
		errs += workers[i].errors
		reads += workers[i].reads
		writes += workers[i].writes
		conflicts += workers[i].conflicts
		all = append(all, workers[i].latencies...)
		allServer = append(allServer, workers[i].serverUs...)
		if workers[i].rows > 0 {
			rows = workers[i].rows
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	sort.Slice(allServer, func(a, b int) bool { return allServer[a] < allServer[b] })
	pct := func(p float64) int64 {
		if len(all) == 0 {
			return 0
		}
		return all[int(float64(len(all)-1)*p)].Microseconds()
	}
	var mean int64
	if len(all) > 0 {
		var sum time.Duration
		for _, d := range all {
			sum += d
		}
		mean = (sum / time.Duration(len(all))).Microseconds()
	}
	var serverP50 int64
	if len(allServer) > 0 {
		serverP50 = allServer[len(allServer)/2]
	}
	res := runResult{
		Clients:    clients,
		DurationS:  elapsed.Seconds(),
		Queries:    total,
		Errors:     errs,
		QPS:        float64(total) / elapsed.Seconds(),
		P50Us:      pct(0.50),
		P95Us:      pct(0.95),
		P99Us:      pct(0.99),
		MeanUs:     mean,
		ServerUsP:  serverP50,
		RowsPerRes: rows,
	}
	if mixed > 0 {
		res.MixedRatio = mixed
		res.Reads = reads
		res.Writes = writes
		res.Conflicts = conflicts
		res.ReadQPS = float64(reads) / elapsed.Seconds()
		res.WriteQPS = float64(writes) / elapsed.Seconds()
	}
	return res
}
