// Command rfserverd serves an rfview engine over TCP, speaking the
// newline-delimited JSON protocol of internal/server.
//
// Usage:
//
//	rfserverd [-addr host:port] [-init script.sql] [-plan-cache N]
//	          [-data-dir DIR] [-fsync always|interval|off] [-checkpoint-every N]
//	          [-no-views] [-window-parallelism N] [-mem-budget SIZE] [-page-size SIZE]
//	          [-metrics-addr host:port] [-pprof-addr host:port] [-slow-query-ms N]
//
// -metrics-addr starts an HTTP listener serving the engine's Prometheus
// text exposition at /metrics (the same payload the protocol's "metrics" op
// returns). -pprof-addr starts a net/http/pprof listener (intended for
// loopback addresses: profiles expose query shapes) for CPU/heap profiling.
// -slow-query-ms logs every read statement slower than N milliseconds, with
// its analyzed per-operator plan.
// -mem-budget caps executor working memory (e.g. 64MiB): a sort over the
// budget spills memcomparable runs to disk — under <data-dir>/tmp when
// durable, else a private temp directory — and merges them back with
// bit-identical results; a window orders its partitions in memory and
// charges, but never spills, what it holds. Stale run files from a
// crashed process are swept at startup; a clean shutdown removes them all.
// -page-size sets the slotted-page size of paged heap storage (e.g. 8KiB,
// the default): table rows live in pages cached by a buffer pool whose
// residency is charged against the same -mem-budget, so one knob governs
// total executor memory. Heap files share the spill directory and its
// startup sweep/shutdown cleanup.
//
// With -data-dir the server is durable: every committed DDL/DML/REFRESH is
// written ahead to a logical WAL under DIR, state is periodically
// checkpointed into snapshots, and startup recovers the pre-crash state by
// loading the newest snapshot and replaying the WAL tail. Without -data-dir
// the server is volatile, as before.
//
// The optional -init script runs before the listener opens (schema, data
// load, materialized views). Under -data-dir it runs only when the data
// directory is fresh — a recovered server already has its state.
// SIGINT/SIGTERM trigger a graceful shutdown: in-flight requests complete,
// connections drain, and (when durable) a final checkpoint runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux, served by -pprof-addr
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"rfview/internal/engine"
	"rfview/internal/server"
	"rfview/internal/spill"
	"rfview/internal/storage"
	"rfview/internal/wal"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	initScript := flag.String("init", "", "SQL script executed before serving (durable servers: only on a fresh data dir)")
	planCache := flag.Int("plan-cache", engine.DefaultPlanCacheCapacity, "plan cache capacity (0 disables)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "graceful shutdown deadline")
	dataDir := flag.String("data-dir", "", "durability directory (empty = volatile server)")
	fsyncPolicy := flag.String("fsync", "always", "WAL fsync policy: always, interval, off")
	checkpointEvery := flag.Int("checkpoint-every", 1024, "statements between automatic checkpoints (0 disables)")
	noViews := flag.Bool("no-views", false, "disable answering queries from materialized sequence views")
	windowPar := flag.Int("window-parallelism", 0,
		"window partition workers: 0 = GOMAXPROCS, 1 = sequential, N = up to N workers")
	memBudget := flag.String("mem-budget", "", "executor memory budget, e.g. 64MiB; sorts over budget spill to disk, windows sort in memory (empty = unlimited)")
	pageSize := flag.String("page-size", "", "paged-storage page size, e.g. 8KiB (empty = default)")
	metricsAddr := flag.String("metrics-addr", "", "HTTP listen address for /metrics (empty = disabled)")
	pprofAddr := flag.String("pprof-addr", "", "HTTP listen address for net/http/pprof (empty = disabled; use a loopback address)")
	slowQueryMs := flag.Int("slow-query-ms", 0, "log queries slower than this many milliseconds, with their analyzed plan (0 disables)")
	flag.Parse()

	opts := engine.DefaultOptions()
	opts.WindowParallelism = *windowPar
	opts.UseMatViews = !*noViews
	if *memBudget != "" {
		n, err := spill.ParseBytes(*memBudget)
		if err != nil {
			log.Fatalf("-mem-budget: %v", err)
		}
		opts.MemoryBudgetBytes = n
	}
	if *pageSize != "" {
		n, err := spill.ParseBytes(*pageSize)
		if err != nil {
			log.Fatalf("-page-size: %v", err)
		}
		if n < storage.MinPageSize || n > storage.MaxPageSize {
			log.Fatalf("-page-size: %s out of range [%d, %d] bytes", *pageSize, storage.MinPageSize, storage.MaxPageSize)
		}
		opts.PageSize = int(n)
	}
	if *dataDir != "" {
		opts.SpillDir = filepath.Join(*dataDir, "tmp")
	}
	var e *engine.Engine
	var mgr *wal.Manager
	runInit := *initScript != ""
	if *dataDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsyncPolicy)
		if err != nil {
			log.Fatalf("%v", err)
		}
		mgr, err = wal.Open(wal.Options{
			Dir:             *dataDir,
			Sync:            policy,
			CheckpointEvery: *checkpointEvery,
		}, opts)
		if err != nil {
			log.Fatalf("durability: %v", err)
		}
		e = mgr.Engine()
		rec := mgr.Recovery()
		if rec.Fresh {
			log.Printf("data dir %s is fresh", *dataDir)
		} else {
			log.Printf("recovered from %s: snapshot lsn=%d, %d WAL records replayed (%d replay errors)",
				*dataDir, rec.SnapshotLSN, rec.RecordsReplayed, rec.ReplayErrors)
			if runInit {
				log.Printf("init script %s skipped: data dir already has state", *initScript)
				runInit = false
			}
		}
	} else {
		e = engine.New(opts)
	}
	e.SetPlanCacheCapacity(*planCache)
	if opts.SpillDir != "" {
		if n, err := e.SweepSpill(); err != nil {
			log.Printf("spill: startup sweep: %v", err)
		} else if n > 0 {
			log.Printf("spill: swept %d stale run file(s) from %s", n, opts.SpillDir)
		}
	}
	if runInit {
		sql, err := os.ReadFile(*initScript)
		if err != nil {
			log.Fatalf("init: %v", err)
		}
		if _, err := e.ExecAllContext(context.Background(), string(sql)); err != nil {
			log.Fatalf("init: %v", err)
		}
		log.Printf("init script %s applied", *initScript)
	}

	if *slowQueryMs > 0 {
		threshold := time.Duration(*slowQueryMs) * time.Millisecond
		e.SetSlowQueryLog(threshold, func(q engine.SlowQuery) {
			log.Printf("slow query (%s > %s): %s\n%s", q.Elapsed.Round(time.Microsecond), threshold, q.SQL, q.Plan)
		})
	}

	srv := server.New(e)
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", e.Metrics().Handler())
		mlis, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("metrics listen: %v", err)
		}
		fmt.Printf("metrics on http://%s/metrics\n", mlis.Addr())
		go func() {
			if err := http.Serve(mlis, mux); err != nil {
				log.Printf("metrics: %v", err)
			}
		}()
	}
	if *pprofAddr != "" {
		// The blank net/http/pprof import registers its handlers on
		// http.DefaultServeMux; serve that mux only on this listener, so the
		// profiling surface never shares a port with metrics or the protocol.
		plis, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatalf("pprof listen: %v", err)
		}
		fmt.Printf("pprof on http://%s/debug/pprof/\n", plis.Addr())
		go func() {
			if err := http.Serve(plis, nil); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
	}
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	// The ready line goes to stdout so scripts can wait for it.
	fmt.Printf("rfserverd listening on %s\n", lis.Addr())
	os.Stdout.Sync()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(lis) }()

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case s := <-sig:
		log.Printf("signal %v: draining", s)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		if mgr != nil {
			if err := mgr.Close(); err != nil {
				log.Printf("durability: final checkpoint: %v", err)
			}
		}
		if err := e.Close(); err != nil {
			log.Printf("spill cleanup: %v", err)
		}
		st := srv.Stats()
		cs := e.PlanCacheStats()
		log.Printf("served %d requests over %d connections (%d errors); plan cache %d/%d entries, %d hits, %d misses",
			st.Requests, st.Accepted, st.Errors, cs.Len, cs.Capacity, cs.Hits, cs.Misses)
	}
}
