package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"rfview/internal/engine"
)

// The window experiment measures the partition-parallel Window operator in
// isolation: a table with many same-sized partitions, a sliding-window
// reporting function over each, and the identical query executed with the
// worker pool pinned to 1, 2, and 4 workers. The plan cache is disabled so
// every execution runs the operator. The §6 partitioning lemma makes the
// partitions independent, so on a multi-core host the pool should approach
// linear speedup; on a single-core host the runs document the serial cap
// instead (the pool adds only scheduling overhead there).

// WindowConfig sizes the partition-parallel workload.
type WindowConfig struct {
	Partitions       int // partition count (one worker unit each)
	RowsPerPartition int
	Trials           int // timed repetitions per worker setting; medians reported
	Seed             int64
}

// DefaultWindowConfig is the configuration `rfbench -exp window` runs. Nine
// trials keep the medians stable on a noisy shared host.
func DefaultWindowConfig() WindowConfig {
	return WindowConfig{Partitions: 64, RowsPerPartition: 500, Trials: 9, Seed: 20020301}
}

// WindowRow is one measured worker setting. AllocsPerOp and BytesPerOp are
// per-trial medians of the runtime.MemStats Mallocs / TotalAlloc deltas
// around one query execution, recording the allocation cost alongside wall
// time (pooled executor buffers show up here long before a single-core host
// shows a wall-time win).
type WindowRow struct {
	Workers     int
	Median      time.Duration
	Trials      []time.Duration
	AllocsPerOp uint64
	BytesPerOp  uint64
}

// windowBenchQuery is the measured statement.
const windowBenchQuery = `SELECT grp, pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos
  ROWS BETWEEN 8 PRECEDING AND 8 FOLLOWING) AS w FROM pt`

// The multi-function experiment measures the shared-sort planner: one query
// with 1/2/4/8 OVER clauses, executed with the planner on and with
// DisableSharedSort. The specs target the regime the optimization exists
// for — redundant orderings of the same stream. The first four are
// unpartitioned with prefix-chained ORDER BYs, so they form one
// ordering-compatible class: the shared plan sorts once where the unshared
// plan sorts the full input once per clause. Clauses five through eight
// repeat the chain under PARTITION BY g, forming a second class (the
// unshared plan hash-partitions those, so that half is roughly a wash —
// the reported speedup is carried by the real redundancy in the first
// class, not by a workload the unshared engine would never sort).
var multiWindowSpecs = []string{
	"ORDER BY a",
	"ORDER BY a, b",
	"ORDER BY a, b, c",
	"ORDER BY a, b, c, v",
	"PARTITION BY g ORDER BY a",
	"PARTITION BY g ORDER BY a, b",
	"PARTITION BY g ORDER BY a, b, c",
	"PARTITION BY g ORDER BY a, b, v",
}

// multiWindowAggs vary per clause so no two OVER columns are syntactically
// identical.
var multiWindowAggs = []string{"SUM", "COUNT", "MIN", "MAX", "AVG", "SUM", "MAX", "MIN"}

// multiWindowClasses is the ordering-compatible class count the planner
// forms at each clause count over multiWindowSpecs.
func multiWindowClasses(overs int) int {
	if overs <= 4 {
		return 1 // the unpartitioned prefix chain
	}
	return 2 // the PARTITION BY g chain joins as a second class
}

// MultiWindowQuery builds the measured statement with n OVER clauses.
func MultiWindowQuery(n int) string {
	var b strings.Builder
	b.WriteString("SELECT g, a")
	for i := 0; i < n; i++ {
		agg := multiWindowAggs[i%len(multiWindowAggs)]
		spec := multiWindowSpecs[i%len(multiWindowSpecs)]
		fmt.Fprintf(&b, ",\n  %s(v) OVER (%s) AS w%d", agg, spec, i)
	}
	b.WriteString("\nFROM mt")
	return b.String()
}

// loadMultiTable loads the multi-function experiment's table: integer keys
// throughout, Partitions distinct values of g, and wide-range a/b/c order
// columns so prefix refinements actually break ties.
func loadMultiTable(e *engine.Engine, cfg WindowConfig) error {
	if _, err := e.Exec(`CREATE TABLE mt (g INTEGER, a INTEGER, b INTEGER, c INTEGER, v INTEGER)`); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	total := cfg.Partitions * cfg.RowsPerPartition
	const chunk = 1000
	var b strings.Builder
	pending := 0
	flush := func() error {
		if pending == 0 {
			return nil
		}
		_, err := e.Exec(b.String())
		b.Reset()
		pending = 0
		return err
	}
	for i := 0; i < total; i++ {
		if pending == 0 {
			b.WriteString("INSERT INTO mt VALUES ")
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %d, %d, %d)",
			i%cfg.Partitions, rng.Intn(total/4), rng.Intn(64), rng.Intn(16), rng.Intn(1000))
		pending++
		if pending == chunk {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// MultiWindowRow is one measured OVER-clause count: the same query with the
// shared-sort planner on (Shared*) and off (Unshared*). SortsShared and
// SortsPerformed are the engine's counters over the shared run's trials —
// the direct evidence of sort reuse (at 4 clauses / 1 class the shared plan
// performs 1 sort per execution where the unshared plan orders 4 times; at
// 8 clauses / 2 classes, 2 sorts versus 8 orderings).
type MultiWindowRow struct {
	OverClauses    int
	Classes        int
	SharedMedian   time.Duration
	UnsharedMedian time.Duration
	SortsPerformed int64
	SortsShared    int64
	SortsSegmented int64
}

// RunMultiWindow executes the multi-function workload at each OVER-clause
// count with the shared-sort planner on and off, cross-checking the two
// result sets cell-for-cell.
func RunMultiWindow(cfg WindowConfig, overCounts []int) ([]MultiWindowRow, error) {
	build := func(disableShared bool) (*engine.Engine, error) {
		opts := engine.DefaultOptions()
		opts.UseMatViews = false
		opts.DisableSharedSort = disableShared
		e := engine.New(opts)
		e.SetPlanCacheCapacity(0) // every trial must plan and run the operator stack
		if err := loadMultiTable(e, cfg); err != nil {
			e.Close()
			return nil, err
		}
		return e, nil
	}
	shared, err := build(false)
	if err != nil {
		return nil, err
	}
	defer shared.Close()
	unshared, err := build(true)
	if err != nil {
		return nil, err
	}
	defer unshared.Close()

	run := func(e *engine.Engine, q string) ([]time.Duration, []string, error) {
		// Collect the other engine's build garbage before timing anything, so
		// whichever side runs first doesn't absorb the GC debt of both loads.
		runtime.GC()
		var trials []time.Duration
		var rendered []string
		for t := 0; t < cfg.Trials; t++ {
			start := time.Now()
			res, err := e.Exec(q)
			d := time.Since(start)
			if err != nil {
				return nil, nil, err
			}
			trials = append(trials, d)
			if t == cfg.Trials-1 {
				rendered = make([]string, 0, len(res.Rows))
				for _, r := range res.Rows {
					rendered = append(rendered, r.String())
				}
				sort.Strings(rendered)
			}
		}
		return trials, rendered, nil
	}

	out := make([]MultiWindowRow, 0, len(overCounts))
	for _, n := range overCounts {
		q := MultiWindowQuery(n)
		ws := shared.WindowStats()
		perf0, shar0, seg0 := ws.SortsPerformed.Load(), ws.SortsShared.Load(), ws.SortsSegmented.Load()
		st, srows, err := run(shared, q)
		if err != nil {
			return nil, fmt.Errorf("shared %d-over: %w", n, err)
		}
		ut, urows, err := run(unshared, q)
		if err != nil {
			return nil, fmt.Errorf("unshared %d-over: %w", n, err)
		}
		if len(srows) != len(urows) {
			return nil, fmt.Errorf("%d-over: shared returned %d rows, unshared %d", n, len(srows), len(urows))
		}
		for i := range srows {
			if srows[i] != urows[i] {
				return nil, fmt.Errorf("%d-over: shared and unshared results differ at row %d", n, i)
			}
		}
		out = append(out, MultiWindowRow{
			OverClauses:    n,
			Classes:        multiWindowClasses(n),
			SharedMedian:   medianDuration(st),
			UnsharedMedian: medianDuration(ut),
			SortsPerformed: ws.SortsPerformed.Load() - perf0,
			SortsShared:    ws.SortsShared.Load() - shar0,
			SortsSegmented: ws.SortsSegmented.Load() - seg0,
		})
	}
	return out, nil
}

func loadPartitionedTable(e *engine.Engine, cfg WindowConfig) error {
	if _, err := e.Exec(`CREATE TABLE pt (grp VARCHAR(8), pos INTEGER, val INTEGER)`); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	const chunk = 1000
	var b strings.Builder
	pending := 0
	flush := func() error {
		if pending == 0 {
			return nil
		}
		_, err := e.Exec(b.String())
		b.Reset()
		pending = 0
		return err
	}
	for g := 0; g < cfg.Partitions; g++ {
		for i := 1; i <= cfg.RowsPerPartition; i++ {
			if pending == 0 {
				b.WriteString("INSERT INTO pt VALUES ")
			} else {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "('g%03d', %d, %d)", g, i, rng.Intn(1000))
			pending++
			if pending == chunk {
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	return flush()
}

// RunWindowParallel executes the workload at each worker setting and returns
// one row per setting, with per-trial timings and the median. The sequential
// (workers=1) result is additionally checked against every parallel result.
func RunWindowParallel(cfg WindowConfig, workerSettings []int) ([]WindowRow, error) {
	out := make([]WindowRow, 0, len(workerSettings))
	var reference []float64

	measure := func(workers int) (WindowRow, error) {
		opts := engine.DefaultOptions()
		opts.UseMatViews = false
		opts.WindowParallelism = workers
		e := engine.New(opts)
		defer e.Close()
		e.SetPlanCacheCapacity(0) // every trial must run the operator
		if err := loadPartitionedTable(e, cfg); err != nil {
			return WindowRow{}, err
		}
		row := WindowRow{Workers: workers}
		var lastSums []float64
		var allocs, bytes []uint64
		for t := 0; t < cfg.Trials; t++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			res, err := e.Exec(windowBenchQuery)
			d := time.Since(start)
			if err != nil {
				return WindowRow{}, err
			}
			runtime.ReadMemStats(&after)
			allocs = append(allocs, after.Mallocs-before.Mallocs)
			bytes = append(bytes, after.TotalAlloc-before.TotalAlloc)
			row.Trials = append(row.Trials, d)
			if t == cfg.Trials-1 {
				lastSums = make([]float64, 0, len(res.Rows))
				for _, r := range res.Rows {
					lastSums = append(lastSums, r[2].Float())
				}
				sort.Float64s(lastSums)
			}
		}
		if reference == nil {
			reference = lastSums
		} else if !sameFloats(reference, lastSums) {
			return WindowRow{}, fmt.Errorf("workers=%d: result differs from reference", workers)
		}
		row.Median = medianDuration(row.Trials)
		row.AllocsPerOp = medianU64(allocs)
		row.BytesPerOp = medianU64(bytes)
		return row, nil
	}

	for _, w := range workerSettings {
		row, err := measure(w)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

func medianU64(vals []uint64) uint64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]uint64(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FormatWindow renders a human-readable table of the experiment.
func FormatWindow(rows []WindowRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s  %-12s  %-12s  %-12s  %s\n", "workers", "median", "allocs/op", "B/op", "trials")
	var seq time.Duration
	for _, r := range rows {
		if r.Workers == 1 {
			seq = r.Median
		}
	}
	for _, r := range rows {
		parts := make([]string, len(r.Trials))
		for i, t := range r.Trials {
			parts[i] = t.Round(10 * time.Microsecond).String()
		}
		line := fmt.Sprintf("%-8d  %-12s  %-12d  %-12d  %s", r.Workers,
			r.Median.Round(10*time.Microsecond), r.AllocsPerOp, r.BytesPerOp, strings.Join(parts, " "))
		if seq > 0 && r.Workers > 1 {
			line += fmt.Sprintf("   (%.2fx vs sequential)", float64(seq)/float64(r.Median))
		}
		b.WriteString(line + "\n")
	}
	return b.String()
}

// FormatMultiWindow renders the shared-sort grid as a human-readable table.
func FormatMultiWindow(rows []MultiWindowRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s  %-7s  %-12s  %-12s  %-8s  %s\n",
		"overs", "classes", "shared", "unshared", "speedup", "sorts (performed/shared/segmented)")
	for _, r := range rows {
		speedup := "-"
		if r.SharedMedian > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(r.UnsharedMedian)/float64(r.SharedMedian))
		}
		fmt.Fprintf(&b, "%-6d  %-7d  %-12s  %-12s  %-8s  %d/%d/%d\n",
			r.OverClauses, r.Classes,
			r.SharedMedian.Round(10*time.Microsecond),
			r.UnsharedMedian.Round(10*time.Microsecond),
			speedup, r.SortsPerformed, r.SortsShared, r.SortsSegmented)
	}
	return b.String()
}
