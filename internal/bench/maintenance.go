package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rfview/internal/engine"
)

// The maintenance experiment quantifies §2.3 at the SQL level: how much an
// incremental view update (one UPDATE statement against the base table,
// folded into the view through the maintenance rules) costs compared to a
// full REFRESH MATERIALIZED VIEW.

// MaintRow is one measured row of the maintenance experiment.
type MaintRow struct {
	N           int
	Incremental time.Duration // median over single-row UPDATEs, §2.3 band patch
	FullRefresh time.Duration // median over REFRESH MATERIALIZED VIEW trials
}

// MaintenanceSizes are the default sequence cardinalities.
var MaintenanceSizes = []int{1000, 5000, 20000}

// maintIncrementalOps is how many single-row UPDATEs each size times.
const maintIncrementalOps = 50

// maintRefreshTrials is how many REFRESH executions each size times.
const maintRefreshTrials = 5

func medianDuration(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

// RunMaintenance measures incremental maintenance vs. full refresh. Each
// single-row UPDATE is timed individually and each REFRESH trial separately;
// the reported numbers are medians, which shrug off scheduler hiccups that
// would skew a batch average.
func RunMaintenance(sizes []int) ([]MaintRow, error) {
	out := make([]MaintRow, 0, len(sizes))
	for _, n := range sizes {
		e := engine.New(engine.DefaultOptions())
		if err := LoadSequenceTable(e, n, 23); err != nil {
			return nil, err
		}
		if _, err := e.Exec(`CREATE UNIQUE INDEX seq_pk ON seq (pos)`); err != nil {
			return nil, err
		}
		if _, err := e.Exec(Table2ViewDDL); err != nil {
			return nil, err
		}
		row := MaintRow{N: n}

		var updates, refreshes []time.Duration
		for i := 0; i < maintIncrementalOps; i++ {
			pos := 1 + (i*7919)%n
			sql := fmt.Sprintf(`UPDATE seq SET val = %d WHERE pos = %d`, i%100, pos)
			start := time.Now()
			if _, err := e.Exec(sql); err != nil {
				return nil, err
			}
			updates = append(updates, time.Since(start))
		}
		row.Incremental = medianDuration(updates)
		if e.Views.Stale("matseq") {
			return nil, fmt.Errorf("maintenance: view went stale at n=%d", n)
		}

		for t := 0; t < maintRefreshTrials; t++ {
			start := time.Now()
			if _, err := e.Exec(`REFRESH MATERIALIZED VIEW matseq`); err != nil {
				return nil, err
			}
			refreshes = append(refreshes, time.Since(start))
		}
		row.FullRefresh = medianDuration(refreshes)
		out = append(out, row)
	}
	return out, nil
}

// DeltaRatioRow is one measured point of the delta-vs-full experiment: a
// batch of single-row UPDATEs sized as a fraction of the table, folded into
// the view through eager maintenance, against a full REFRESH of the same
// view. The ratio is the §2.3 payoff: refresh cost scales with the table,
// delta cost with the delta.
type DeltaRatioRow struct {
	N           int
	DeltaFrac   float64
	DeltaOps    int
	DeltaTotal  time.Duration // wall time for the whole delta batch
	FullRefresh time.Duration // median over REFRESH trials at this size
}

// Ratio is FullRefresh over the delta batch.
func (r DeltaRatioRow) Ratio() float64 {
	if r.DeltaTotal <= 0 {
		return 0
	}
	return float64(r.FullRefresh) / float64(r.DeltaTotal)
}

// DeltaRatioSizes and DeltaRatioFracs span the growth grid: table sizes
// 10k/100k/1M, delta sizes 0.1%/1%/10% of the table.
var (
	DeltaRatioSizes = []int{10_000, 100_000, 1_000_000}
	DeltaRatioFracs = []float64{0.001, 0.01, 0.1}
)

// deltaRefreshTrials is how many REFRESH executions each size times.
const deltaRefreshTrials = 3

// RunDeltaRatios measures the delta-vs-full grid. One engine per size: the
// refresh median is measured once, then each delta fraction's UPDATE batch
// is timed as a whole (the per-op dispatch overhead is part of the cost of
// the write path and belongs in the number).
func RunDeltaRatios(sizes []int, fracs []float64) ([]DeltaRatioRow, error) {
	var out []DeltaRatioRow
	for _, n := range sizes {
		e := engine.New(engine.DefaultOptions())
		if err := LoadSequenceTable(e, n, 29); err != nil {
			return nil, err
		}
		if _, err := e.Exec(`CREATE UNIQUE INDEX seq_pk ON seq (pos)`); err != nil {
			return nil, err
		}
		if _, err := e.Exec(Table2ViewDDL); err != nil {
			return nil, err
		}

		var refreshes []time.Duration
		for t := 0; t < deltaRefreshTrials; t++ {
			start := time.Now()
			if _, err := e.Exec(`REFRESH MATERIALIZED VIEW matseq`); err != nil {
				return nil, err
			}
			refreshes = append(refreshes, time.Since(start))
		}
		refresh := medianDuration(refreshes)

		for _, frac := range fracs {
			ops := int(float64(n) * frac)
			if ops < 1 {
				ops = 1
			}
			start := time.Now()
			for i := 0; i < ops; i++ {
				pos := 1 + (i*7919)%n
				sql := fmt.Sprintf(`UPDATE seq SET val = %d WHERE pos = %d`, (i*13)%1000, pos)
				if _, err := e.Exec(sql); err != nil {
					return nil, err
				}
			}
			total := time.Since(start)
			if e.Views.Stale("matseq") {
				return nil, fmt.Errorf("delta ratios: view went stale at n=%d frac=%g", n, frac)
			}
			out = append(out, DeltaRatioRow{
				N: n, DeltaFrac: frac, DeltaOps: ops,
				DeltaTotal: total, FullRefresh: refresh,
			})
		}
	}
	return out, nil
}

// FormatDeltaRatios renders the delta-vs-full grid.
func FormatDeltaRatios(rows []DeltaRatioRow) string {
	var b strings.Builder
	b.WriteString("Delta vs. full refresh (§2.3): UPDATE batch folded eagerly vs. REFRESH\n")
	b.WriteString("  # seq values   delta    ops      delta batch    full refresh   refresh/delta\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %12d   %5.1f%%  %7d  %-14s %-14s %10.1fx\n",
			r.N, r.DeltaFrac*100, r.DeltaOps, fmtDur(r.DeltaTotal), fmtDur(r.FullRefresh), r.Ratio())
	}
	return b.String()
}

// FormatMaintenance renders the experiment.
func FormatMaintenance(rows []MaintRow) string {
	var b strings.Builder
	b.WriteString("Maintenance (§2.3): incremental update vs. full refresh of x̃=(2,1)\n")
	b.WriteString("  # seq values   incremental/op   full refresh   ratio\n")
	for _, r := range rows {
		ratio := float64(r.FullRefresh) / float64(r.Incremental)
		fmt.Fprintf(&b, "  %12d   %-16s %-14s %8.1fx\n",
			r.N, fmtDur(r.Incremental), fmtDur(r.FullRefresh), ratio)
	}
	return b.String()
}
