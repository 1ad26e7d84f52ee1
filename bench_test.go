package rfview_test

// Ablation benchmarks behind the paper's tables, at the algebra level and for
// the §6.2 partitioned derivation (EXPERIMENTS.md "Ablations" cites them).
// The tables themselves are measured and verified by
// `go run ./cmd/rfbench -exp table1|table2 -check`.

import (
	"fmt"
	"strings"
	"testing"

	"rfview/internal/core"
	"rfview/internal/engine"
)

// BenchmarkCoreCompute is the ablation behind Table 1's "reporting
// functionality" column: naive O(n·W) evaluation vs. the §2.2 pipelined
// recursion, at the algebra level (no SQL overhead).
func BenchmarkCoreCompute(b *testing.B) {
	raw := make([]float64, 15000)
	for i := range raw {
		raw[i] = float64(i % 97)
	}
	for _, w := range []core.Window{core.Sliding(1, 1), core.Sliding(25, 25), core.Cumul()} {
		b.Run(fmt.Sprintf("naive/w=%v", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.ComputeNaive(raw, w, core.Sum); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("pipelined/w=%v", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.ComputePipelined(raw, w, core.Sum); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCoreDerive compares the derivation algorithms at the algebra
// level: MaxOA and MinOA, each in the explicit form and in the linear form
// the engine runs (compensation sequences, running sums per residue class),
// and full recomputation from raw data as the baseline.
func BenchmarkCoreDerive(b *testing.B) {
	raw := make([]float64, 10000)
	for i := range raw {
		raw[i] = float64((i * 31) % 101)
	}
	src, err := core.ComputePipelined(raw, core.Sliding(2, 1), core.Sum)
	if err != nil {
		b.Fatal(err)
	}
	target := core.Sliding(3, 1)
	b.Run("recompute-from-raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ComputePipelined(raw, target, core.Sum); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MaxOA-explicit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MaxOA(src, target); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MaxOA-recursive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MaxOARecursive(src, target); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MinOA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MinOA(src, target); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MinOA-recursive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MinOARecursive(src, target); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMaintenance is the §2.3 ablation: one incremental update against
// full recomputation of the materialized sequence.
func BenchmarkMaintenance(b *testing.B) {
	raw := make([]float64, 10000)
	for i := range raw {
		raw[i] = float64(i % 53)
	}
	b.Run("incremental-update", func(b *testing.B) {
		m, err := core.NewMaintainer(raw, core.Sliding(2, 1), core.Sum)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.Update(1+i%len(raw), float64(i%97)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			raw[i%len(raw)] = float64(i % 97)
			if _, err := core.ComputePipelined(raw, core.Sliding(2, 1), core.Sum); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPartitionedDerivation measures §6.2 in SQL form: deriving a
// per-partition window query from a partitioned sequence view, against
// native evaluation over the raw data.
func BenchmarkPartitionedDerivation(b *testing.B) {
	build := func() *engine.Engine {
		e := engine.New(engine.DefaultOptions())
		if _, err := e.Exec(`CREATE TABLE pseq (grp INTEGER, pos INTEGER, val INTEGER)`); err != nil {
			b.Fatal(err)
		}
		var sb strings.Builder
		sb.WriteString("INSERT INTO pseq VALUES ")
		first := true
		for g := 1; g <= 8; g++ {
			for i := 1; i <= 100; i++ {
				if !first {
					sb.WriteString(", ")
				}
				first = false
				fmt.Fprintf(&sb, "(%d, %d, %d)", g, i, (g*31+i*7)%100)
			}
		}
		if _, err := e.Exec(sb.String()); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Exec(`CREATE MATERIALIZED VIEW pmv AS
		  SELECT grp, pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos
		    ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS val FROM pseq`); err != nil {
			b.Fatal(err)
		}
		return e
	}
	const q = `SELECT grp, pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos
	  ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS w FROM pseq`
	b.Run("native", func(b *testing.B) {
		e := build()
		opts := e.Opts
		opts.UseMatViews = false
		e.Opts = opts
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Exec(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("derived", func(b *testing.B) {
		e := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := e.Exec(q)
			if err != nil {
				b.Fatal(err)
			}
			if res.Derivation == nil {
				b.Fatal("derivation did not fire")
			}
		}
	})
}
