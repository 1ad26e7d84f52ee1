// View caching: the warehouse scenario of §3 — a system that caches one
// materialized reporting-function view and answers a stream of window
// queries with *different* windows from it, instead of recomputing each from
// raw data.
//
// The example materializes x̃ = (2,1) over a 4000-row sequence and then
// answers a batch of queries (wider, narrower, one-sided windows) twice:
// once natively from raw data and once derived from the view, comparing
// results and wall-clock times, and naming the derivation the engine chose.
//
// Run with: go run ./examples/viewcache
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"rfview"
)

const n = 1200

func main() {
	ctx := context.Background()
	db := rfview.OpenDefault()
	loadSequence(ctx, db)
	if _, err := db.ExecContext(ctx, `CREATE MATERIALIZED VIEW matseq AS
	  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS val
	  FROM seq`); err != nil {
		log.Fatal(err)
	}

	queries := []struct {
		name string
		sql  string
	}{
		{"ỹ=(3,1) — the paper's Fig. 6 pair", win(3, 1)},
		{"ỹ=(3,2) — double-sided extension", win(3, 2)},
		{"ỹ=(1,1) — narrower (MinOA only)", win(1, 1)},
		{"ỹ=(0,6) — prospective weekly", win(0, 6)},
		{"ỹ=(2,1) — exact view match", win(2, 1)},
	}

	fmt.Printf("sequence of %d rows; materialized view x̃=(2,1)\n\n", n)
	fmt.Printf("%-36s %12s %12s %12s  %s\n", "query", "native", "derived", "cost ratio", "strategy")
	for _, q := range queries {
		// Native: ignore the view.
		eng := db.Engine()
		opts := eng.Opts
		opts.UseMatViews = false
		eng.Opts = opts
		tn, native := timed(ctx, db, q.sql)

		// Derived: strategy picked automatically.
		opts.UseMatViews = true
		eng.Opts = opts
		td, derived := timed(ctx, db, q.sql)

		if !sameRows(native.Rows, derived.Rows) {
			log.Fatalf("%s: derived result differs from native", q.name)
		}
		strategy := "native (no rewrite)"
		if derived.Derivation != nil {
			strategy = fmt.Sprintf("%s from %s", derived.Derivation.Plan.Source.Algo,
				derived.Derivation.View.Name)
		}
		fmt.Printf("%-36s %12s %12s %11.2fx  %s\n",
			q.name, tn.Round(time.Microsecond), td.Round(time.Microsecond),
			float64(td)/float64(tn), strategy)
	}
	fmt.Println("\nAll derived results verified against native evaluation.")
	fmt.Println("Every derived answer is one scan of the view under the sequence algebra")
	fmt.Println("(exact, MinOA): no raw data is read, and no self join of the view runs —")
	fmt.Println("the MaxOA/MinOA SQL patterns the paper times in Table 2 are experiments")
	fmt.Println("(go run ./cmd/rfbench -exp table2), not the served path.")
}

func win(l, h int) string {
	return fmt.Sprintf(`SELECT pos, SUM(val) OVER (ORDER BY pos
	  ROWS BETWEEN %d PRECEDING AND %d FOLLOWING) AS w FROM seq`, l, h)
}

func timed(ctx context.Context, db *rfview.DB, sql string) (time.Duration, *rfview.Result) {
	start := time.Now()
	res, err := db.QueryContext(ctx, sql)
	if err != nil {
		log.Fatal(err)
	}
	return time.Since(start), res
}

func sameRows(a, b []rfview.Row) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[int64]float64, len(a))
	for _, r := range a {
		m[r[0].Int()] = r[1].Float()
	}
	for _, r := range b {
		v, ok := m[r[0].Int()]
		if !ok || v-r[1].Float() > 1e-6 || r[1].Float()-v > 1e-6 {
			return false
		}
	}
	return true
}

func loadSequence(ctx context.Context, db *rfview.DB) {
	if _, err := db.ExecContext(ctx, `CREATE TABLE seq (pos INTEGER, val INTEGER)`); err != nil {
		log.Fatal(err)
	}
	if _, err := db.ExecContext(ctx, `CREATE UNIQUE INDEX seq_pk ON seq (pos)`); err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for lo := 1; lo <= n; lo += 1000 {
		hi := lo + 999
		if hi > n {
			hi = n
		}
		var b strings.Builder
		b.WriteString("INSERT INTO seq VALUES ")
		for i := lo; i <= hi; i++ {
			if i > lo {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d)", i, rng.Intn(500))
		}
		if _, err := db.ExecContext(ctx, b.String()); err != nil {
			log.Fatal(err)
		}
	}
}
