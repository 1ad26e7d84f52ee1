// Incremental maintenance: the §2.3 rules in action. A materialized
// reporting-function view absorbs a stream of base-table changes — value
// updates, appends, suffix deletes, and the paper's positional
// shift-insert/shift-delete, all as plain SQL DML — while every derived
// query stays correct. The example also shows the locality the
// paper argues for: an update touches only l+h+1 view positions.
//
// Run with: go run ./examples/maintenance
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"rfview"
)

func main() {
	ctx := context.Background()
	db := rfview.OpenDefault()
	const n = 2000
	load(ctx, db, n)
	if _, err := db.ExecContext(ctx, `CREATE MATERIALIZED VIEW mv AS
	  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 2 FOLLOWING) AS val
	  FROM seq`); err != nil {
		log.Fatal(err)
	}
	mgr := db.Engine().Views

	fmt.Printf("materialized mv = (3,2) over %d rows; window size W = 6\n\n", n)

	// 1. Value updates: the §2.3 update rule touches exactly W positions.
	before := mgr.Stats().MaintenanceEvents.Load()
	for i := 0; i < 50; i++ {
		pos := 10 + i*37%n
		if _, err := db.ExecContext(ctx, fmt.Sprintf(`UPDATE seq SET val = %d WHERE pos = %d`, i*3, pos)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("50 value updates  → %d incremental maintenance events, view fresh: %v\n",
		mgr.Stats().MaintenanceEvents.Load()-before, !mgr.Stale("mv"))
	verify(ctx, db, "after updates")

	// 2. Appends at position n+1 fold in incrementally.
	for i := 1; i <= 20; i++ {
		if _, err := db.ExecContext(ctx, fmt.Sprintf(`INSERT INTO seq VALUES (%d, %d)`, n+i, i*7)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("20 appends        → view fresh: %v\n", !mgr.Stale("mv"))
	verify(ctx, db, "after appends")

	// 3. Suffix deletes shrink the sequence incrementally.
	for i := 20; i >= 11; i-- {
		if _, err := db.ExecContext(ctx, fmt.Sprintf(`DELETE FROM seq WHERE pos = %d`, n+i)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("10 suffix deletes → view fresh: %v\n", !mgr.Stale("mv"))
	verify(ctx, db, "after suffix deletes")

	// 4. The paper's positional operations: insert a value *into the middle*
	//    of the sequence (everything right of it shifts) and delete one.
	//    Each is one transaction of two statements — renumber the suffix by
	//    ±1, then insert into (or, first, delete from) the gap it opens or
	//    closes — which the view folds at commit as one §2.3 shift. The
	//    commit publishes the renumbered base and the patched view at one
	//    epoch, so no reader sees one without the other.
	sess := db.Engine().NewSession()
	defer sess.Close()
	for _, shift := range [][]string{
		{`UPDATE seq SET pos = pos + 1 WHERE pos >= 500`, `INSERT INTO seq VALUES (500, 12345)`},
		{`DELETE FROM seq WHERE pos = 1200`, `UPDATE seq SET pos = pos - 1 WHERE pos > 1200`},
	} {
		for _, sql := range append(append([]string{"BEGIN"}, shift...), "COMMIT") {
			if _, err := sess.ExecContext(ctx, sql); err != nil {
				log.Fatal(err)
			}
		}
		if mgr.Stale("mv") {
			_, why := mgr.StaleInfo("mv")
			log.Fatalf("the shift %q left the view stale: %s", shift, why)
		}
	}
	fmt.Printf("positional shift insert@500 + delete@1200 → view fresh: %v\n", !mgr.Stale("mv"))
	verify(ctx, db, "after positional shifts")

	// 5. A density-breaking change marks the view stale; REFRESH recovers.
	if _, err := db.ExecContext(ctx, `DELETE FROM seq WHERE pos = 700`); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("middle DELETE     → view stale: %v (queries now refuse the view)\n", mgr.Stale("mv"))
	if _, err := db.QueryContext(ctx, `SELECT pos, val FROM mv LIMIT 1`); err != nil {
		fmt.Printf("                  → %v\n", err)
	}
	// Repair density (move the last row into the gap), then refresh.
	res, err := db.QueryContext(ctx, `SELECT COUNT(*) AS c FROM seq`)
	if err != nil {
		log.Fatal(err)
	}
	last := res.Rows[0][0].Int() + 1 // rows count back to dense upper bound
	if _, err := db.ExecContext(ctx, fmt.Sprintf(`UPDATE seq SET pos = 700 WHERE pos = %d`, last)); err != nil {
		log.Fatal(err)
	}
	if _, err := db.ExecContext(ctx, `REFRESH MATERIALIZED VIEW mv`); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("REFRESH           → view fresh: %v\n", !mgr.Stale("mv"))
	verify(ctx, db, "after refresh")
	fmt.Println("\nevery derived query stayed consistent with recomputation from raw data")
}

// verify answers a (4,2) window query from the view and compares with native
// evaluation over the (current) raw data.
func verify(ctx context.Context, db *rfview.DB, label string) {
	const q = `SELECT pos, SUM(val) OVER (ORDER BY pos
	  ROWS BETWEEN 4 PRECEDING AND 2 FOLLOWING) AS w FROM seq`
	eng := db.Engine()
	opts := eng.Opts

	opts.UseMatViews = true
	eng.Opts = opts
	derived, err := db.QueryContext(ctx, q)
	if err != nil {
		log.Fatalf("%s: %v", label, err)
	}
	opts.UseMatViews = false
	eng.Opts = opts
	native, err := db.QueryContext(ctx, q)
	if err != nil {
		log.Fatalf("%s: %v", label, err)
	}
	opts.UseMatViews = true
	eng.Opts = opts

	if derived.Derivation == nil {
		log.Fatalf("%s: expected the view to answer the query", label)
	}
	m := make(map[int64]float64, len(native.Rows))
	for _, r := range native.Rows {
		m[r[0].Int()] = r[1].Float()
	}
	for _, r := range derived.Rows {
		if v, ok := m[r[0].Int()]; !ok || v != r[1].Float() {
			log.Fatalf("%s: mismatch at pos %v: derived %v native %v", label, r[0], r[1], v)
		}
	}
}

func load(ctx context.Context, db *rfview.DB, n int) {
	if _, err := db.ExecContext(ctx, `CREATE TABLE seq (pos INTEGER, val INTEGER)`); err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
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
			fmt.Fprintf(&b, "(%d, %d)", i, rng.Intn(100))
		}
		if _, err := db.ExecContext(ctx, b.String()); err != nil {
			log.Fatal(err)
		}
	}
}
