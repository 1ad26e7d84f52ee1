// Quickstart: the two faces of rfview.
//
//  1. The sequence algebra — compute a complete simple sequence, derive a
//     different window from it without touching raw data (MaxOA/MinOA), and
//     verify against recomputation.
//  2. The SQL surface — the same thing through reporting functions and a
//     materialized sequence view.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"rfview"
)

func main() {
	algebra()
	sql()
}

func algebra() {
	fmt.Println("=== sequence algebra (§2–§5) ===")
	raw := []float64{4, 8, 15, 16, 23, 42, 8, 4, 2, 1}

	// Materialize the complete sequence x̃ = (2,1): SUM over the window
	// [k-2, k+1], including header and trailer positions.
	x, err := rfview.SeqCompute(raw, rfview.Sliding(2, 1), rfview.Sum)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("x̃ = (2,1) body:   %v\n", x.Body())

	// Derive ỹ = (3,1) from x̃ alone — the paper's Fig. 6 example.
	y, err := rfview.SeqMaxOA(x, rfview.Sliding(3, 1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ỹ = (3,1) MaxOA:  %v\n", y.Body())

	// MinOA handles arbitrary target windows, even narrower ones.
	z, err := rfview.SeqMinOA(x, rfview.Sliding(1, 1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ỹ = (1,1) MinOA:  %v\n", z.Body())

	// Check against direct recomputation.
	want, _ := rfview.SeqCompute(raw, rfview.Sliding(3, 1), rfview.Sum)
	fmt.Printf("recomputed (3,1): %v\n", want.Body())

	// The raw data is recoverable from the complete sequence (§3.2).
	back, err := rfview.SeqReconstructRaw(x)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reconstructed raw: %v\n\n", back)
}

func sql() {
	fmt.Println("=== SQL surface ===")
	ctx := context.Background()
	db := rfview.OpenDefault()
	script := `
	  CREATE TABLE seq (pos INTEGER, val INTEGER);
	  INSERT INTO seq VALUES (1,4),(2,8),(3,15),(4,16),(5,23),(6,42),(7,8),(8,4),(9,2),(10,1);
	  CREATE UNIQUE INDEX seq_pk ON seq (pos);
	  CREATE MATERIALIZED VIEW matseq AS
	    SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS val
	    FROM seq;
	`
	if _, err := db.ExecAllContext(ctx, script); err != nil {
		log.Fatal(err)
	}
	// This query's window (3,1) differs from the view's (2,1); the engine
	// answers it from the view with the sequence algebra (MinOA, §5).
	res, err := db.QueryContext(ctx, `SELECT pos, SUM(val) OVER (ORDER BY pos
	  ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS w FROM seq ORDER BY pos`)
	if err != nil {
		log.Fatal(err)
	}
	if res.Derivation != nil {
		fmt.Printf("answered from view %q via %s (Δl=%d, Δh=%d, W_x=%d)\n",
			res.Derivation.View.Name, res.Derivation.Plan.Source.Algo,
			res.Derivation.DeltaL, res.Derivation.DeltaH, res.Derivation.Wx)
	}
	for _, row := range res.Rows {
		fmt.Printf("  pos=%2v  w=%v\n", row[0], row[1])
	}
}
