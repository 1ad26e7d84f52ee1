package rfview_test

import (
	"math"
	"strings"
	"testing"

	"rfview"
)

// TestFacadeSQL exercises the public DB surface end to end.
func TestFacadeSQL(t *testing.T) {
	db := rfview.OpenDefault()
	if _, err := db.ExecAll(`
	  CREATE TABLE seq (pos INTEGER, val INTEGER);
	  INSERT INTO seq VALUES (1,1),(2,2),(3,3),(4,4),(5,5);
	  CREATE MATERIALIZED VIEW mv AS
	    SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS val FROM seq;
	`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT pos, SUM(val) OVER (ORDER BY pos
	  ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS w FROM seq ORDER BY pos`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Derivation == nil {
		t.Fatal("expected the view to answer the query")
	}
	if got := res.Rewritten(); !strings.HasPrefix(got, "DERIVE pos, w AS SUM (2,1) FROM mv (1,1) BY ") {
		t.Fatalf("Rewritten() = %q", got)
	}
	want := []int64{3, 6, 10, 14, 12}
	for i, r := range res.Rows {
		if r[1].Float() != float64(want[i]) {
			t.Fatalf("row %d = %v, want %d", i, r, want[i])
		}
	}
	if db.Engine() == nil {
		t.Fatal("Engine() must expose the engine")
	}
}

// TestFacadeAlgebra exercises the re-exported sequence algebra.
func TestFacadeAlgebra(t *testing.T) {
	raw := []float64{5, 1, 4, 2, 8, 3, 9, 7}
	x, err := rfview.SeqCompute(raw, rfview.Sliding(2, 1), rfview.Sum)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := rfview.SeqComputeNaive(raw, rfview.Sliding(2, 1), rfview.Sum)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= len(raw); k++ {
		if x.At(k) != naive.At(k) {
			t.Fatalf("pipelined != naive at %d", k)
		}
	}
	for _, derive := range []func(*rfview.Sequence, rfview.Window) (*rfview.Sequence, error){
		rfview.SeqDerive, rfview.SeqMaxOA, rfview.SeqMinOA,
	} {
		y, err := derive(x, rfview.Sliding(3, 2))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := rfview.SeqComputeNaive(raw, rfview.Sliding(3, 2), rfview.Sum)
		for k := 1; k <= len(raw); k++ {
			if math.Abs(y.At(k)-want.At(k)) > 1e-9 {
				t.Fatalf("derived != recomputed at %d", k)
			}
		}
	}
	back, err := rfview.SeqReconstructRaw(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		if math.Abs(back[i]-raw[i]) > 1e-9 {
			t.Fatalf("raw reconstruction at %d", i)
		}
	}
	m, err := rfview.NewMaintainer(raw, rfview.Sliding(1, 1), rfview.Sum)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Update(3, 100); err != nil {
		t.Fatal(err)
	}
	if m.Seq().At(3) != 1+100+2 {
		t.Fatalf("maintained value = %v", m.Seq().At(3))
	}
}

// TestFacadeReporting exercises the §6 reporting-sequence exports.
func TestFacadeReporting(t *testing.T) {
	pf, err := rfview.NewPosFunc(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	parts := map[rfview.PartitionKey][]float64{
		"jan": {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		"feb": {2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
	}
	rs, err := rfview.NewReportingSequence(pf, rfview.Sliding(2, 1), rfview.Sum, parts)
	if err != nil {
		t.Fatal(err)
	}
	red, err := rfview.OrderingReduction(rs, 1, rfview.Sliding(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	// jan blocks: 1+2+3+4=10, 5+6+7+8=26, 9+10+11+12=42; (1,0) windows:
	// 10, 36, 68.
	for b, want := range map[int]float64{1: 10, 2: 36, 3: 68} {
		got, ok := red.At("jan", b)
		if !ok || got != want {
			t.Fatalf("block %d = (%v,%v), want %v", b, got, ok, want)
		}
	}
	merged, err := rfview.PartitioningReduction(rs, rfview.PartitionMerge{"q1": {"jan", "feb"}}, rfview.Sliding(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Position 13 in the merged partition is feb's first value; its window
	// spans jan's tail: 11 + 12 + 2 + 2 = 27.
	got, ok := merged.At("q1", 13)
	if !ok || got != 27 {
		t.Fatalf("merged at 13 = (%v,%v), want 27", got, ok)
	}
}
