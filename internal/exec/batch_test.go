package exec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rfview/internal/catalog"
	"rfview/internal/expr"
	"rfview/internal/spill"
	"rfview/internal/sqltypes"
	"rfview/internal/storage"
	"rfview/internal/txn"
)

// rowsOnly hides an operator's batches, so the operators above it take the
// row path.
type rowsOnly struct{ Operator }

// batchArg is one shape of the argument column v the batch differential
// test draws.
type batchArg struct {
	name string
	typ  sqltypes.Type
	gen  func(rng *rand.Rand) sqltypes.Datum
	// model: the reference model defines the window values — every shape
	// but the NaN one, whose MIN/MAX under Compare depend on arrival order.
	model bool
}

func batchArgs() []batchArg {
	return []batchArg{
		{"int", sqltypes.Int, func(rng *rand.Rand) sqltypes.Datum { return sqltypes.NewInt(int64(rng.Intn(21) - 10)) }, true},
		{"int-null", sqltypes.Int, func(rng *rand.Rand) sqltypes.Datum {
			if rng.Intn(5) == 0 {
				return sqltypes.NullDatum
			}
			return sqltypes.NewInt(int64(rng.Intn(21) - 10))
		}, true},
		{"float-zero-nan", sqltypes.Float, func(rng *rand.Rand) sqltypes.Datum {
			return sqltypes.NewFloat([]float64{math.Copysign(0, -1), 0, 2.5, -1.5, 3, math.NaN()}[rng.Intn(6)])
		}, false},
		{"int-float-mix", sqltypes.Float, func(rng *rand.Rand) sqltypes.Datum {
			if rng.Intn(2) == 0 {
				return sqltypes.NewInt(int64(rng.Intn(7) - 3))
			}
			return sqltypes.NewFloat(float64(rng.Intn(13)-6) / 2)
		}, true},
	}
}

// batchPreds are the WHERE clauses over (p, k, k2, v, pad): every comparison
// operator against a NULL, an INTEGER and a FLOAT constant, AND-chains of
// them in either operand order, a predicate only Eval decides, and one whose
// constant no numeric column compares with.
func batchPreds() []string {
	var preds []string
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		for _, c := range []string{"NULL", "3", "2.5"} {
			preds = append(preds, "v "+op+" "+c)
		}
	}
	return append(preds, "2 < v AND k2 >= 1", "v >= 0 AND k2 <> 0 AND v <= 2.5", "v IS NULL OR k2 = 0", "v = 'x'")
}

// encodeRows is a bit-exact rendering of a result for comparisons: NaN
// payloads and signed zeros included.
func encodeRows(rows []sqltypes.Row) []byte {
	var b []byte
	for _, r := range rows {
		b = sqltypes.EncodeRowData(b, r)
	}
	return b
}

// TestBatchPathAgainstRowPathAndReferenceModel drives Window ← Filter ← Scan
// over a paged table on its batch path — page columns cached in the buffer
// pool, typed selections, batches drained into the window's vectors — and
// over the same scan with its batches hidden, the row path every other
// consumer takes. The two must agree bit for bit, make the same path
// decisions, and agree with the reference model (refExpected) over a shadow
// of the table. The draws cover NULLs; NaN and ±0 in keys and arguments,
// which sort typed like any other FLOAT; an INTEGER/FLOAT mix, which the
// page column holds boxed and the sort orders by two words; VARCHAR keys,
// which sort encoded; jumbo rows; a page
// appended to after its columns were cached; deleted and updated versions
// read at an older snapshot; and every comparison operator against NULL,
// INTEGER and FLOAT constants.
func TestBatchPathAgainstRowPathAndReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	wins, aggs, frames := refFuncs()
	for _, sc := range refScenarios() {
		for _, arg := range batchArgs() {
			t.Run(sc.name+"/"+arg.name, func(t *testing.T) {
				pager := storage.NewPager(storage.PagerConfig{PageSize: storage.MinPageSize, Env: spill.NewEnv(t.TempDir())})
				t.Cleanup(func() { pager.Close() })
				tbl, err := catalog.New(pager).CreateTable("t", []catalog.Column{
					{Name: "p", Type: sqltypes.Int}, {Name: "k", Type: sc.ktyp}, {Name: "k2", Type: sqltypes.Int},
					{Name: "v", Type: arg.typ}, {Name: "pad", Type: sqltypes.String},
				})
				if err != nil {
					t.Fatal(err)
				}
				heap := tbl.Heap
				// The shadow lists the visible versions in row-id order, which
				// is the order every scan returns them in.
				type version struct {
					id  storage.RowID
					row sqltypes.Row
				}
				var shadow []version
				insert := func(n int) {
					for i := 0; i < n; i++ {
						part := rng.Intn(4)
						p := sqltypes.NewInt(int64(part) * 1000)
						if part == 1 {
							p = sqltypes.NullDatum
						}
						pad := ""
						if rng.Intn(40) == 0 {
							pad = strings.Repeat("j", storage.MinPageSize+rng.Intn(300)) // a jumbo row
						}
						row := sqltypes.Row{p, sc.gen(rng, part), sqltypes.NewInt(int64(rng.Intn(4))), arg.gen(rng), sqltypes.NewString(pad)}
						commitWrite(t, heap, func(tx *txn.Txn) error {
							id, err := heap.InsertTx(tx, row)
							shadow = append(shadow, version{id, row})
							return err
						})
					}
				}
				insert(120 + rng.Intn(60))
				// Cache the columns of every page, the tail included, then
				// append to it and rewrite history behind an older snapshot.
				if _, err := Collect(NewScan(tbl, "t")); err != nil {
					t.Fatal(err)
				}
				older, olderShadow := heap.Latest(), slices.Clone(shadow)
				insert(60 + rng.Intn(60))
				for i := 0; i < 25; i++ {
					j := rng.Intn(len(shadow))
					if rng.Intn(2) == 0 {
						commitWrite(t, heap, func(tx *txn.Txn) error { return heap.DeleteTx(tx, shadow[j].id) })
						shadow = slices.Delete(shadow, j, j+1)
						continue
					}
					row := shadow[j].row.Clone()
					row[3] = arg.gen(rng)
					commitWrite(t, heap, func(tx *txn.Txn) error {
						id, err := heap.UpdateTx(tx, shadow[j].id, row)
						shadow = append(slices.Delete(shadow, j, j+1), version{id, row})
						return err
					})
				}

				for _, at := range []struct {
					name string
					snap txn.Snapshot
					rows []version
				}{{"latest", heap.Latest(), shadow}, {"older", older, olderShadow}} {
					scan := func() *Scan {
						s := NewScan(tbl, "t")
						s.Snap = func() txn.Snapshot { return at.snap }
						return s
					}
					schema := scan().Schema()
					col := func(src string) expr.Expr { return mustCompile(t, src, schema) }
					for pi, src := range batchPreds() {
						pred := col(src)
						var kept []sqltypes.Row
						var predErr error
						for _, v := range at.rows {
							d, err := pred.Eval(v.row)
							if err != nil {
								predErr = err
								break
							}
							if expr.Truthy(d) {
								kept = append(kept, v.row)
							}
						}
						label := fmt.Sprintf("%s snapshot, WHERE %s", at.name, src)

						// The filter alone, read as rows: what Ordinal and every
						// other row consumer above a filtered scan see.
						batchFilter := &Filter{Input: scan(), Pred: pred}
						got, err := Collect(batchFilter)
						if (err != nil) != (predErr != nil) {
							t.Fatalf("%s: filter error %v, row evaluation says %v", label, err, predErr)
						}
						if predErr != nil {
							continue
						}
						if !bytes.Equal(encodeRows(got), encodeRows(kept)) {
							t.Fatalf("%s: filter returned %d rows, the shadow keeps %d (or their values differ)", label, len(got), len(kept))
						}

						funcs := make([]WindowFunc, len(wins))
						for f := range funcs {
							funcs[f] = WindowFunc{Name: aggs[f].String(), Arg: col("v"), Frame: frames[f], OutName: fmt.Sprintf("w%d", f)}
						}
						key := SortKey{Expr: col("k"), Desc: pi%2 == 1, Nulls: NullsPlacement(pi % 3)}
						ob, specs := []SortKey{key}, []refSpec{{1, key.Desc, key.nullsLast()}}
						if pi%4 >= 2 {
							ob, specs = append(ob, SortKey{Expr: col("k2"), Desc: true}), append(specs, refSpec{2, true, true})
						}
						run := func(input Operator) ([]sqltypes.Row, *WindowStats) {
							w := NewWindow(&Filter{Input: input, Pred: pred}, []expr.Expr{col("p")}, ob, funcs)
							w.Stats = &WindowStats{}
							out, err := Collect(w)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							return out, w.Stats
						}
						batchScan := scan()
						batchRows, batchStats := run(batchScan)
						rowRows, rowStats := run(rowsOnly{scan()})
						if batchScan.batches == 0 && len(at.rows) > 0 {
							t.Fatalf("%s: the window read no batch", label)
						}
						if !bytes.Equal(encodeRows(batchRows), encodeRows(rowRows)) {
							t.Fatalf("%s: batch and row paths differ (%d and %d rows)", label, len(batchRows), len(rowRows))
						}
						for _, c := range []struct {
							name     string
							bat, row int64
						}{
							{"typed sorts", batchStats.TypedSorts.Load(), rowStats.TypedSorts.Load()},
							{"sorts", batchStats.NormalizedSorts.Load(), rowStats.NormalizedSorts.Load()},
						} {
							if c.bat != c.row {
								t.Fatalf("%s: %s %d on the batch path, %d on the row path", label, c.name, c.bat, c.row)
							}
						}
						// A NaN or a mixed key stays on the typed sort; a
						// VARCHAR key takes the encoded one.
						wantTyped := batchStats.NormalizedSorts.Load()
						if sc.ktyp == sqltypes.String {
							wantTyped = 0
						}
						if got := batchStats.TypedSorts.Load(); got != wantTyped {
							t.Fatalf("%s: %d of %d sorts typed, want %d", label,
								got, batchStats.NormalizedSorts.Load(), wantTyped)
						}
						if !batchFilter.vectorized && strings.Count(src, "'") == 0 && !strings.Contains(src, " OR ") &&
							arg.name != "int-float-mix" && len(got) > 0 {
							t.Fatalf("%s: the filter never decided a batch on typed vectors", label)
						}
						if !arg.model {
							continue
						}
						want := refExpected(t, kept, specs, refArg{val: func(row sqltypes.Row) *float64 {
							if row[3].IsNull() {
								return nil
							}
							f := row[3].Float()
							return &f
						}}, wins, aggs)
						for i, row := range batchRows {
							for f := range funcs {
								v, w := row[5+f], want[i][f]
								if v.IsNull() != (w == nil) || (w != nil && v.Float() != *w) {
									t.Fatalf("%s: row %d (%s) %s = %s, reference model says %v", label, i, kept[i], funcs[f], v, w)
								}
							}
						}
					}
				}
			})
		}
	}
}
