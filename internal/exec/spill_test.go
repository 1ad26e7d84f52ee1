package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	rferrors "rfview/errors"
	"rfview/internal/spill"
	"rfview/internal/sqltypes"
)

// spillCfg builds an enabled spill config with a tiny budget so every sort of
// more than a handful of rows goes external.
func spillCfg(t *testing.T, budget int64) *spill.Config {
	t.Helper()
	env := spill.NewEnv(t.TempDir())
	t.Cleanup(func() { env.Close() })
	return &spill.Config{Budget: spill.NewBudget(budget), Env: env, Stats: &spill.Stats{}, MinRunRows: 8}
}

// spillValue draws datums for the named column shape; "mixed" defeats the key
// encoding (Int/Float heterogeneous), the others are encodable.
func spillValue(rng *rand.Rand, shape string) sqltypes.Datum {
	if rng.Intn(5) == 0 {
		return sqltypes.NullDatum // NULL-heavy throughout
	}
	switch shape {
	case "int":
		return sqltypes.NewInt(int64(rng.Intn(40) - 20))
	case "float":
		return sqltypes.NewFloat(float64(rng.Intn(40)-20) / 4)
	case "string":
		return sqltypes.NewString(fmt.Sprintf("s%02d", rng.Intn(30)))
	default: // mixed
		if rng.Intn(2) == 0 {
			return sqltypes.NewInt(int64(rng.Intn(40) - 20))
		}
		return sqltypes.NewFloat(float64(rng.Intn(40)-20) / 4)
	}
}

// TestSortExternalMatchesInMemory: for encodable key shapes (NULL-heavy,
// ASC and DESC), a Sort forced external by a tiny budget returns exactly the
// rows of the untracked in-memory Sort, and releases its budget at Close.
func TestSortExternalMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	schema := pwSchema()
	for _, shape := range []string{"int", "float", "string"} {
		for _, desc := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/desc=%v", shape, desc), func(t *testing.T) {
				var rows []sqltypes.Row
				for i := 0; i < 400; i++ {
					rows = append(rows, sqltypes.Row{
						spillValue(rng, shape),
						sqltypes.NewInt(int64(i)),
						sqltypes.NewInt(int64(rng.Intn(100))),
					})
				}
				keys := []SortKey{{Expr: mustCompile(t, "grp", schema), Desc: desc}}
				want := mustCollect(t, &Sort{Input: valuesOp(schema, rows...), Keys: keys})
				cfg := spillCfg(t, 2<<10)
				ext := &Sort{Input: valuesOp(schema, rows...), Keys: keys, Spill: cfg}
				got := mustCollect(t, ext)
				requireSameRows(t, want, got, shape)
				if ext.spillRuns == 0 || ext.spillBytes == 0 {
					t.Fatalf("sort did not spill: runs=%d bytes=%d", ext.spillRuns, ext.spillBytes)
				}
				if used := cfg.Budget.Used(); used != 0 {
					t.Fatalf("%d budget bytes leaked after Close", used)
				}
			})
		}
	}
}

// TestSortExternalMixedKeys: an Int/Float-mixed key column encodes as two
// order words a value, so the sort spills it and answers what the in-memory
// sort answers.
func TestSortExternalMixedKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	schema := pwSchema()
	var rows []sqltypes.Row
	for i := 0; i < 300; i++ {
		rows = append(rows, sqltypes.Row{
			spillValue(rng, "mixed"),
			sqltypes.NewInt(int64(i)),
			sqltypes.NewInt(0),
		})
	}
	keys := []SortKey{{Expr: mustCompile(t, "grp", schema)}}
	want := mustCollect(t, &Sort{Input: valuesOp(schema, rows...), Keys: keys})
	cfg := spillCfg(t, 2<<10)
	ext := &Sort{Input: valuesOp(schema, rows...), Keys: keys, Spill: cfg}
	got := mustCollect(t, ext)
	requireSameRows(t, want, got, "mixed keys")
	if ext.spillRuns == 0 {
		t.Fatal("mixed keys did not spill")
	}
	if used := cfg.Budget.Used(); used != 0 {
		t.Fatalf("%d budget bytes leaked after Close", used)
	}
}

// TestSortExternalCancelled: cancelling the context fails the external sort
// with the engine's cancelled code and leaks no budget.
func TestSortExternalCancelled(t *testing.T) {
	schema := pwSchema()
	var rows []sqltypes.Row
	for i := 0; i < 2000; i++ {
		rows = append(rows, intRow(int64(i%7), int64(i), int64(i%13)))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cfg := spillCfg(t, 2<<10)
	s := &Sort{
		Input: valuesOp(schema, rows...),
		Keys:  []SortKey{{Expr: mustCompile(t, "pos", schema)}},
		Ctx:   ctx,
		Spill: cfg,
	}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	cancel()
	var err error
	for i := 0; i < len(rows); i++ {
		var row sqltypes.Row
		row, err = s.Next()
		if err != nil || row == nil {
			break
		}
	}
	if err == nil {
		t.Fatal("cancelled external sort drained cleanly")
	}
	if rferrors.CodeOf(err) != rferrors.CodeCancelled {
		t.Fatalf("want code %q, got %q (%v)", rferrors.CodeCancelled, rferrors.CodeOf(err), err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if used := cfg.Budget.Used(); used != 0 {
		t.Fatalf("%d budget bytes leaked after cancel", used)
	}
}

// TestSubRunInputSkipsSpillSorter: a Sort input of at most one minimum run
// can never flush, so it is ordered by the in-memory typed sort however small
// the budget; one row more and the sorter takes it and spills.
func TestSubRunInputSkipsSpillSorter(t *testing.T) {
	schema := pwSchema()
	keys := []SortKey{{Expr: mustCompile(t, "pos", schema)}}
	rowsN := func(n int) []sqltypes.Row {
		var rows []sqltypes.Row
		for i := 0; i < n; i++ {
			rows = append(rows, intRow(int64(i%2), int64(n-i), int64(i)))
		}
		return rows
	}
	cfg := spillCfg(t, 64)
	floor := cfg.MinRun()

	small := &Sort{Input: valuesOp(schema, rowsN(floor)...), Keys: keys, Spill: cfg}
	mustCollect(t, small)
	if !small.ran || small.path != sortTyped || small.spillRuns != 0 {
		t.Fatalf("%d-row sort: ran=%v path=%v runs=%d, want the in-memory typed sort",
			floor, small.ran, small.path, small.spillRuns)
	}
	big := &Sort{Input: valuesOp(schema, rowsN(floor+1)...), Keys: keys, Spill: cfg}
	mustCollect(t, big)
	if big.spillRuns == 0 {
		t.Fatalf("%d-row sort did not spill", floor+1)
	}
	if got := cfg.Stats.Runs.Load(); got != int64(big.spillRuns) {
		t.Fatalf("spill stats count %d runs, only the %d-row sort's %d expected", got, floor+1, big.spillRuns)
	}
	if used := cfg.Budget.Used(); used != 0 {
		t.Fatalf("%d budget bytes leaked", used)
	}
}
