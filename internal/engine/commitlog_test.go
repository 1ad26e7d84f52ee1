package engine

import (
	"math"
	"sort"
	"strings"
	"testing"

	"rfview/internal/sqltypes"
	"rfview/internal/txn"
)

// encodeSorted renders a result as sorted memcomparable-encoded rows; two
// results encode equal iff they are bit-identical up to row order.
func encodeSorted(res *Result) string {
	lines := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		lines[i] = string(sqltypes.EncodeRowData(nil, r))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\x00")
}

// TestCommitRecordRoundTrip pins the codec: a delta list survives
// encode/decode bit-exactly, including the values SQL comparison semantics
// would mangle — negative-zero and NaN floats, empty vs absent strings,
// NULLs, and dates.
func TestCommitRecordRoundTrip(t *testing.T) {
	deltas := []txn.Delta{
		{
			Table: "t1", Kind: txn.DeltaInsert, Cols: []string{"a", "b", "c", "d", "e"},
			Rows: []sqltypes.Row{
				{sqltypes.NewInt(-7), sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.NewString(""), sqltypes.NullDatum, sqltypes.NewBool(true)},
				{sqltypes.NewInt(1 << 62), sqltypes.NewFloat(math.NaN()), sqltypes.NewString("x\ny\x00z"), sqltypes.NewDate(19000), sqltypes.NewBool(false)},
				{sqltypes.NewInt(math.MinInt64), sqltypes.NewFloat(math.Inf(-1)), sqltypes.NullDatum, sqltypes.NewDate(-719162), sqltypes.NullDatum},
				{sqltypes.NewInt(math.MaxInt64), sqltypes.NewFloat(0x1p63), sqltypes.NewString(""), sqltypes.NullDatum, sqltypes.NewBool(true)},
			},
		},
		{
			Table: "t2", Kind: txn.DeltaUpdate, Cols: []string{"a"},
			Before: []sqltypes.Row{{sqltypes.NewFloat(math.Float64frombits(0x7ff8_0000_dead_beef))}, {sqltypes.NewFloat(-0x1p63)}},
			After:  []sqltypes.Row{{sqltypes.NewFloat(math.Inf(1))}, {sqltypes.NewFloat(2.5)}},
		},
		{
			Table: "t2", Kind: txn.DeltaDelete, Cols: []string{"a"},
			Rows: []sqltypes.Row{{sqltypes.NewString("gone")}},
		},
	}
	rec, err := encodeCommitRecord(deltas)
	if err != nil {
		t.Fatal(err)
	}
	if !IsCommitRecord(rec) {
		t.Fatalf("encoded record not recognized: %q", rec)
	}
	if strings.ContainsAny(rec, "\n") {
		t.Fatalf("record contains a newline; it would corrupt the line-oriented log: %q", rec)
	}
	got, err := decodeCommitRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(deltas) {
		t.Fatalf("got %d deltas, want %d", len(got), len(deltas))
	}
	for i, d := range deltas {
		g := got[i]
		if g.Table != d.Table || g.Kind != d.Kind {
			t.Fatalf("delta %d header mismatch: got %+v", i, g)
		}
		check := func(name string, want, have []sqltypes.Row) {
			if len(want) != len(have) {
				t.Fatalf("delta %d %s: %d rows, want %d", i, name, len(have), len(want))
			}
			for r := range want {
				if !rowIdentical(want[r], have[r]) {
					t.Fatalf("delta %d %s row %d: got %v, want %v", i, name, r, have[r], want[r])
				}
			}
		}
		check("rows", d.Rows, g.Rows)
		check("before", d.Before, g.Before)
		check("after", d.After, g.After)
	}

	// A SQL statement must never be mistaken for a commit record.
	for _, sql := range []string{"SELECT 1", "INSERT INTO t VALUES (1)", "-- comment", ""} {
		if IsCommitRecord(sql) {
			t.Fatalf("%q misclassified as commit record", sql)
		}
	}
	for _, bad := range []string{
		CommitFormat + " {not json",
		CommitFormat + ` [{"table":"t","kind":0,"rows":"BQIG"}]`, // a row list cut short
	} {
		if _, err := decodeCommitRecord(bad); err == nil {
			t.Fatalf("corrupt payload %q decoded without error", bad)
		}
	}
}

// TestApplyCommitRecord replays an encoded transaction into a fresh engine
// and checks the effects land exactly once.
func TestApplyCommitRecord(t *testing.T) {
	build := func() *Engine {
		e := newEngine(t)
		mustExec(t, e, "CREATE TABLE seq (pos INTEGER, val INTEGER)")
		mustExec(t, e, "INSERT INTO seq VALUES (1, 1), (2, 2), (3, 3)")
		return e
	}

	// Run a transaction on one engine and capture its commit record.
	src := build()
	var rec string
	srcSess := src.NewSession()
	mustSess(t, srcSess, "BEGIN")
	mustSess(t, srcSess, "INSERT INTO seq VALUES (4, 4)")
	mustSess(t, srcSess, "UPDATE seq SET val = 20 WHERE pos = 2")
	mustSess(t, srcSess, "DELETE FROM seq WHERE pos = 3")
	tx := srcSess.tx
	rec, err := encodeCommitRecord(tx.Deltas)
	if err != nil {
		t.Fatal(err)
	}
	mustSess(t, srcSess, "COMMIT")

	// Replay it into a second engine that saw only the initial load.
	dst := build()
	if err := dst.ApplyCommitRecord(rec); err != nil {
		t.Fatal(err)
	}
	want := encodeSorted(mustExec(t, src, "SELECT pos, val FROM seq"))
	got := encodeSorted(mustExec(t, dst, "SELECT pos, val FROM seq"))
	if got != want {
		t.Fatalf("replayed state diverged\n got: %q\nwant: %q", got, want)
	}

	// Replay against an engine missing the update target must fail cleanly
	// and leave nothing half-applied.
	third := New(DefaultOptions())
	mustExec(t, third, "CREATE TABLE seq (pos INTEGER, val INTEGER)")
	mustExec(t, third, "INSERT INTO seq VALUES (1, 1)") // pos 2 and 3 absent
	if err := third.ApplyCommitRecord(rec); err == nil {
		t.Fatal("replay against divergent state should fail")
	}
	res := mustExec(t, third, "SELECT COUNT(*) AS c FROM seq")
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("failed replay leaked rows: COUNT = %d, want 1", res.Rows[0][0].Int())
	}
}

// TestCommitRecordEarlierForm: a record in the form the log held before
// commit records carried rows in the row codec — JSON datums behind the v1
// marker — is still a commit record, never SQL, but does not decode: the
// error names the format found.
func TestCommitRecordEarlierForm(t *testing.T) {
	const rec = `--txn-commit:v1 [{"table":"t","kind":0,"cols":["a"],"rows":[[{"t":2,"i":-7}]]}]`
	if !IsCommitRecord(rec) {
		t.Fatal("a v1 commit record is not recognized as a commit record")
	}
	if _, err := decodeCommitRecord(rec); err == nil || !strings.Contains(err.Error(), `"--txn-commit:v1"`) {
		t.Fatalf("a v1 commit record decoded: %v", err)
	}
}
