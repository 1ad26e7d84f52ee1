package engine

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"rfview/internal/sqltypes"
	"rfview/internal/storage"
	"rfview/internal/txn"
)

// Commit records are how transactions reach the write-ahead log. Individual
// DML statements are never logged as SQL: a transaction's effects hit the log
// as one record, at commit, so recovery replays exactly the committed work —
// a transaction killed mid-flight left nothing in the log and is invisible
// after replay. The record rides the existing SQL-record transport, prefixed
// with a marker no parsable statement can start with; the payload is the
// transaction's delta list, values encoded bit-exactly (floats travel as
// their IEEE-754 bit patterns, like the snapshot codec, so replayed rows are
// byte-identical to the originals).

// commitMarker prefixes every commit record in the log.
const commitMarker = "--txn-commit:v1 "

// IsCommitRecord reports whether a logged record is a transaction commit
// record rather than a SQL statement.
func IsCommitRecord(sql string) bool { return strings.HasPrefix(sql, commitMarker) }

// logDatum is one value inside a commit record. T is the sqltypes.Type; Bool,
// Int, and Date ride in I; Float rides in F as raw bits; String rides in S.
type logDatum struct {
	T uint8   `json:"t"`
	I int64   `json:"i,omitempty"`
	F uint64  `json:"f,omitempty"`
	S *string `json:"s,omitempty"`
}

// logDelta is one table's worth of a transaction's effects.
type logDelta struct {
	Table  string       `json:"table"`
	Kind   int          `json:"kind"` // txn.DeltaKind
	Cols   []string     `json:"cols,omitempty"`
	Rows   [][]logDatum `json:"rows,omitempty"`
	Before [][]logDatum `json:"before,omitempty"`
	After  [][]logDatum `json:"after,omitempty"`
}

func encodeDatum(d sqltypes.Datum) logDatum {
	switch d.Typ() {
	case sqltypes.Bool:
		var i int64
		if d.Bool() {
			i = 1
		}
		return logDatum{T: uint8(sqltypes.Bool), I: i}
	case sqltypes.Int, sqltypes.Date:
		return logDatum{T: uint8(d.Typ()), I: d.Int()}
	case sqltypes.Float:
		return logDatum{T: uint8(sqltypes.Float), F: math.Float64bits(d.Float())}
	case sqltypes.String:
		s := d.Str()
		return logDatum{T: uint8(sqltypes.String), S: &s}
	default:
		return logDatum{T: uint8(sqltypes.Null)}
	}
}

func decodeDatum(ld logDatum) sqltypes.Datum {
	switch sqltypes.Type(ld.T) {
	case sqltypes.Bool:
		return sqltypes.NewBool(ld.I != 0)
	case sqltypes.Int:
		return sqltypes.NewInt(ld.I)
	case sqltypes.Date:
		return sqltypes.NewDate(ld.I)
	case sqltypes.Float:
		return sqltypes.NewFloat(math.Float64frombits(ld.F))
	case sqltypes.String:
		var s string
		if ld.S != nil {
			s = *ld.S
		}
		return sqltypes.NewString(s)
	default:
		return sqltypes.NullDatum
	}
}

func encodeRows(rows []sqltypes.Row) [][]logDatum {
	if rows == nil {
		return nil
	}
	out := make([][]logDatum, len(rows))
	for i, r := range rows {
		enc := make([]logDatum, len(r))
		for j, d := range r {
			enc[j] = encodeDatum(d)
		}
		out[i] = enc
	}
	return out
}

func decodeRows(enc [][]logDatum) []sqltypes.Row {
	if enc == nil {
		return nil
	}
	out := make([]sqltypes.Row, len(enc))
	for i, r := range enc {
		row := make(sqltypes.Row, len(r))
		for j, ld := range r {
			row[j] = decodeDatum(ld)
		}
		out[i] = row
	}
	return out
}

// encodeCommitRecord renders a transaction's deltas as one log record.
func encodeCommitRecord(deltas []txn.Delta) (string, error) {
	enc := make([]logDelta, len(deltas))
	for i, d := range deltas {
		enc[i] = logDelta{
			Table:  d.Table,
			Kind:   int(d.Kind),
			Cols:   d.Cols,
			Rows:   encodeRows(d.Rows),
			Before: encodeRows(d.Before),
			After:  encodeRows(d.After),
		}
	}
	payload, err := json.Marshal(enc)
	if err != nil {
		return "", fmt.Errorf("encode commit record: %w", err)
	}
	return commitMarker + string(payload), nil
}

func decodeCommitRecord(sql string) ([]txn.Delta, error) {
	if !IsCommitRecord(sql) {
		return nil, fmt.Errorf("not a commit record")
	}
	var enc []logDelta
	if err := json.Unmarshal([]byte(strings.TrimPrefix(sql, commitMarker)), &enc); err != nil {
		return nil, fmt.Errorf("decode commit record: %w", err)
	}
	out := make([]txn.Delta, len(enc))
	for i, d := range enc {
		out[i] = txn.Delta{
			Table:  d.Table,
			Kind:   txn.DeltaKind(d.Kind),
			Cols:   d.Cols,
			Rows:   decodeRows(d.Rows),
			Before: decodeRows(d.Before),
			After:  decodeRows(d.After),
		}
	}
	return out, nil
}

// datumIdentical is bit-exact equality: the replay locator must match the
// logged before-image byte for byte, not by SQL comparison semantics (which
// would conflate 1 and 1.0, or error on cross-type rows).
func datumIdentical(a, b sqltypes.Datum) bool {
	if a.Typ() != b.Typ() {
		return false
	}
	switch a.Typ() {
	case sqltypes.Null:
		return true
	case sqltypes.Float:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case sqltypes.String:
		return a.Str() == b.Str()
	default:
		return a.Int() == b.Int()
	}
}

func rowIdentical(a, b sqltypes.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !datumIdentical(a[i], b[i]) {
			return false
		}
	}
	return true
}

// ApplyCommitRecord re-applies one logged commit record during recovery. The
// record's deltas replay inside a fresh internal transaction — committed as
// a unit, exactly like the original — with view maintenance folding in at
// commit just as it did the first time. Updates and deletes locate their
// target rows by before-image (row ids do not survive a snapshot/replay
// cycle); the locate scan runs at the transaction's own write view so later
// deltas in the same record see earlier ones.
func (e *Engine) ApplyCommitRecord(sql string) error {
	deltas, err := decodeCommitRecord(sql)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	tx := e.newTxn()
	fail := func(err error) error {
		tx.Abort()
		e.txnRollbacks.Add(1)
		return err
	}
	for _, d := range deltas {
		tbl, err := e.Cat.Table(d.Table)
		if err != nil {
			return fail(fmt.Errorf("replay commit record: %w", err))
		}
		locate := func(image sqltypes.Row) (uint64, bool) {
			var id uint64
			found := false
			// A heap IO failure here reads as "not found"; the caller turns
			// that into a replay error, which is the right failure mode.
			_ = tbl.Heap.ScanAt(tbl.Heap.WriteView(tx), func(rid storage.RowID, row sqltypes.Row) bool {
				if rowIdentical(row, image) {
					id, found = uint64(rid), true
					return false
				}
				return true
			})
			return id, found
		}
		switch d.Kind {
		case txn.DeltaInsert:
			for _, row := range d.Rows {
				if _, err := tbl.Heap.InsertTx(tx, row); err != nil {
					return fail(fmt.Errorf("replay commit record: %w", err))
				}
			}
		case txn.DeltaUpdate:
			for i, before := range d.Before {
				id, ok := locate(before)
				if !ok {
					return fail(fmt.Errorf("replay commit record: %s: update target row not found", d.Table))
				}
				if _, err := tbl.Heap.UpdateTx(tx, storage.RowID(id), d.After[i]); err != nil {
					return fail(fmt.Errorf("replay commit record: %w", err))
				}
			}
		case txn.DeltaDelete:
			for _, image := range d.Rows {
				id, ok := locate(image)
				if !ok {
					return fail(fmt.Errorf("replay commit record: %s: delete target row not found", d.Table))
				}
				if err := tbl.Heap.DeleteTx(tx, storage.RowID(id)); err != nil {
					return fail(fmt.Errorf("replay commit record: %w", err))
				}
			}
		default:
			return fail(fmt.Errorf("replay commit record: unknown delta kind %d", d.Kind))
		}
		tx.AddDelta(d)
	}
	return e.commitTxnLocked(tx, false, nil)
}
