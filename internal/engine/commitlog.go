package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"rfview/internal/sqltypes"
	"rfview/internal/storage"
	"rfview/internal/txn"
)

// Commit records are how transactions reach the write-ahead log. Individual
// DML statements are never logged as SQL: a transaction's effects hit the log
// as one record, at commit, so recovery replays exactly the committed work —
// a transaction killed mid-flight left nothing in the log and is invisible
// after replay. The record rides the SQL-record transport, opened by
// CommitFormat and a space, which no parsable statement can start with. The
// payload is the transaction's delta list as JSON, each row list a byte
// field in the heap's row codec (sqltypes.EncodeRows), so replayed rows are
// bit-identical to the originals.

// CommitFormat opens every commit record this engine writes, and is the only
// commit-record format it replays; an earlier format differs in its version.
const CommitFormat = "--txn-commit:v2"

// IsCommitRecord reports whether a logged record is a transaction commit
// record, of this format or an earlier one, rather than a SQL statement.
func IsCommitRecord(sql string) bool { return strings.HasPrefix(sql, "--txn-commit:") }

// logDelta is one table's worth of a transaction's effects.
type logDelta struct {
	Table  string   `json:"table"`
	Kind   int      `json:"kind"` // txn.DeltaKind
	Cols   []string `json:"cols,omitempty"`
	Rows   []byte   `json:"rows,omitempty"`
	Before []byte   `json:"before,omitempty"`
	After  []byte   `json:"after,omitempty"`
}

// encodeCommitRecord renders a transaction's deltas as one log record.
func encodeCommitRecord(deltas []txn.Delta) (string, error) {
	enc := make([]logDelta, len(deltas))
	for i, d := range deltas {
		enc[i] = logDelta{
			Table:  d.Table,
			Kind:   int(d.Kind),
			Cols:   d.Cols,
			Rows:   sqltypes.EncodeRows(nil, d.Rows...),
			Before: sqltypes.EncodeRows(nil, d.Before...),
			After:  sqltypes.EncodeRows(nil, d.After...),
		}
	}
	payload, err := json.Marshal(enc)
	if err != nil {
		return "", fmt.Errorf("encode commit record: %w", err)
	}
	return CommitFormat + " " + string(payload), nil
}

func decodeCommitRecord(sql string) ([]txn.Delta, error) {
	format, payload, _ := strings.Cut(sql, " ")
	if format != CommitFormat {
		return nil, fmt.Errorf("commit record format %q, want %q", format, CommitFormat)
	}
	var enc []logDelta
	if err := json.Unmarshal([]byte(payload), &enc); err != nil {
		return nil, fmt.Errorf("decode commit record: %w", err)
	}
	out := make([]txn.Delta, len(enc))
	for i, d := range enc {
		rows, err1 := sqltypes.DecodeRows(d.Rows)
		before, err2 := sqltypes.DecodeRows(d.Before)
		after, err3 := sqltypes.DecodeRows(d.After)
		if err := errors.Join(err1, err2, err3); err != nil {
			return nil, fmt.Errorf("decode commit record: %s: %w", d.Table, err)
		}
		out[i] = txn.Delta{Table: d.Table, Kind: txn.DeltaKind(d.Kind), Cols: d.Cols, Rows: rows, Before: before, After: after}
	}
	return out, nil
}

// ApplyCommitRecord re-applies one logged commit record during recovery. The
// record's deltas replay inside a fresh internal transaction — committed as
// a unit, exactly like the original — with view maintenance folding in at
// commit just as it did the first time. Updates and deletes locate their
// target rows by before-image (row ids do not survive a snapshot/replay
// cycle), each delta's in one scan at the transaction's own write view so
// later deltas in the same record see earlier ones; an update then replays
// as the one statement it was.
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
		return fmt.Errorf("replay commit record: %w", err)
	}
	for _, d := range deltas {
		tbl, err := e.Cat.Table(d.Table)
		if err != nil {
			return fail(err)
		}
		switch d.Kind {
		case txn.DeltaInsert:
			for _, row := range d.Rows {
				if _, err := tbl.Heap.InsertTx(tx, row); err != nil {
					return fail(err)
				}
			}
		case txn.DeltaUpdate:
			ids, err := locate(tbl.Heap, tx, d.Before)
			if err == nil {
				_, err = tbl.Heap.UpdateRowsTx(tx, ids, d.After)
			}
			if err != nil {
				return fail(fmt.Errorf("%s: update: %w", d.Table, err))
			}
		case txn.DeltaDelete:
			ids, err := locate(tbl.Heap, tx, d.Rows)
			for i := 0; err == nil && i < len(ids); i++ {
				err = tbl.Heap.DeleteTx(tx, ids[i])
			}
			if err != nil {
				return fail(fmt.Errorf("%s: delete: %w", d.Table, err))
			}
		default:
			return fail(fmt.Errorf("unknown delta kind %d", d.Kind))
		}
		tx.AddDelta(d)
	}
	return e.commitTxnLocked(tx, false, nil)
}

// locate finds the rows of images in one scan of t at tx's write view:
// ids[i] is a row bit-identical to images[i] — equal encodings, so 1 and
// 1.0 differ and NaN matches itself — and identical images find distinct
// rows.
func locate(t *storage.Table, tx *txn.Txn, images []sqltypes.Row) ([]storage.RowID, error) {
	want := make(map[string][]int, len(images)) // encoding → images not yet found
	var buf []byte
	for i, img := range images {
		buf = sqltypes.EncodeRowData(buf[:0], img)
		want[string(buf)] = append(want[string(buf)], i)
	}
	ids, left := make([]storage.RowID, len(images)), len(images)
	err := t.ScanAt(t.WriteView(tx), func(id storage.RowID, row sqltypes.Row) bool {
		buf = sqltypes.EncodeRowData(buf[:0], row)
		if is := want[string(buf)]; len(is) > 0 {
			ids[is[0]], want[string(buf)] = id, is[1:]
			left--
		}
		return left > 0
	})
	if err == nil && left > 0 {
		err = fmt.Errorf("%d of %d target rows not found", left, len(images))
	}
	return ids, err
}
