package storage

import (
	"fmt"

	"rfview/internal/sqltypes"
)

// pageCols is the one decoded form of a resident page: its first n records
// decoded once into typed column vectors, column c of slot s at position s
// of vecs[c]. The vectors are lossless — NaN and -0.0 bit for bit, a column
// that mixes types on the page held boxed — so every read of the page, row
// or batch, is served from them. Every record of a page has its table's
// width; a record of another width is a decode error.
//
// A pageCols is immutable once built. A page appended to after its columns
// were cached gets a new pageCols covering the longer prefix, with the old
// vectors copied, so readers still holding the old one are undisturbed.
type pageCols struct {
	n     int
	vecs  []sqltypes.ColVec
	bytes int64 // MemSize estimate, what the buffer pool charges the budget
}

// decodePageCols decodes records 0…n-1 of the page in buf into vectors
// sized once for n records, reusing the decode of prev's prefix when prev is
// non-nil.
func decodePageCols(buf []byte, n int, prev *pageCols) (*pageCols, error) {
	pc := &pageCols{}
	if prev != nil {
		pc.n = prev.n
		pc.vecs = make([]sqltypes.ColVec, len(prev.vecs))
		for c := range pc.vecs {
			pc.vecs[c].Reset(n)
			pc.vecs[c].AppendSel(&prev.vecs[c], nil)
		}
	}
	for s := pc.n; s < n; s++ {
		rec, err := pageRecord(buf, uint16(s))
		if err != nil {
			return nil, err
		}
		if err := pc.decode(rec, n); err != nil {
			return nil, err
		}
	}
	pc.bytes = pc.memSize()
	return pc, nil
}

// decode appends rec as the next record, through sqltypes.AppendRecord
// straight into the typed vectors. The first record fixes the width and
// sizes every vector for hint records, reusing the vectors an iterator's
// run columns held for an earlier run (see Iter.decodeRun).
func (pc *pageCols) decode(rec []byte, hint int) error {
	if pc.n == 0 {
		if w := sqltypes.RowWidth(rec); len(pc.vecs) != w {
			pc.vecs = make([]sqltypes.ColVec, w)
		}
		for c := range pc.vecs {
			pc.vecs[c].Reset(hint)
		}
	}
	if err := sqltypes.AppendRecord(pc.vecs, rec); err != nil {
		return fmt.Errorf("storage: record %d: %w", pc.n, err)
	}
	pc.n++
	return nil
}

func (pc *pageCols) memSize() int64 {
	n := int64(48)
	for c := range pc.vecs {
		n += pc.vecs[c].MemSize()
	}
	return n
}

// row materializes the record at slot s.
func (pc *pageCols) row(s int) sqltypes.Row {
	row := make(sqltypes.Row, len(pc.vecs))
	for c := range row {
		row[c] = pc.vecs[c].Datum(s)
	}
	return row
}

// gather fills b with the requested columns of the records at slots pos,
// which are ascending when inOrder is set, as a heap-order run's are.
func (pc *pageCols) gather(cols, pos []int, inOrder bool, b *sqltypes.Batch) {
	b.N, b.Sel = len(pos), nil
	sel := pos
	if inOrder && len(pos) == pc.n {
		sel = nil // every decoded record, in order
	}
	width := 0
	for _, c := range cols {
		width = max(width, c+1)
	}
	if len(b.Cols) < width {
		b.Cols = append(b.Cols, make([]sqltypes.ColVec, width-len(b.Cols))...)
	}
	for _, c := range cols {
		v := &b.Cols[c]
		v.Reset(len(pos))
		v.AppendSel(&pc.vecs[c], sel)
	}
}
