package storage

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"rfview/internal/sqltypes"
)

// seedPage builds a page holding rows as records.
func seedPage(size int, rows ...sqltypes.Row) []byte {
	buf := make([]byte, size)
	initPage(buf)
	for _, r := range rows {
		if _, ok := pageAppend(buf, sqltypes.EncodeRowData(nil, r)); !ok {
			panic("seed page overflow")
		}
	}
	return buf
}

// FuzzPageColumns: for arbitrary page bytes and a record count, the columnar
// decode of the page either fails — exactly when some record fails
// DecodeRowData or has another width than the first — or holds, slot by
// slot, the rows DecodeRowData reads, bit for bit; decoding a prefix and
// extending it gives the same columns, and so does a batch of every column.
// It never panics.
func FuzzPageColumns(f *testing.F) {
	i, fl, s := sqltypes.NewInt, sqltypes.NewFloat, sqltypes.NewString
	null := sqltypes.NullDatum
	f.Add(seedPage(MinPageSize,
		sqltypes.Row{i(1), fl(2.5), s("a"), sqltypes.NewDate(11000)},
		sqltypes.Row{null, fl(math.NaN()), s(""), null},
		sqltypes.Row{i(-3), fl(math.Copysign(0, -1)), null, sqltypes.NewDate(-5)},
	), uint16(3))
	// A column mixing types, and NULL-led columns.
	f.Add(seedPage(MinPageSize,
		sqltypes.Row{null, i(7), null},
		sqltypes.Row{fl(1.5), i(8), sqltypes.NewBool(true)},
		sqltypes.Row{i(2), null, sqltypes.NewBool(false)},
		sqltypes.Row{s("x"), null, null},
	), uint16(4))
	// Records of two widths, which no table writes.
	f.Add(seedPage(MinPageSize, sqltypes.Row{i(1), i(2)}, sqltypes.Row{i(3)}), uint16(2))
	f.Add(seedPage(MinPageSize), uint16(1))
	f.Add([]byte{0x50, 0x52, 0xff, 0xff, 0, 0, 0, 0, 9, 0, 0, 0, 200, 0, 0, 0}, uint16(2))

	f.Fuzz(func(t *testing.T, buf []byte, n uint16) {
		count := int(n % 512)
		pc, err := decodePageCols(buf, count, nil)
		var want []sqltypes.Row
		for slot := 0; slot < count; slot++ {
			rec, rerr := pageRecord(buf, uint16(slot))
			if rerr == nil {
				var row sqltypes.Row
				if row, rerr = sqltypes.DecodeRowData(rec); rerr == nil {
					if slot == 0 || len(row) == len(want[0]) {
						want = append(want, row)
						continue
					}
					rerr = fmt.Errorf("%d columns, the first record %d", len(row), len(want[0]))
				}
			}
			if err == nil {
				t.Fatalf("slot %d fails to decode (%v) but the page columns decoded", slot, rerr)
			}
			return
		}
		if err != nil {
			t.Fatalf("every record decodes, but the page columns fail: %v", err)
		}
		pos := make([]int, count)
		for p := range pos {
			pos[p] = p
		}
		encode := func(rows []sqltypes.Row) []byte {
			var b []byte
			for _, r := range rows {
				b = sqltypes.EncodeRowData(b, r)
			}
			return b
		}
		if got := pc.rows(pos, nil); !bytes.Equal(encode(got), encode(want)) {
			t.Fatalf("page columns read back %v, DecodeRowData reads %v", got, want)
		}
		prev, err := decodePageCols(buf, count/2, nil)
		if err != nil {
			t.Fatalf("a prefix of a decodable page fails: %v", err)
		}
		ext, err := decodePageCols(buf, count, prev)
		if err != nil {
			t.Fatalf("extending a prefix fails: %v", err)
		}
		if got := ext.rows(pos, nil); !bytes.Equal(encode(got), encode(want)) {
			t.Fatalf("extended page columns read back %v, DecodeRowData reads %v", got, want)
		}
		cols := make([]int, len(pc.vecs))
		for c := range cols {
			cols[c] = c
		}
		var b sqltypes.Batch
		pc.gather(cols, pos, &b)
		for j, row := range sqltypes.AppendRows(nil, b.Cols, len(cols), b.Positions()) {
			if !bytes.Equal(sqltypes.EncodeRowData(nil, row), sqltypes.EncodeRowData(nil, want[j])) {
				t.Fatalf("batch row %d = %v, DecodeRowData reads %v", j, row, want[j])
			}
		}
	})
}
