package storage

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rfview/internal/sqltypes"
)

// seedPage builds a page holding rows as records.
func seedPage(size int, rows ...sqltypes.Row) []byte {
	recs := make([][]byte, len(rows))
	for j, r := range rows {
		recs[j] = sqltypes.EncodeRowData(nil, r)
	}
	return seedRecords(size, recs...)
}

// seedRecords builds a page holding the raw records recs.
func seedRecords(size int, recs ...[]byte) []byte {
	buf := make([]byte, size)
	initPage(buf)
	for _, rec := range recs {
		if _, ok := pageAppend(buf, rec); !ok {
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
	// The record kernel's way off its typed path: a NULL after a typed run,
	// an INTEGER→FLOAT switch mid-page, a NaN after finite floats.
	f.Add(seedPage(MinPageSize, sqltypes.Row{i(1)}, sqltypes.Row{i(2)}, sqltypes.Row{i(3)},
		sqltypes.Row{null}, sqltypes.Row{i(5)}), uint16(5))
	f.Add(seedPage(MinPageSize, sqltypes.Row{i(1), s("a")}, sqltypes.Row{i(2), s("b")},
		sqltypes.Row{fl(2.5), s("c")}, sqltypes.Row{i(4), null}), uint16(4))
	f.Add(seedPage(MinPageSize, sqltypes.Row{fl(1)}, sqltypes.Row{fl(2.5)},
		sqltypes.Row{fl(math.NaN())}, sqltypes.Row{fl(math.Copysign(0, -1))}), uint16(4))
	// Non-minimal varints (0 in two bytes, 1 in three) after a typed run,
	// which DecodeRowData accepts, and a truncated last record.
	f.Add(seedRecords(MinPageSize, sqltypes.EncodeRowData(nil, sqltypes.Row{i(7)}),
		[]byte{1, byte(sqltypes.Int), 0x80, 0x00}, []byte{1, byte(sqltypes.Int), 0x82, 0x80, 0x00}), uint16(3))
	good := sqltypes.EncodeRowData(nil, sqltypes.Row{i(300), s("abc")})
	f.Add(seedRecords(MinPageSize, good, good, good[:len(good)-1]), uint16(3))
	// A prefix (count/2 = 3 records) that ends inside a typed run, extended
	// over a NULL and a type switch.
	f.Add(seedPage(MinPageSize, sqltypes.Row{i(1)}, sqltypes.Row{i(-2)}, sqltypes.Row{i(1 << 40)},
		sqltypes.Row{i(4)}, sqltypes.Row{null}, sqltypes.Row{fl(6)}), uint16(6))
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

// fillPage builds a page of DefaultPageSize holding row(0), row(1), … for
// as many rows as fit, and returns it with the row count.
func fillPage(row func(i int) sqltypes.Row) ([]byte, int) {
	buf := make([]byte, DefaultPageSize)
	initPage(buf)
	n := 0
	for {
		if _, ok := pageAppend(buf, sqltypes.EncodeRowData(nil, row(n))); !ok {
			return buf, n
		}
		n++
	}
}

// pageShape is a record shape BenchmarkDecodePageCols times.
type pageShape struct {
	name string
	row  func(k int) sqltypes.Row
}

// pageShapes are the credit-card table of the benchmark workloads, and one
// shape for each non-INTEGER path of the record kernel.
func pageShapes() []pageShape {
	rng := rand.New(rand.NewSource(1))
	i, fl := sqltypes.NewInt, sqltypes.NewFloat
	return []pageShape{
		// c_transactions (c_txid, c_custid, c_locid, c_date, c_transaction).
		{"c_transactions", func(k int) sqltypes.Row {
			tx := 10000 + k
			return sqltypes.Row{i(int64(tx)), i(1 + rng.Int63n(200)), i(1 + rng.Int63n(250)),
				sqltypes.NewDate(int64(11323 + tx*336/20000)), i(5 + rng.Int63n(500))}
		}},
		{"float_nan", func(k int) sqltypes.Row {
			v := rng.NormFloat64() * 100
			if k == 40 {
				v = math.NaN()
			}
			return sqltypes.Row{i(int64(k)), fl(v), fl(float64(k) / 4)}
		}},
		{"varchar", func(k int) sqltypes.Row {
			return sqltypes.Row{i(int64(k)), sqltypes.NewString(fmt.Sprintf("customer-%05d", rng.Intn(100000)))}
		}},
		{"nulls", func(k int) sqltypes.Row {
			r := sqltypes.Row{i(int64(k)), i(rng.Int63n(1000)), fl(float64(k) / 8)}
			if k%4 == 1 {
				r[1] = sqltypes.NullDatum
			}
			if k%7 == 3 {
				r[2] = sqltypes.NullDatum
			}
			return r
		}},
	}
}

// BenchmarkDecodePageCols times decoding a full page into its columns, per
// value (records × columns).
func BenchmarkDecodePageCols(b *testing.B) {
	for _, shape := range pageShapes() {
		buf, n := fillPage(shape.row)
		values := n * len(shape.row(0))
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for it := 0; it < b.N; it++ {
				if _, err := decodePageCols(buf, n, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*values), "ns/value")
		})
	}
}

// TestDecodePageColsAllocs: decoding a page of INTEGER records, and
// extending a decoded half-page prefix to the whole page, allocates per
// column — the vectors are sized once from the record count — not per
// record.
func TestDecodePageColsAllocs(t *testing.T) {
	const cols = 4
	buf, n := fillPage(func(k int) sqltypes.Row {
		row := make(sqltypes.Row, cols)
		for c := range row {
			row[c] = sqltypes.NewInt(int64(k * (c + 1) * 97))
		}
		return row
	})
	if n < 100 {
		t.Fatalf("page holds %d records, want a page's worth", n)
	}
	prev, err := decodePageCols(buf, n/2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// pageCols, its vectors, and per column the values and the null bitmap
	// (and one more under the race detector): a page's worth of records would
	// be hundreds.
	const limit = 3*cols + 2
	for _, tc := range []struct {
		name string
		prev *pageCols
	}{{"whole page", nil}, {"extend half-page prefix", prev}} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := decodePageCols(buf, n, tc.prev); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > limit {
			t.Errorf("%s of %d records × %d columns: %.0f allocations, want ≤ %d", tc.name, n, cols, allocs, limit)
		}
	}
}
