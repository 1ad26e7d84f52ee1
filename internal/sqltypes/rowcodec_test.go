package sqltypes

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randDatum draws one datum covering every type, NULL-heavy.
func randDatum(rng *rand.Rand) Datum {
	switch rng.Intn(8) {
	case 0, 1:
		return Datum{} // NULL
	case 2:
		return NewBool(rng.Intn(2) == 0)
	case 3:
		return NewInt(rng.Int63() - rng.Int63())
	case 4:
		switch rng.Intn(4) {
		case 0:
			return NewFloat(math.NaN())
		case 1:
			return NewFloat(math.Inf(1 - 2*rng.Intn(2)))
		case 2:
			return NewFloat(math.Copysign(0, -1))
		default:
			return NewFloat(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20)))
		}
	case 5:
		return NewDate(int64(rng.Intn(100000) - 50000))
	default:
		n := rng.Intn(50)
		b := make([]byte, n)
		rng.Read(b)
		return NewString(string(b))
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	for trial := 0; trial < 500; trial++ {
		row := make(Row, rng.Intn(12))
		for i := range row {
			row[i] = randDatum(rng)
		}
		buf = EncodeRowData(buf[:0], row)
		got, err := DecodeRowData(buf)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != len(row) {
			t.Fatalf("trial %d: %d columns, want %d", trial, len(got), len(row))
		}
		for i := range row {
			w, g := row[i], got[i]
			if w.Typ() != g.Typ() {
				t.Fatalf("trial %d col %d: type %v, want %v", trial, i, g.Typ(), w.Typ())
			}
			switch w.Typ() {
			case Null:
			case Bool:
				if w.Bool() != g.Bool() {
					t.Fatalf("trial %d col %d: bool mismatch", trial, i)
				}
			case Int:
				if w.Int() != g.Int() {
					t.Fatalf("trial %d col %d: %d, want %d", trial, i, g.Int(), w.Int())
				}
			case Float:
				// Bit identity, so NaN payloads and -0 survive the disk trip.
				if math.Float64bits(w.Float()) != math.Float64bits(g.Float()) {
					t.Fatalf("trial %d col %d: float bits %x, want %x",
						trial, i, math.Float64bits(g.Float()), math.Float64bits(w.Float()))
				}
			case String:
				if w.Str() != g.Str() {
					t.Fatalf("trial %d col %d: string mismatch", trial, i)
				}
			case Date:
				if w.i != g.i {
					t.Fatalf("trial %d col %d: date mismatch", trial, i)
				}
			}
		}
	}
}

func TestRowCodecEmptyRow(t *testing.T) {
	buf := EncodeRowData(nil, Row{})
	got, err := DecodeRowData(buf)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty row: %v, %d cols", err, len(got))
	}
}

func TestRowCodecRejectsCorruption(t *testing.T) {
	row := Row{NewInt(42), NewString(strings.Repeat("x", 20)), NewFloat(3.5), Datum{}}
	clean := EncodeRowData(nil, row)
	if _, err := DecodeRowData(clean); err != nil {
		t.Fatalf("clean decode failed: %v", err)
	}
	// Every truncation must fail, never panic or return a short row.
	for n := 0; n < len(clean); n++ {
		if _, err := DecodeRowData(clean[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Trailing garbage.
	if _, err := DecodeRowData(append(append([]byte(nil), clean...), 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Bad type tag.
	bad := append([]byte(nil), clean...)
	bad[1] = 0xee
	if _, err := DecodeRowData(bad); err == nil {
		t.Fatal("bad type tag accepted")
	}
	// Implausible column count must not allocate or decode.
	huge := binary.AppendUvarint(nil, 1<<40)
	if _, err := DecodeRowData(huge); err == nil {
		t.Fatal("huge column count accepted")
	}
}

// FuzzRowData: DecodeRowData never panics; a row it accepts re-encodes to
// bytes that decode to the same row, bit for bit; and the record kernel
// AppendRecord accepts exactly the rows DecodeRowData accepts, holding the
// same values.
func FuzzRowData(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 8; trial++ {
		row := make(Row, rng.Intn(6))
		for i := range row {
			row[i] = randDatum(rng)
		}
		f.Add(EncodeRowData(nil, row))
	}
	f.Add(EncodeRowData(nil, Row{NewInt(1 << 50), NewDate(-3), NewBool(true), NewFloat(math.NaN())}))
	f.Add([]byte{2, byte(Int), 0x80, 0x00, byte(Int), 0x81, 0x80, 0x00}) // non-minimal varints
	f.Add(binary.AppendUvarint(nil, 1<<40))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		row, err := DecodeRowData(data)
		cols := make([]ColVec, RowWidth(data))
		if kerr := AppendRecord(cols, data); (kerr == nil) != (err == nil) {
			t.Fatalf("DecodeRowData: %v, AppendRecord: %v", err, kerr)
		}
		for c := range row {
			if got, want := EncodeRowData(nil, Row{cols[c].Datum(0)}), EncodeRowData(nil, Row{row[c]}); !bytes.Equal(got, want) {
				t.Fatalf("column %d: AppendRecord holds %v, DecodeRowData reads %v", c, cols[c].Datum(0), row[c])
			}
		}
		if err != nil {
			return
		}
		enc := EncodeRowData(nil, row)
		again, err := DecodeRowData(enc)
		if err != nil {
			t.Fatalf("re-encoded row %v fails to decode: %v", row, err)
		}
		if !bytes.Equal(EncodeRowData(nil, again), enc) {
			t.Fatalf("decode → encode → decode: %v, then %v", row, again)
		}
	})
}

// edgeRows are the values a row list must keep bit for bit: NaN payloads,
// −0.0, ±Inf, ±2⁶³ as INTEGER and FLOAT, an empty VARCHAR beside NULL, and
// an empty row.
func edgeRows() []Row {
	return []Row{
		{NewFloat(math.NaN()), NewFloat(math.Float64frombits(0x7ff8_0000_dead_beef)), NewFloat(math.Float64frombits(0xfff0_0000_0000_0001))},
		{NewFloat(math.Copysign(0, -1)), NewFloat(0), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1))},
		{NewInt(math.MinInt64), NewInt(math.MaxInt64), NewFloat(-0x1p63), NewFloat(0x1p63)},
		{NewString(""), NullDatum, NewString("x\ny\x00z"), NewBool(true), NewDate(-719162)},
		{},
	}
}

// TestRowListRoundTrip: EncodeRows then DecodeRows returns the rows bit for
// bit, random and edge rows alike, and every truncation of the list fails.
func TestRowListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := edgeRows()
	for i := 0; i < 200; i++ {
		row := make(Row, rng.Intn(12))
		for c := range row {
			row[c] = randDatum(rng)
		}
		rows = append(rows, row)
	}
	enc := EncodeRows([]byte("prefix"), rows...)
	if string(enc[:6]) != "prefix" {
		t.Fatal("EncodeRows overwrote dst")
	}
	got, err := DecodeRows(enc[6:])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("%d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		if !bytes.Equal(EncodeRowData(nil, got[i]), EncodeRowData(nil, rows[i])) {
			t.Fatalf("row %d: got %v, want %v", i, got[i], rows[i])
		}
	}
	if got, err := DecodeRows(nil); err != nil || len(got) != 0 {
		t.Fatalf("empty list: %v, %v", got, err)
	}
	short := EncodeRows(nil, edgeRows()...)
	for n := 1; n < len(short); n++ {
		if rows, err := DecodeRows(short[:n]); err == nil && len(rows) == len(edgeRows()) {
			t.Fatalf("truncation to %d bytes decoded every row", n)
		}
	}
}

// FuzzDecodeRows: DecodeRows never panics, and a list it accepts re-encodes
// to a list that decodes to the same rows, bit for bit.
func FuzzDecodeRows(f *testing.F) {
	f.Add(EncodeRows(nil, edgeRows()...))
	f.Add(EncodeRows(nil, Row{NewInt(1)}, Row{}, Row{NewString("ab")}))
	f.Add(binary.AppendUvarint(nil, 1<<40))
	f.Add([]byte{0x80})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := DecodeRows(data)
		if err != nil {
			return
		}
		enc := EncodeRows(nil, rows...)
		again, err := DecodeRows(enc)
		if err != nil {
			t.Fatalf("re-encoded rows %v fail to decode: %v", rows, err)
		}
		if !bytes.Equal(EncodeRows(nil, again...), enc) {
			t.Fatalf("decode → encode → decode: %v, then %v", rows, again)
		}
	})
}
