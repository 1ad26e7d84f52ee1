package sqltypes

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Row value codec for the spill layer: a compact, self-delimiting encoding
// of a whole row, paired with the memcomparable EncodeKey bytes inside a
// spill run record. Unlike EncodeKey this encoding is not order-preserving —
// it only needs to round-trip exactly, so every datum decodes back to a
// value Equal (and bit-identical for floats, NaN included) to the original.
//
// Layout: uvarint column count, then per column a type tag byte followed by
//
//	Null          nothing
//	Bool/Int/Date zigzag varint
//	Float         8 bytes little-endian IEEE 754 bits
//	String        uvarint length ++ bytes

// EncodeRowData appends the encoding of r to dst and returns the extended
// slice.
func EncodeRowData(dst []byte, r Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, d := range r {
		dst = append(dst, byte(d.typ))
		switch d.typ {
		case Null:
		case Bool, Int, Date:
			dst = binary.AppendVarint(dst, d.i)
		case Float:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(d.f))
		case String:
			dst = binary.AppendUvarint(dst, uint64(len(d.s)))
			dst = append(dst, d.s...)
		}
	}
	return dst
}

// DecodeRowData decodes one row from data, which must contain exactly one
// encoded row (the spill record framing delimits it).
func DecodeRowData(data []byte) (Row, error) {
	rd, err := NewRowReader(data)
	if err != nil {
		return nil, err
	}
	row := make(Row, rd.Len())
	for i := range row {
		if row[i], err = rd.Next(); err != nil {
			return nil, err
		}
	}
	return row, rd.Close()
}

// RowReader walks the datums of one encoded row in column order, checking
// the encoding as it goes. DecodeRowData and the storage layer's page
// columns both read rows through it, so a record decodes the same whichever
// form it lands in.
type RowReader struct {
	data      []byte
	off, i, n int
}

// NewRowReader reads the column count of the row encoded in data.
func NewRowReader(data []byte) (RowReader, error) {
	n, off := binary.Uvarint(data)
	if off <= 0 {
		return RowReader{}, fmt.Errorf("sqltypes: corrupt row (column count)")
	}
	if n > uint64(len(data)) { // each column needs at least its tag byte
		return RowReader{}, fmt.Errorf("sqltypes: corrupt row (%d columns in %d bytes)", n, len(data))
	}
	return RowReader{data: data, off: off, n: int(n)}, nil
}

// Len returns the row's column count.
func (r *RowReader) Len() int { return r.n }

// Next decodes the next column's datum. It must be called at most Len times.
func (r *RowReader) Next() (Datum, error) {
	data, off, i := r.data, r.off, r.i
	r.i++
	if off >= len(data) {
		return NullDatum, fmt.Errorf("sqltypes: corrupt row (truncated at column %d)", i)
	}
	typ := Type(data[off])
	off++
	var d Datum
	switch typ {
	case Null:
	case Bool, Int, Date:
		v, k := binary.Varint(data[off:])
		if k <= 0 {
			return NullDatum, fmt.Errorf("sqltypes: corrupt row (bad varint at column %d)", i)
		}
		off += k
		d = Datum{typ: typ, i: v}
	case Float:
		if len(data)-off < 8 {
			return NullDatum, fmt.Errorf("sqltypes: corrupt row (truncated float at column %d)", i)
		}
		d = Datum{typ: Float, f: math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))}
		off += 8
	case String:
		l, k := binary.Uvarint(data[off:])
		if k <= 0 || uint64(len(data)-off-k) < l {
			return NullDatum, fmt.Errorf("sqltypes: corrupt row (bad string at column %d)", i)
		}
		off += k
		d = Datum{typ: String, s: string(data[off : off+int(l)])}
		off += int(l)
	default:
		return NullDatum, fmt.Errorf("sqltypes: corrupt row (type tag %d at column %d)", typ, i)
	}
	r.off = off
	return d, nil
}

// Close checks that the columns read so far used up the encoding.
func (r *RowReader) Close() error {
	if r.off != len(r.data) {
		return fmt.Errorf("sqltypes: corrupt row (%d trailing bytes)", len(r.data)-r.off)
	}
	return nil
}
