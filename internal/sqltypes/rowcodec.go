package sqltypes

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Row value codec for heap records, the spill layer, and the rows of commit
// records and snapshots (EncodeRows): the one encoding a row has on disk, a
// compact, self-delimiting encoding of a whole row. Unlike EncodeKey this encoding is
// not order-preserving — it only needs to round-trip exactly, so every datum
// decodes back to a value Equal (and bit-identical for floats, NaN included)
// to the original.
//
// Layout: uvarint column count, then per column a type tag byte followed by
//
//	Null          nothing
//	Bool/Int/Date zigzag varint
//	Float         8 bytes little-endian IEEE 754 bits
//	String        uvarint length ++ bytes
//
// Two decoders read it through one field reader, so a record decodes — and
// fails — the same whichever form it lands in: DecodeRowData into boxed
// datums (point reads, spilled sort rows), and AppendRecord straight into
// typed column vectors (a page's records), which reads the short varints of
// an integer column's own type inline before falling back to it.

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
			dst = binary.LittleEndian.AppendUint64(dst, uint64(d.i))
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
	n, off, err := rowWidth(data)
	if err != nil {
		return nil, err
	}
	row := make(Row, n)
	for i := range row {
		t, x, s, next, err := field(data, off, i)
		if err != nil {
			return nil, err
		}
		off = next
		if t == String {
			row[i] = Datum{typ: String, s: string(s)}
		} else {
			row[i] = Datum{typ: t, i: int64(x)}
		}
	}
	return row, rowEnd(data, off)
}

// EncodeRows appends rows to dst as a row list — each row a uvarint length,
// then its EncodeRowData bytes — and returns the extended slice. Commit
// records and snapshots carry rows in this form.
func EncodeRows(dst []byte, rows ...Row) []byte {
	var hdr [binary.MaxVarintLen64]byte
	for _, r := range rows {
		start := len(dst)
		dst = EncodeRowData(dst, r)
		k := binary.PutUvarint(hdr[:], uint64(len(dst)-start))
		dst = append(dst, hdr[:k]...)
		copy(dst[start+k:], dst[start:len(dst)-k])
		copy(dst[start:], hdr[:k])
	}
	return dst
}

// DecodeRows decodes a row list EncodeRows wrote. Every length is checked
// against the bytes left and every row against DecodeRowData, so corrupt
// input is an error, never a panic.
func DecodeRows(data []byte) ([]Row, error) {
	var rows []Row
	for len(data) > 0 {
		n, k := binary.Uvarint(data)
		if k <= 0 || n > uint64(len(data)-k) {
			return nil, fmt.Errorf("sqltypes: corrupt row list (length of row %d)", len(rows))
		}
		row, err := DecodeRowData(data[k : k+int(n)])
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", len(rows), err)
		}
		rows, data = append(rows, row), data[k+int(n):]
	}
	return rows, nil
}

// RowWidth returns the column count of the row encoded in data, or 0 when
// the count is corrupt, which AppendRecord then reports.
func RowWidth(data []byte) int {
	n, _, _ := rowWidth(data)
	return n
}

// AppendRecord decodes the encoded row rec into the next position of cols,
// column c into cols[c], with no Datum in between: an INTEGER, DATE or
// BOOLEAN payload goes to Ints, a FLOAT to Floats bit for bit, a VARCHAR to
// Strs, and a NULL to the bitmap over a zero slot. A value whose type differs
// from its column's boxes the column exactly as Append does. It fails —
// leaving cols partly appended — exactly when DecodeRowData fails on rec or
// rec has another width than len(cols).
func AppendRecord(cols []ColVec, rec []byte) error {
	n, off, err := rowWidth(rec)
	if err != nil {
		return err
	}
	if n != len(cols) {
		return fmt.Errorf("sqltypes: row has %d columns, want %d", n, len(cols))
	}
	for c := range cols {
		v := &cols[c]
		// The hot path: a value of the integer type its column already
		// holds, in a varint of one to three bytes (|x| < 2^20: every DATE,
		// and row numbers and amounts below a million).
		if b := rec[off:]; len(b) > 1 && Type(b[0]) == v.Typ && intTypes&(1<<v.Typ) != 0 && !v.mixed {
			if u, k := shortUvarint(b[1:]); k > 0 {
				v.Ints = append(v.Ints, int64(u>>1)^-int64(u&1)) // zigzag, as binary.Varint
				v.n++
				off += 1 + k
				continue
			}
		}
		t, x, s, next, err := field(rec, off, c)
		if err != nil {
			return err
		}
		off = next
		switch t {
		case Null:
			v.appendNull()
		case Float:
			v.appendFloat(math.Float64frombits(x))
		case String:
			v.appendStr(string(s))
		default:
			v.appendInt(t, int64(x))
		}
	}
	return rowEnd(rec, off)
}

// intTypes is the set of types whose payload is a zigzag varint held in
// ColVec.Ints, as a bit mask over Type.
const intTypes = 1<<Bool | 1<<Int | 1<<Date

// shortUvarint reads a uvarint of one to three bytes from the non-empty b
// and its length, or k = 0 for a longer or truncated one, which
// binary.Uvarint reads. It is small enough to inline.
func shortUvarint(b []byte) (u uint64, k int) {
	switch {
	case b[0] < 0x80:
		return uint64(b[0]), 1
	case len(b) > 1 && b[1] < 0x80:
		return uint64(b[0]&0x7f) | uint64(b[1])<<7, 2
	case len(b) > 2 && b[2] < 0x80:
		return uint64(b[0]&0x7f) | uint64(b[1]&0x7f)<<7 | uint64(b[2])<<14, 3
	}
	return 0, 0
}

// rowWidth reads the column count of the row encoded in data and the offset
// of its first column.
func rowWidth(data []byte) (n, off int, err error) {
	if len(data) > 0 && data[0] < 0x80 && int(data[0]) <= len(data) {
		return int(data[0]), 1, nil
	}
	u, k := binary.Uvarint(data)
	if k <= 0 {
		return 0, 0, fmt.Errorf("sqltypes: corrupt row (column count)")
	}
	if u > uint64(len(data)) { // each column needs at least its tag byte
		return 0, 0, fmt.Errorf("sqltypes: corrupt row (%d columns in %d bytes)", u, len(data))
	}
	return int(u), k, nil
}

// field decodes column i, which starts at data[off]: its type, the payload
// — an INTEGER/DATE/BOOLEAN value as int64 bits or a FLOAT's IEEE bits in
// x, a VARCHAR's bytes (aliasing data) in s — and the offset after it.
func field(data []byte, off, i int) (t Type, x uint64, s []byte, next int, err error) {
	if off >= len(data) {
		return 0, 0, nil, 0, fmt.Errorf("sqltypes: corrupt row (truncated at column %d)", i)
	}
	t = Type(data[off])
	off++
	switch t {
	case Null:
	case Bool, Int, Date:
		v, k := binary.Varint(data[off:])
		if k <= 0 {
			return 0, 0, nil, 0, fmt.Errorf("sqltypes: corrupt row (bad varint at column %d)", i)
		}
		x, off = uint64(v), off+k
	case Float:
		if len(data)-off < 8 {
			return 0, 0, nil, 0, fmt.Errorf("sqltypes: corrupt row (truncated float at column %d)", i)
		}
		x = binary.LittleEndian.Uint64(data[off:])
		off += 8
	case String:
		l, k := binary.Uvarint(data[off:])
		if k <= 0 || uint64(len(data)-off-k) < l {
			return 0, 0, nil, 0, fmt.Errorf("sqltypes: corrupt row (bad string at column %d)", i)
		}
		off += k
		s = data[off : off+int(l)]
		off += int(l)
	default:
		return 0, 0, nil, 0, fmt.Errorf("sqltypes: corrupt row (type tag %d at column %d)", t, i)
	}
	return t, x, s, off, nil
}

// rowEnd checks that the columns decoded up to off used up the encoding.
func rowEnd(data []byte, off int) error {
	if off != len(data) {
		return fmt.Errorf("sqltypes: corrupt row (%d trailing bytes)", len(data)-off)
	}
	return nil
}
