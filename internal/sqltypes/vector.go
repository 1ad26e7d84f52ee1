package sqltypes

import (
	"encoding/binary"
	"math"
)

// This file is the columnar half of the value system: ColVec accumulates a
// column of datums into typed storage ([]int64 / []float64 / []string plus a
// null bitmap) so hot executor loops can run over raw machine values;
// OrderWords turns a fixed-width column into uint64 words whose unsigned
// order is the column's sort order, so sorts over INTEGER/DATE/BOOLEAN/FLOAT
// keys compare machine words; and EncodeKey produces memcomparable byte
// strings for the keys that have no fixed width (VARCHAR).

// NullBitmap records which positions of a column are SQL NULL. The zero
// value is an empty bitmap; it grows as positions are set.
type NullBitmap struct {
	bits []uint64
	any  bool
}

// Reset clears the bitmap, keeping capacity for n positions.
func (b *NullBitmap) Reset(n int) {
	words := (n + 63) / 64
	if cap(b.bits) < words {
		b.bits = make([]uint64, words)
	} else {
		b.bits = b.bits[:words]
		for i := range b.bits {
			b.bits[i] = 0
		}
	}
	b.any = false
}

// Set marks position i as NULL. i must be within the Reset size.
func (b *NullBitmap) Set(i int) {
	b.bits[i>>6] |= 1 << (uint(i) & 63)
	b.any = true
}

// Get reports whether position i is NULL.
func (b *NullBitmap) Get(i int) bool {
	return b.bits[i>>6]&(1<<(uint(i)&63)) != 0
}

// Any reports whether any position is NULL.
func (b *NullBitmap) Any() bool { return b.any }

// ColVec accumulates one column of datums into typed storage. The first
// non-NULL value fixes the element type; a later value of a different type
// (or a float NaN, whose ordering under Compare is not a total order) marks
// the vector invalid, which tells the caller to stay on the boxed Datum
// path. NULLs are recorded in the bitmap and hold a zero slot so positions
// stay aligned with the input.
type ColVec struct {
	// Typ is the element type: Int, Float, or String once a non-NULL value
	// has been seen; Null while the column is empty or all-NULL. Bool and
	// Date store their int64 payloads under their own Typ.
	Typ Type
	// Ints / Floats / Strs hold the payloads; only the slice matching Typ is
	// populated.
	Ints   []int64
	Floats []float64
	Strs   []string
	// Nulls marks the NULL positions.
	Nulls NullBitmap

	n       int
	invalid bool
}

// Reset clears the vector for reuse, keeping capacity for n rows.
func (v *ColVec) Reset(n int) {
	v.Typ = Null
	v.Ints = v.Ints[:0]
	v.Floats = v.Floats[:0]
	v.Strs = v.Strs[:0]
	v.Nulls.Reset(n)
	v.n = 0
	v.invalid = false
}

// Len returns the number of appended positions.
func (v *ColVec) Len() int { return v.n }

// Valid reports whether the typed views are usable: every non-NULL value
// shared one type and no float was NaN. Invalid vectors still track Len so
// callers can fall back positionally.
func (v *ColVec) Valid() bool { return !v.invalid }

// Append adds one datum. After the vector has gone invalid, only the
// position count advances.
func (v *ColVec) Append(d Datum) {
	i := v.n
	v.n++
	if d.typ == Null {
		v.Nulls.Set(i)
		if v.invalid {
			return
		}
		// Hold a zero slot so typed positions stay aligned.
		switch v.Typ {
		case Int, Bool, Date:
			v.Ints = append(v.Ints, 0)
		case Float:
			v.Floats = append(v.Floats, 0)
		case String:
			v.Strs = append(v.Strs, "")
		}
		return
	}
	if v.invalid {
		return
	}
	if v.Typ == Null {
		// First non-NULL value fixes the type; backfill zero slots for any
		// NULLs already seen.
		v.Typ = d.typ
		switch d.typ {
		case Int, Bool, Date:
			for j := 0; j < i; j++ {
				v.Ints = append(v.Ints, 0)
			}
		case Float:
			for j := 0; j < i; j++ {
				v.Floats = append(v.Floats, 0)
			}
		case String:
			for j := 0; j < i; j++ {
				v.Strs = append(v.Strs, "")
			}
		}
	}
	if d.typ != v.Typ {
		v.invalid = true
		return
	}
	switch d.typ {
	case Int, Bool, Date:
		v.Ints = append(v.Ints, d.i)
	case Float:
		if math.IsNaN(d.f) {
			v.invalid = true
			return
		}
		v.Floats = append(v.Floats, d.f)
	case String:
		v.Strs = append(v.Strs, d.s)
	default:
		v.invalid = true
	}
}

// Datum reconstructs the datum at position i. Valid only while the vector is
// Valid.
func (v *ColVec) Datum(i int) Datum {
	if v.Nulls.Get(i) {
		return NullDatum
	}
	switch v.Typ {
	case Int, Bool, Date:
		return Datum{typ: v.Typ, i: v.Ints[i]}
	case Float:
		return NewFloat(v.Floats[i])
	case String:
		return NewString(v.Strs[i])
	default:
		return NullDatum
	}
}

// FixedWidth reports whether every position is NULL or one value of a single
// fixed-width type (INTEGER, DATE, BOOLEAN, or NaN-free FLOAT) — the columns
// OrderWords can turn into comparable machine words. VARCHAR columns and
// invalid vectors (a type mix, a NaN) are not.
func (v *ColVec) FixedWidth() bool { return !v.invalid && v.Typ != String }

// Gather resets v to src's values at the given positions, in that order: the
// contiguous per-partition slice of a column the typed kernels run over. An
// invalid src yields an invalid v of the same length.
func (v *ColVec) Gather(src *ColVec, pos []int) {
	v.Reset(len(pos))
	v.Typ, v.invalid, v.n = src.Typ, src.invalid, len(pos)
	if src.invalid {
		return
	}
	switch src.Typ {
	case Int, Bool, Date:
		for _, p := range pos {
			v.Ints = append(v.Ints, src.Ints[p])
		}
	case Float:
		for _, p := range pos {
			v.Floats = append(v.Floats, src.Floats[p])
		}
	case String:
		for _, p := range pos {
			v.Strs = append(v.Strs, src.Strs[p])
		}
	}
	if src.Nulls.any {
		for j, p := range pos {
			if src.Nulls.Get(p) {
				v.Nulls.Set(j)
			}
		}
	}
}

// EqualAt reports whether positions i and j hold Compare-equal values (NULL
// equals NULL, -0.0 equals +0.0). Valid only while the vector is Valid.
func (v *ColVec) EqualAt(i, j int) bool {
	if v.Nulls.any {
		if ni, nj := v.Nulls.Get(i), v.Nulls.Get(j); ni || nj {
			return ni && nj
		}
	}
	switch v.Typ {
	case Int, Bool, Date:
		return v.Ints[i] == v.Ints[j]
	case Float:
		return v.Floats[i] == v.Floats[j]
	case String:
		return v.Strs[i] == v.Strs[j]
	default:
		return true // all-NULL column
	}
}

// OrderWords writes the order words of the positions pos into dst, position
// j's at dst[j*stride:], and returns how many words a position takes: one —
// a uint64 whose unsigned order is the value's sort order under Compare,
// reversed when desc — for a column without NULLs, two for a column with
// them: a placement word that ranks NULLs after every value when nullsLast
// and before otherwise, then the value word (zero for a NULL). The vector
// must be FixedWidth.
func (v *ColVec) OrderWords(pos []int, desc, nullsLast bool, dst []uint64, stride int) int {
	var flip uint64
	if desc {
		flip = ^uint64(0)
	}
	val := 0 // the value word's offset within a position's words
	if v.Nulls.any {
		val = 1
	}
	switch v.Typ {
	case Int, Bool, Date:
		for j, p := range pos {
			dst[j*stride+val] = OrderWordInt(v.Ints[p]) ^ flip
		}
	case Float:
		for j, p := range pos {
			dst[j*stride+val] = OrderWordFloat(v.Floats[p]) ^ flip
		}
	}
	if val == 0 {
		return 1
	}
	nullRank, valRank := uint64(0), uint64(1)
	if nullsLast {
		nullRank, valRank = 1, 0
	}
	for j, p := range pos {
		if v.Nulls.Get(p) {
			dst[j*stride], dst[j*stride+1] = nullRank, 0
		} else {
			dst[j*stride] = valRank
		}
	}
	return 2
}

// OrderWordInt maps an int64 payload (INTEGER, DATE, BOOLEAN) onto a uint64
// whose unsigned order is the signed order — no subtraction, so
// math.MinInt64 and math.MaxInt64 order correctly.
func OrderWordInt(i int64) uint64 { return uint64(i) ^ (1 << 63) }

// OrderWordFloat maps a non-NaN float64 onto a uint64 whose unsigned order
// is the numeric order. -0.0 maps to the word of +0.0: Compare treats them
// as equal, so they must tie.
func OrderWordFloat(f float64) uint64 {
	if f == 0 {
		f = 0 // normalize -0.0 to +0.0
	}
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		return ^bits
	}
	return bits | 1<<63
}

// ---------------------------------------------------------------------------
// Memcomparable key encoding
// ---------------------------------------------------------------------------

// Key-encoding tags. NULL gets the smallest tag so it sorts before every
// non-NULL value, matching Compare; DESC inverts the whole segment, which
// flips NULLs to the end, matching a reversed comparator.
const (
	keyTagNull    byte = 0x00
	keyTagValue   byte = 0x01
	keyTagNullHi  byte = 0xFF // NULL forced after every value (NULLS LAST asc)
	keyStrEscape  byte = 0x00 // a 0x00 payload byte becomes 0x00 0xFF
	keyStrEscaped byte = 0xFF
	keyStrTermLo  byte = 0x00 // terminator 0x00 0x01: below every escaped byte
	keyStrTermHi  byte = 0x01
)

// EncodeKey appends an order-preserving encoding of d to dst and returns the
// extended slice: for two datums a, b of one comparable column,
// bytes.Compare(EncodeKey(nil, a, desc), EncodeKey(nil, b, desc)) has the
// same sign as Compare(a, b) (negated under desc), and encodings are equal
// exactly when Compare reports 0. The caller guarantees column homogeneity —
// a single non-NULL type per column, no NaN floats, no Int/Float mixing —
// which is what makes a bytewise total order agree with Compare (mixed
// numeric columns compare Int pairs exactly but cross pairs via float64, an
// ordering no single encoding can reproduce). -0.0 encodes as +0.0 so the
// pair stays a tie and stable sorts preserve input order, as the comparator
// path does. Strings are escaped and terminated so a later key segment can
// follow without breaking prefix ordering.
func EncodeKey(dst []byte, d Datum, desc bool) []byte {
	return EncodeKeyNulls(dst, d, desc, desc)
}

// EncodeKeyNulls is EncodeKey with an explicit NULL placement: nullsLast
// positions NULL segments after every non-NULL value of the column in the
// final (post-DESC-inversion) order, nullsLast=false before. EncodeKey's
// default is nullsLast = desc, the placement Compare plus a DESC negation
// induces. The comparator fallback (exec's compareKeyDatums) applies the same
// absolute placement, so both sort paths stay bit-identical.
func EncodeKeyNulls(dst []byte, d Datum, desc, nullsLast bool) []byte {
	start := len(dst)
	switch d.typ {
	case Null:
		// The tag is chosen pre-inversion so the post-inversion position is
		// the requested one: under desc the whole segment is bit-flipped,
		// turning a low tag into a high one and vice versa.
		if nullsLast != desc {
			dst = append(dst, keyTagNullHi)
		} else {
			dst = append(dst, keyTagNull)
		}
	case Int, Bool, Date:
		dst = append(dst, keyTagValue)
		dst = binary.BigEndian.AppendUint64(dst, OrderWordInt(d.i))
	case Float:
		dst = append(dst, keyTagValue)
		dst = binary.BigEndian.AppendUint64(dst, OrderWordFloat(d.f))
	case String:
		dst = append(dst, keyTagValue)
		s := d.s
		for i := 0; i < len(s); i++ {
			if s[i] == keyStrEscape {
				dst = append(dst, keyStrEscape, keyStrEscaped)
			} else {
				dst = append(dst, s[i])
			}
		}
		dst = append(dst, keyStrTermLo, keyStrTermHi)
	}
	if desc {
		for i := start; i < len(dst); i++ {
			dst[i] = ^dst[i]
		}
	}
	return dst
}

// Comparable reports whether datums of types a and b can be ordered by
// Compare without a type error: identical types always can, and Int/Float
// compare numerically with each other. NULL is comparable with everything.
func Comparable(a, b Type) bool {
	if a == Null || b == Null || a == b {
		return true
	}
	return a.Numeric() && b.Numeric()
}
