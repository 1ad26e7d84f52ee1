package sqltypes

import (
	"encoding/binary"
	"math"
	"slices"
	"unsafe"
)

// This file is the columnar half of the value system: ColVec holds a column
// of datums in typed storage ([]int64 / []float64 / []string plus a null
// bitmap) so hot loops can run over raw machine values, and a Batch is a run
// of rows held as such columns — the unit a scan hands to the operators above
// it; OrderWords turns a fixed-width column into uint64 words whose unsigned
// order is the column's sort order, so sorts over INTEGER/DATE/BOOLEAN/FLOAT
// keys compare machine words; and EncodeKey produces memcomparable byte
// strings for the keys that have no fixed width (VARCHAR).

// NullBitmap records which positions of a column are SQL NULL. The zero
// value is an empty bitmap; it grows as positions are set.
type NullBitmap struct {
	bits []uint64
	any  bool
}

// Reset clears the bitmap, reserving room for n positions.
func (b *NullBitmap) Reset(n int) {
	if words := (n + 63) / 64; cap(b.bits) < words {
		b.bits = make([]uint64, 0, words)
	} else {
		b.bits = b.bits[:0]
	}
	b.any = false
}

// Set marks position i as NULL.
func (b *NullBitmap) Set(i int) {
	for len(b.bits) <= i>>6 {
		b.bits = append(b.bits, 0)
	}
	b.bits[i>>6] |= 1 << (uint(i) & 63)
	b.any = true
}

// Get reports whether position i is NULL.
func (b *NullBitmap) Get(i int) bool {
	w := i >> 6
	return w < len(b.bits) && b.bits[w]&(1<<(uint(i)&63)) != 0
}

// Any reports whether any position is NULL.
func (b *NullBitmap) Any() bool { return b.any }

// ColVec holds one column of datums losslessly. While every non-NULL value
// shares one type the values sit in the typed slice of that type — NaN and
// -0.0 bit for bit — with NULLs in the bitmap holding a zero slot, so
// positions stay aligned; a value of a second type moves the whole column
// into boxed datums. Valid tells the ordering and aggregate code whether the
// typed view is usable: not for a boxed column, and not for a float column
// holding a NaN, whose order under Compare is no total order. Datum reads
// every position back whatever the state.
type ColVec struct {
	// Typ is the element type: Bool, Int, Float, String or Date once a
	// non-NULL value has been seen; Null while the column is empty or
	// all-NULL. Bool and Date store their int64 payloads under their own Typ.
	Typ Type
	// mixed: the column holds values of two types, boxed. nan: a typed
	// float column holds a NaN. Beside Typ, which the record kernel reads
	// with mixed for every value.
	mixed, nan bool
	// Ints / Floats / Strs hold the payloads; only the slice matching Typ is
	// populated, and none once the column is boxed.
	Ints   []int64
	Floats []float64
	Strs   []string
	// Nulls marks the NULL positions.
	Nulls NullBitmap

	boxed []Datum // every position, once the column mixes types
	n     int
	hint  int // capacity reserved when the first value fixes the type
}

// Reset clears the vector for reuse, expecting about n positions.
func (v *ColVec) Reset(n int) {
	v.Typ = Null
	v.Ints = v.Ints[:0]
	v.Floats = v.Floats[:0]
	v.Strs = v.Strs[:0]
	v.boxed = v.boxed[:0]
	v.Nulls.Reset(n)
	v.n, v.hint = 0, n
	v.mixed, v.nan = false, false
}

// Len returns the number of appended positions.
func (v *ColVec) Len() int { return v.n }

// Valid reports whether the typed views are usable: every non-NULL value
// shared one type and no float was NaN.
func (v *ColVec) Valid() bool { return !v.mixed && !v.nan }

// Mixed reports whether the column holds non-NULL values of more than one
// type, which it keeps boxed.
func (v *ColVec) Mixed() bool { return v.mixed }

// Append adds one datum.
func (v *ColVec) Append(d Datum) {
	switch d.typ {
	case Null:
		v.appendNull()
	case Float:
		v.appendFloat(d.f)
	case String:
		v.appendStr(d.s)
	default:
		v.appendInt(d.typ, d.i)
	}
}

// The typed appends behind Append and AppendRecord: each adds one value of
// its type without building a Datum, unless the column is or becomes boxed.

func (v *ColVec) appendNull() {
	if v.mixed {
		v.boxed = append(v.boxed, NullDatum)
	} else {
		v.pad(1)
	}
	v.Nulls.Set(v.n)
	v.n++
}

// appendInt appends an INTEGER, DATE or BOOLEAN payload of type t.
func (v *ColVec) appendInt(t Type, x int64) {
	if (v.Typ == t && !v.mixed) || v.settle(t) {
		v.Ints = append(v.Ints, x)
	} else {
		v.boxed = append(v.boxed, Datum{typ: t, i: x})
	}
	v.n++
}

func (v *ColVec) appendFloat(f float64) {
	if (v.Typ == Float && !v.mixed) || v.settle(Float) {
		v.Floats = append(v.Floats, f)
		v.nan = v.nan || f != f
	} else {
		v.boxed = append(v.boxed, Datum{typ: Float, f: f})
	}
	v.n++
}

func (v *ColVec) appendStr(s string) {
	if (v.Typ == String && !v.mixed) || v.settle(String) {
		v.Strs = append(v.Strs, s)
	} else {
		v.boxed = append(v.boxed, Datum{typ: String, s: s})
	}
	v.n++
}

// settle readies v for a value of type t whose column type differs or is
// boxed, and reports whether the value goes to t's typed slice: the first
// value of an empty or all-NULL column fixes its type, a second type boxes
// it.
func (v *ColVec) settle(t Type) bool {
	switch {
	case v.mixed:
		return false
	case v.Typ == Null:
		v.Typ = t
		v.pad(v.n) // the zero slots of the NULLs before it
		return true
	}
	v.box()
	return false
}

// pad appends k zero slots to the typed slice of v's type.
func (v *ColVec) pad(k int) {
	switch v.Typ {
	case Int, Bool, Date:
		v.Ints = appendZeros(v.Ints, k, v.hint)
	case Float:
		v.Floats = appendZeros(v.Floats, k, v.hint)
	case String:
		v.Strs = appendZeros(v.Strs, k, v.hint)
	}
}

// appendZeros appends k zero values to s, reserving room for hint values
// the first time.
func appendZeros[T any](s []T, k, hint int) []T {
	n := len(s)
	if want := max(n+k, hint); cap(s) < want {
		s = slices.Grow(s, want-n)
	}
	s = s[:n+k]
	clear(s[n:])
	return s
}

// box moves every position into boxed datums.
func (v *ColVec) box() {
	b := slices.Grow(v.boxed[:0], max(v.n, v.hint))
	for i := 0; i < v.n; i++ {
		b = append(b, v.Datum(i))
	}
	v.boxed, v.mixed = b, true
	v.Ints, v.Floats, v.Strs = v.Ints[:0], v.Floats[:0], v.Strs[:0]
}

// at is position j of a selection: pos[j], or j itself when pos is nil.
func at(pos []int, j int) int {
	if pos == nil {
		return j
	}
	return pos[j]
}

// AppendSel appends src's values at the positions pos — every position of
// src when pos is nil — with the result Append would give one by one: a
// type mix boxes, a NaN among the appended values (and only then)
// invalidates.
func (v *ColVec) AppendSel(src *ColVec, pos []int) {
	k := len(pos)
	if pos == nil {
		k = src.n
	}
	if v.mixed || src.mixed || (v.Typ != src.Typ && v.Typ != Null && src.Typ != Null) {
		for j := 0; j < k; j++ {
			v.Append(src.Datum(at(pos, j)))
		}
		return
	}
	if v.Typ == Null && src.Typ != Null && src.anyValue(pos, k) {
		v.Typ = src.Typ
		v.pad(v.n)
	}
	switch {
	case src.Typ == Null || v.Typ == Null:
		v.pad(k)
	case v.Typ == Float:
		v.Floats = gather(v.Floats, src.Floats, pos)
		if src.nan && !v.nan {
			v.nan = slices.ContainsFunc(v.Floats[len(v.Floats)-k:], math.IsNaN)
		}
	case v.Typ == String:
		v.Strs = gather(v.Strs, src.Strs, pos)
	default:
		v.Ints = gather(v.Ints, src.Ints, pos)
	}
	if src.Nulls.any {
		for j := 0; j < k; j++ {
			if src.Nulls.Get(at(pos, j)) {
				v.Nulls.Set(v.n + j)
			}
		}
	}
	v.n += k
}

// anyValue reports whether any of the first k positions of the selection
// pos holds a non-NULL value.
func (v *ColVec) anyValue(pos []int, k int) bool {
	for j := 0; j < k; j++ {
		if !v.Nulls.Get(at(pos, j)) {
			return true
		}
	}
	return false
}

func gather[T any](dst, src []T, pos []int) []T {
	if pos == nil {
		return append(dst, src...)
	}
	dst = slices.Grow(dst, len(pos))
	for _, p := range pos {
		dst = append(dst, src[p])
	}
	return dst
}

// Datum reconstructs the datum at position i.
func (v *ColVec) Datum(i int) Datum {
	if v.mixed {
		return v.boxed[i]
	}
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

// PutDatums writes the datum at position pos[j] — position j when pos is nil
// — to dst[j*stride] for every j, one typed loop per column rather than a
// type switch per datum.
func (v *ColVec) PutDatums(dst []Datum, stride int, pos []int) {
	k := len(pos)
	if pos == nil {
		k = v.n
	}
	switch {
	case v.mixed:
		for j := 0; j < k; j++ {
			dst[j*stride] = v.boxed[at(pos, j)]
		}
		return
	case v.Typ == Float:
		for j := 0; j < k; j++ {
			dst[j*stride] = Datum{typ: Float, f: v.Floats[at(pos, j)]}
		}
	case v.Typ == String:
		for j := 0; j < k; j++ {
			dst[j*stride] = Datum{typ: String, s: v.Strs[at(pos, j)]}
		}
	case v.Typ == Null:
		for j := 0; j < k; j++ {
			dst[j*stride] = NullDatum
		}
		return
	default:
		for j := 0; j < k; j++ {
			dst[j*stride] = Datum{typ: v.Typ, i: v.Ints[at(pos, j)]}
		}
	}
	if v.Nulls.any {
		for j := 0; j < k; j++ {
			if v.Nulls.Get(at(pos, j)) {
				dst[j*stride] = NullDatum
			}
		}
	}
}

// MemSize estimates the resident bytes of the vector for budget accounting.
func (v *ColVec) MemSize() int64 {
	n := int64(unsafe.Sizeof(*v)) + 8*int64(cap(v.Ints)+cap(v.Floats)+cap(v.Nulls.bits)) +
		int64(unsafe.Sizeof(""))*int64(cap(v.Strs)) + int64(unsafe.Sizeof(Datum{}))*int64(cap(v.boxed))
	for _, s := range v.Strs {
		n += int64(len(s))
	}
	for _, d := range v.boxed {
		n += int64(len(d.s))
	}
	return n
}

// FixedWidth reports whether every position is NULL or one value of a single
// fixed-width type (INTEGER, DATE, BOOLEAN, or NaN-free FLOAT) — the columns
// OrderWords can turn into comparable machine words. VARCHAR columns and
// invalid vectors (a type mix, a NaN) are not.
func (v *ColVec) FixedWidth() bool { return v.Valid() && v.Typ != String }

// Gather resets v to src's values at the given positions, in that order: the
// contiguous per-partition slice of a column the typed kernels run over.
func (v *ColVec) Gather(src *ColVec, pos []int) {
	v.Reset(len(pos))
	v.AppendSel(src, pos)
}

// Batch is a run of rows held column by column. Cols[c] holds column c at
// every position 0…N-1 for the columns its consumer asked for; the other
// entries are unspecified. Sel, when non-nil, lists the live positions in
// ascending order: a filter narrows it instead of moving column data.
type Batch struct {
	Cols []ColVec
	N    int
	Sel  []int

	ident []int // 0, 1, 2, …: Positions of an unselected batch
}

// Len returns the number of live positions.
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// Positions returns the live positions: Sel, or 0…N-1. The caller must not
// modify the slice.
func (b *Batch) Positions() []int {
	if b.Sel != nil {
		return b.Sel
	}
	if n := len(b.ident); n < b.N {
		b.ident = slices.Grow(b.ident, b.N-n)
		for i := n; i < b.N; i++ {
			b.ident = append(b.ident, i)
		}
	}
	return b.ident[:b.N]
}

// AppendRows appends to dst one row per position of pos, built from the
// first width columns of cols and carved from a single allocation.
func AppendRows(dst []Row, cols []ColVec, width int, pos []int) []Row {
	if len(pos) == 0 {
		return dst
	}
	slab := make([]Datum, len(pos)*width)
	for c := 0; c < width; c++ {
		cols[c].PutDatums(slab[c:], width, pos)
	}
	dst = slices.Grow(dst, len(pos))
	for j := range pos {
		dst = append(dst, slab[j*width:(j+1)*width:(j+1)*width])
	}
	return dst
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
