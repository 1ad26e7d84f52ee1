package exec

import (
	"bytes"
	"slices"
	"sync"

	"rfview/internal/sqltypes"
)

// This file is the shared in-memory ordering of the executor: exec.Sort and
// Window order row positions by key columns held as typed vectors
// (sqltypes.ColVec), never by calling Expr.Eval or sqltypes.Compare inside
// the N·log N comparisons. Which sort runs is decided once per sort by the
// runtime types of the key columns:
//
//   - every column fixed-width (INTEGER, DATE, BOOLEAN, NaN-free FLOAT, or
//     all NULL): sortTyped — each position becomes one packed record of
//     uint64 order words plus a tail word, and the records are ordered by an
//     LSD radix sort over the words' bytes, no comparison above a few rows;
//   - a VARCHAR column among them: sortEncoded — memcomparable byte keys and
//     bytes.Compare, since a string has no fixed-width order word;
//   - a column that mixes Int and Float or holds a NaN (orderings no
//     normalization reproduces): sortComparator — sqltypes.Compare over a
//     pre-validated key matrix read back from the vectors, so
//     incomparable key types (INTEGER vs VARCHAR out of a CASE) surface as a
//     type error before any ordering work.
//
// All three are stable: ties keep the order the positions arrived in.

// sortPath names the in-memory ordering a sort took.
type sortPath uint8

const (
	sortTyped sortPath = iota
	sortEncoded
	sortComparator
)

func (p sortPath) String() string {
	return [...]string{"typed", "encoded", "comparator"}[p]
}

// sortScratch holds the reusable buffers of one sort. Buffers are pooled
// (see sortScratchPool, partScratch) because partition-parallel windows sort
// many partitions concurrently.
type sortScratch struct {
	vecs []sqltypes.ColVec // key columns of a sortRowsByKeys run
	recs []uint64          // typed path: the packed records, flat
	ord  []int             // typed and encoded paths: the record numbers being sorted
	// Encoded path: per-position keys, slices into buf.
	enc  [][]byte
	buf  []byte
	offs []int
	// Comparator path: flat n×k key matrix, row-major.
	datums []sqltypes.Datum
	perm   []int
	tmp    []int // permute's copy; the radix sort's ping-pong half of ord
}

// sortScratchPool recycles per-sort buffers across operator executions.
var sortScratchPool = sync.Pool{New: func() any { return new(sortScratch) }}

func getSortScratch() *sortScratch  { return sortScratchPool.Get().(*sortScratch) }
func putSortScratch(s *sortScratch) { sortScratchPool.Put(s) }

// grow resizes a slice to length n, reusing capacity when it suffices.
// Retained elements are stale scratch; callers overwrite before reading.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// identity resizes s to n and fills it with 0..n-1.
func identity(s []int, n int) []int {
	s = grow(s, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// sortRowsByKeys stably sorts idx — indices into rows — by the given keys,
// in place, and reports the path taken. Every key is evaluated and
// type-checked before the sort runs: incomparable key types return the type
// error here, never from inside a comparator. When meta is non-nil and a
// normalized (typed or encoded) sort completes, the sorted stream's adjacency
// table is recorded in it for the Window operators of a shared class; the
// comparator path leaves meta untouched (the caller resets it beforehand).
func sortRowsByKeys(rows []sqltypes.Row, idx []int, keys []SortKey, sc *sortScratch, meta *ClassOrderMeta) (sortPath, error) {
	n, k := len(idx), len(keys)
	if n < 2 || k == 0 {
		return sortTyped, nil
	}
	sc.vecs = grow(sc.vecs, k)
	for ki := range keys {
		vec := &sc.vecs[ki]
		vec.Reset(n)
		for _, ri := range idx {
			v, err := keys[ki].Expr.Eval(rows[ri])
			if err != nil {
				return sortTyped, err
			}
			vec.Append(v)
		}
	}
	path := keyPath(sc.vecs)
	if path == sortComparator {
		sc.ord = identity(sc.ord, n)
		if err := sortCompared(sc.vecs, sc.ord, keys, sc); err != nil {
			return path, err
		}
		permute(sc, idx, sc.ord)
		return path, nil
	}
	lay := newRecLayout(keys, sc.vecs)
	sc.perm = identity(sc.perm, n)
	sortByVecs(path, &lay, sc.perm, nil, sc)
	if meta != nil {
		fillClassOrderMeta(meta, sc.vecs, sc.perm)
	}
	permute(sc, idx, sc.perm)
	return path, nil
}

// permute rewrites pos through a sorted permutation: pos[j] = pos[perm[j]].
func permute(sc *sortScratch, pos, perm []int) {
	sc.tmp = grow(sc.tmp, len(pos))
	for j, p := range perm {
		sc.tmp[j] = pos[p]
	}
	copy(pos, sc.tmp)
}

// keyPath picks the ordering the key columns allow; see the file comment.
func keyPath(vecs []sqltypes.ColVec) sortPath {
	path := sortTyped
	for i := range vecs {
		switch {
		case !vecs[i].Valid():
			return sortComparator
		case !vecs[i].FixedWidth():
			path = sortEncoded
		}
	}
	return path
}

// recLayout is how one sort's keys pack into a record of uint64 words: per
// key an optional NULL-placement word (only for columns that hold a NULL) and
// the value word, then one tail word carrying the tie-break and the source
// position. DESC is folded into the value words and NULLS FIRST/LAST into the
// placement words, so the unsigned order of the words, first to last, is the
// whole ordering.
type recLayout struct {
	keys  []SortKey
	vecs  []sqltypes.ColVec
	width int
}

func newRecLayout(keys []SortKey, vecs []sqltypes.ColVec) recLayout {
	width := 1
	for i := range vecs {
		width++
		if vecs[i].Nulls.Any() {
			width++
		}
	}
	return recLayout{keys: keys, vecs: vecs, width: width}
}

// sortByVecs stably orders pos — positions into the layout's key vectors —
// on the typed or the encoded path. Ties come out in ascending tie[p] order
// when tie is given (typed path only; positions then need 32 bits and ties
// 31, which callers guarantee), else in arrival order.
func sortByVecs(path sortPath, lay *recLayout, pos []int, tie []int64, sc *sortScratch) {
	n, w := len(pos), lay.width
	if n < 2 {
		return
	}
	if path == sortEncoded {
		sortEncodedKeys(lay, pos, sc)
		return
	}
	// One flat slab of n records, filled a key column at a time; the tail
	// word carries the tie-break above the source position.
	sc.recs = grow(sc.recs, n*w)
	recs, c := sc.recs, 0
	for ki, k := range lay.keys {
		c += lay.vecs[ki].OrderWords(pos, k.Desc, k.nullsLast(), recs[c:], w)
	}
	for j, p := range pos {
		recs[j*w+c] = uint64(p)
		if tie != nil {
			recs[j*w+c] |= uint64(tie[p]) << 32
		}
	}
	sc.ord = identity(sc.ord, n)
	if n <= radixCutoff {
		insertionSortRecords(recs, w, c, tie != nil, sc.ord)
	} else {
		radixSortRecords(recs, w, c, tie != nil, sc)
	}
	for j, r := range sc.ord {
		tail := recs[r*w+c]
		if tie != nil {
			tail &= tailPosMask
		}
		pos[j] = int(tail)
	}
}

// radixCutoff is the record count up to which an insertion sort beats the
// radix passes' bucket setup.
const radixCutoff = 24

// tailPosMask selects the source position in a record's tail word when a tie
// rank sits in the bits above it.
const tailPosMask = 1<<32 - 1

// radixSortRecords stably orders sc.ord — record numbers into recs, n
// records of w words — by the c key words and, when tied is set, the tie
// rank in the tail word's upper half. It is an LSD radix sort with byte
// digits, from the last word to the first, ping-ponging sc.ord against
// sc.tmp. A byte equal across all records orders nothing and is skipped: one
// OR/AND sweep per word finds them, so a 15-bit key takes two passes. The
// passes are stable, so records equal on every digit keep arrival order.
func radixSortRecords(recs []uint64, w, c int, tied bool, sc *sortScratch) {
	src, dst := sc.ord, grow(sc.tmp, len(sc.ord))
	var counts [256]int
	last := c - 1
	if tied {
		last = c
	}
	for word := last; word >= 0; word-- {
		or, and := uint64(0), ^uint64(0)
		for i := word; i < len(recs); i += w {
			or |= recs[i]
			and &= recs[i]
		}
		diff := or ^ and
		if word == c {
			diff &^= tailPosMask
		}
		for shift := uint(0); diff>>shift != 0; shift += 8 {
			if diff>>shift&0xff == 0 {
				continue
			}
			counts = [256]int{}
			for i := word; i < len(recs); i += w {
				counts[recs[i]>>shift&0xff]++
			}
			sum := 0
			for b, k := range counts {
				counts[b] = sum
				sum += k
			}
			for _, r := range src {
				b := recs[r*w+word] >> shift & 0xff
				dst[counts[b]] = r
				counts[b]++
			}
			src, dst = dst, src
		}
	}
	sc.ord, sc.tmp = src, dst
}

// insertionSortRecords is radixSortRecords' order for a few records: a
// stable insertion sort on the same words.
func insertionSortRecords(recs []uint64, w, c int, tied bool, ord []int) {
	for i := 1; i < len(ord); i++ {
		r, j := ord[i], i
		for ; j > 0 && recordLess(recs[r*w:r*w+c+1], recs[ord[j-1]*w:], c, tied); j-- {
			ord[j] = ord[j-1]
		}
		ord[j] = r
	}
}

// recordLess reports whether record a orders strictly before record b: by
// the c key words, then by the tie rank when tied is set.
func recordLess(a, b []uint64, c int, tied bool) bool {
	for i := 0; i < c; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return tied && a[c]>>32 < b[c]>>32
}

// sortEncodedKeys is the VARCHAR path: every position's keys are encoded into
// one memcomparable byte string (the vectors are already validated, so no
// encoding can fail) and the positions are ordered by bytes.Compare, the
// arrival index breaking ties.
func sortEncodedKeys(lay *recLayout, pos []int, sc *sortScratch) {
	n := len(pos)
	sc.buf = sc.buf[:0]
	sc.offs = grow(sc.offs, n+1)
	for j, p := range pos {
		sc.offs[j] = len(sc.buf)
		for ki, k := range lay.keys {
			sc.buf = sqltypes.EncodeKeyNulls(sc.buf, lay.vecs[ki].Datum(p), k.Desc, k.nullsLast())
		}
	}
	sc.offs[n] = len(sc.buf)
	sc.enc = grow(sc.enc, n)
	for j := range sc.enc {
		sc.enc[j] = sc.buf[sc.offs[j]:sc.offs[j+1]]
	}
	sc.ord = identity(sc.ord, n)
	enc := sc.enc
	slices.SortFunc(sc.ord, func(a, b int) int {
		if c := bytes.Compare(enc[a], enc[b]); c != 0 {
			return c
		}
		return a - b // identity start: arrival tie-break == stability
	})
	permute(sc, pos, sc.ord)
}

// fillClassOrderMeta records the adjacency table of a stream sorted on a
// normalized path: pos holds the sorted order as positions into the key
// vectors. Vector equality is Compare equality on everything those paths
// accept, so the tie depths are the ones a comparator sort would see.
func fillClassOrderMeta(m *ClassOrderMeta, vecs []sqltypes.ColVec, pos []int) {
	m.tieDepth = grow(m.tieDepth, len(pos))
	m.keyTypes = grow(m.keyTypes, len(vecs))
	for ki := range vecs {
		m.keyTypes[ki] = vecs[ki].Typ
	}
	m.tieDepth[0] = 0
	for i := 1; i < len(pos); i++ {
		depth := int32(0)
		for ki := range vecs {
			if !vecs[ki].EqualAt(pos[i-1], pos[i]) {
				break
			}
			depth++
		}
		m.tieDepth[i] = depth
	}
	m.valid = true
}

// sortCompared is the comparator path: it stably sorts pos — positions into
// the key vectors vecs, one per key — in place. It reads every key of every
// position into one flat matrix, then validates each key column — a single
// non-NULL type (or a numeric mix) sorts, anything else is a type error
// surfaced before any ordering work — and sorts an identity permutation with
// the position as the final tie-break, which reproduces a stable sort while
// letting the sort itself run unstable.
func sortCompared(vecs []sqltypes.ColVec, pos []int, keys []SortKey, sc *sortScratch) error {
	n, k := len(pos), len(keys)
	if n < 2 || k == 0 {
		return nil
	}
	sc.datums = grow(sc.datums, n*k)
	for ki := range keys {
		vecs[ki].PutDatums(sc.datums[ki:], k, pos)
	}
	for ki := 0; ki < k; ki++ {
		first := sqltypes.Null
		for i := 0; i < n; i++ {
			t := sc.datums[i*k+ki].Typ()
			if t == sqltypes.Null || t == first {
				continue
			}
			if first == sqltypes.Null {
				first = t
				continue
			}
			if !sqltypes.Comparable(first, t) {
				return &sqltypes.ErrTypeMismatch{Op: "compare", Left: first, Right: t}
			}
		}
	}

	sc.perm = identity(sc.perm, n)
	datums, perm := sc.datums, sc.perm
	slices.SortFunc(perm, func(a, b int) int {
		ba, bb := a*k, b*k
		for ki := range keys {
			if cmp := compareKeyDatums(datums[ba+ki], datums[bb+ki], keys[ki]); cmp != 0 {
				return cmp
			}
		}
		return a - b // identity start: position tie-break == stability
	})
	permute(sc, pos, perm)
	return nil
}

// compareKeyDatums orders two pre-validated key datums under one SortKey:
// NULL placement is absolute (nullsLast puts NULLs after every non-NULL value
// regardless of direction, matching OrderWords and EncodeKeyNulls), non-NULL
// pairs compare through sqltypes.Compare with DESC negation. Callers
// guarantee the pair is comparable, so Compare cannot fail.
func compareKeyDatums(a, b sqltypes.Datum, k SortKey) int {
	an, bn := a.IsNull(), b.IsNull()
	if an || bn {
		switch {
		case an && bn:
			return 0
		case an:
			if k.nullsLast() {
				return 1
			}
			return -1
		default:
			if k.nullsLast() {
				return -1
			}
			return 1
		}
	}
	cmp, _ := sqltypes.Compare(a, b)
	if k.Desc {
		return -cmp
	}
	return cmp
}
