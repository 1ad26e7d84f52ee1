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
// the N·log N comparisons. Compare is a total order, so every key column
// maps onto words or bytes whose unsigned order is its own (sqltypes'
// OrderWords and AppendKey), and which sort runs is decided once per sort by
// the runtime types of the key columns:
//
//   - every column fixed-width (INTEGER, DATE, BOOLEAN, FLOAT, a mix of
//     INTEGER and FLOAT, or all NULL): sortTyped — each position becomes one
//     packed record of uint64 order words plus a tail word, and the records
//     are ordered by an LSD radix sort over the words' bytes, no comparison
//     above a few rows;
//   - a VARCHAR column among them: sortEncoded — memcomparable byte keys and
//     bytes.Compare, since a string has no fixed-width order word.
//
// A key column Compare cannot order (INTEGER vs VARCHAR out of a CASE) is a
// type error before any ordering work. Both sorts are stable: ties keep the
// order the positions arrived in.

// sortPath names the in-memory ordering a sort took.
type sortPath uint8

const (
	sortTyped sortPath = iota
	sortEncoded
)

func (p sortPath) String() string {
	return [...]string{"typed", "encoded"}[p]
}

// sortScratch holds the reusable buffers of one sort. Buffers are pooled
// (see sortScratchPool, partScratch) because partition-parallel windows sort
// many partitions concurrently.
type sortScratch struct {
	vecs []sqltypes.ColVec // key columns of a sortRowsByKeys run
	recs []uint64          // typed path: the packed records, flat
	ord  []int             // the record numbers being sorted
	// Encoded path: per-position keys, slices into buf.
	enc  [][]byte
	buf  []byte
	offs []int
	perm []int
	tmp  []int // permute's copy; the radix sort's ping-pong half of ord
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
// in place, and reports the path taken. The keys are evaluated and
// type-checked before the sort runs (evalKeys). When meta is non-nil the
// sorted stream's adjacency table is recorded in it for the Window
// operators of a shared class.
func sortRowsByKeys(rows []sqltypes.Row, idx []int, keys []SortKey, sc *sortScratch, meta *ClassOrderMeta) (sortPath, error) {
	n := len(idx)
	if n < 2 || len(keys) == 0 {
		return sortTyped, nil
	}
	path, err := evalKeys(rows, idx, keys, sc)
	if err != nil {
		return path, err
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

// evalKeys evaluates the keys at the rows idx into sc.vecs, one vector per
// key, and returns the ordering their runtime types select, or the type
// error of a key column Compare cannot order.
func evalKeys(rows []sqltypes.Row, idx []int, keys []SortKey, sc *sortScratch) (sortPath, error) {
	sc.vecs = grow(sc.vecs, len(keys))
	for ki := range keys {
		vec := &sc.vecs[ki]
		vec.Reset(len(idx))
		for _, ri := range idx {
			v, err := keys[ki].Expr.Eval(rows[ri])
			if err != nil {
				return sortTyped, err
			}
			vec.Append(v)
		}
	}
	return keyPath(sc.vecs)
}

// permute rewrites pos through a sorted permutation: pos[j] = pos[perm[j]].
func permute(sc *sortScratch, pos, perm []int) {
	sc.tmp = grow(sc.tmp, len(pos))
	for j, p := range perm {
		sc.tmp[j] = pos[p]
	}
	copy(pos, sc.tmp)
}

// keyPath picks the ordering the key columns allow (see the file comment),
// or returns the type error of a column Compare cannot order.
func keyPath(vecs []sqltypes.ColVec) (sortPath, error) {
	path := sortTyped
	for i := range vecs {
		if err := vecs[i].CheckOrder(); err != nil {
			return path, err
		}
		if vecs[i].Typ == sqltypes.String && !vecs[i].Mixed() {
			path = sortEncoded
		}
	}
	return path, nil
}

// recLayout is how one sort's keys pack into a record of uint64 words: per
// key an optional NULL-placement word (only for columns that hold a NULL) and
// the value words — two for a column that mixes INTEGER and FLOAT, else one
// — then one tail word carrying the tie-break and the source
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
		if vecs[i].Mixed() {
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
// one memcomparable byte string and the positions are ordered by
// bytes.Compare, the arrival index breaking ties.
func sortEncodedKeys(lay *recLayout, pos []int, sc *sortScratch) {
	n := len(pos)
	sc.buf = sc.buf[:0]
	sc.offs = grow(sc.offs, n+1)
	for j, p := range pos {
		sc.offs[j] = len(sc.buf)
		for ki, k := range lay.keys {
			sc.buf = lay.vecs[ki].AppendKey(sc.buf, p, k.Desc, k.nullsLast())
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

// fillClassOrderMeta records the adjacency table of a sorted stream: pos
// holds the sorted order as positions into the key vectors, whose EqualAt is
// Compare's equality.
func fillClassOrderMeta(m *ClassOrderMeta, vecs []sqltypes.ColVec, pos []int) {
	m.tieDepth = grow(m.tieDepth, len(pos))
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
