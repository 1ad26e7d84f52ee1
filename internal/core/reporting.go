package core

import (
	"fmt"
	"sort"
)

// This file implements §6 of the paper: *reporting sequences* — simple
// sequences extended by a multi-column ordering scheme (flattened through a
// position function) and a partitioning scheme — together with the two
// derivation lemmas, ordering reduction (§6.1) and partitioning reduction
// (§6.2).

// PosFunc is the position function of §6: a linear (row-major) ordering of
// multi-column ordering keys. Card[i] is the cardinality of ordering column
// i+1; keys are 1-based in every column, matching the paper's examples.
type PosFunc struct {
	Card []int
}

// NewPosFunc builds a position function over the given per-column
// cardinalities.
func NewPosFunc(card ...int) (PosFunc, error) {
	if len(card) == 0 {
		return PosFunc{}, fmt.Errorf("position function needs at least one ordering column")
	}
	for i, c := range card {
		if c < 1 {
			return PosFunc{}, fmt.Errorf("ordering column %d has cardinality %d; must be >= 1", i+1, c)
		}
	}
	return PosFunc{Card: append([]int(nil), card...)}, nil
}

// Arity returns the number of ordering columns.
func (p PosFunc) Arity() int { return len(p.Card) }

// Domain returns the total number of positions, the product of the
// cardinalities.
func (p PosFunc) Domain() int {
	n := 1
	for _, c := range p.Card {
		n *= c
	}
	return n
}

// Pos returns the global position of the ordering key (k_1, …, k_n) under
// the row-major linear ordering; pos(1,…,1) = 1. For n = 1 this is the
// identity, as the paper notes.
func (p PosFunc) Pos(ks ...int) (int, error) {
	if len(ks) != len(p.Card) {
		return 0, fmt.Errorf("pos: got %d key columns, want %d", len(ks), len(p.Card))
	}
	k := 0
	for i, v := range ks {
		if v < 1 || v > p.Card[i] {
			return 0, fmt.Errorf("pos: key column %d value %d outside [1,%d]", i+1, v, p.Card[i])
		}
		k = k*p.Card[i] + (v - 1)
	}
	return k + 1, nil
}

// Key inverts Pos: it returns the ordering key at global position k.
func (p PosFunc) Key(k int) ([]int, error) {
	if k < 1 || k > p.Domain() {
		return nil, fmt.Errorf("key: position %d outside [1,%d]", k, p.Domain())
	}
	k--
	ks := make([]int, len(p.Card))
	for i := len(p.Card) - 1; i >= 0; i-- {
		ks[i] = k%p.Card[i] + 1
		k /= p.Card[i]
	}
	return ks, nil
}

// Reduce drops the last j ordering columns and returns the position function
// over the retained prefix together with the block size (the number of
// global positions sharing one retained prefix).
func (p PosFunc) Reduce(j int) (PosFunc, int, error) {
	if j < 1 || j >= len(p.Card) {
		return PosFunc{}, 0, fmt.Errorf("ordering reduction must drop 1..%d columns, got %d", len(p.Card)-1, j)
	}
	block := 1
	for _, c := range p.Card[len(p.Card)-j:] {
		block *= c
	}
	reduced, _ := NewPosFunc(p.Card[:len(p.Card)-j]...)
	return reduced, block, nil
}

// PartitionKey identifies one partition of a reporting sequence. Keys are
// rendered strings because the engine's partition columns may be any datum
// type; the core layer only needs equality.
type PartitionKey string

// ReportingSequence is the §6 extension of a simple sequence: per-partition
// complete simple sequences over a shared multi-column ordering scheme.
// A reporting sequence is *complete* (Definition, §6.2) when every partition
// carries its own header and trailer, which the Sequence type guarantees by
// construction.
type ReportingSequence struct {
	Pos  PosFunc
	Win  Window
	Agg  Agg
	Part map[PartitionKey]*Sequence[float64]
}

// NewReportingSequence materializes a reporting sequence from per-partition
// raw data laid out in global-position order (index 0 holds position 1).
func NewReportingSequence(pf PosFunc, w Window, agg Agg, parts map[PartitionKey][]float64) (*ReportingSequence, error) {
	rs := &ReportingSequence{Pos: pf, Win: w, Agg: agg, Part: make(map[PartitionKey]*Sequence[float64], len(parts))}
	for key, raw := range parts {
		if len(raw) != pf.Domain() {
			return nil, fmt.Errorf("partition %q has %d values; ordering scheme spans %d positions", key, len(raw), pf.Domain())
		}
		s, err := ComputePipelined(raw, w, agg)
		if err != nil {
			return nil, err
		}
		rs.Part[key] = s
	}
	return rs, nil
}

// Partitions returns the partition keys in sorted order (deterministic
// iteration for tests and printing).
func (rs *ReportingSequence) Partitions() []PartitionKey {
	keys := make([]PartitionKey, 0, len(rs.Part))
	for k := range rs.Part {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// At returns the sequence value at global position k within partition key.
func (rs *ReportingSequence) At(key PartitionKey, k int) (float64, bool) {
	s, ok := rs.Part[key]
	if !ok {
		return 0, false
	}
	return s.AtOK(k)
}

// ---------------------------------------------------------------------------
// §6.1 — ordering reduction
// ---------------------------------------------------------------------------

// OrderingReduction derives a reporting sequence ordered by the first
// n−j ordering columns from one ordered by all n columns (§6.1, Lemma
// "Derivation of Reporting Sequences by Ordering Reduction").
//
// Dropping a suffix of ordering columns collapses each retained prefix into
// a *block* of `blockSize` consecutive global positions. The target window
// targetWin is expressed in block units (l and h count whole blocks, the
// usual reporting-function reading after reduction). Per the lemma, the
// derived value anchored at a block is the window over global positions
//
//	[ pos(prefix−l, 1, …, 1),  pos(prefix+h+1, 1, …, 1) − 1 ]
//
// i.e. a sliding window with l' = l·B and h' = (h+1)·B − 1 at the block's
// first global position. Those per-anchor values are obtained from the
// materialized sequence with the MinOA telescoping (RangeSum), never from
// raw data. Cumulative target windows are likewise supported.
//
// The result maps each partition to the per-block sequence (block index
// 1 … #blocks).
func OrderingReduction(rs *ReportingSequence, j int, targetWin Window) (*ReportingSequence, error) {
	if rs.Agg != Sum && rs.Agg != Count {
		return nil, notDerivable("ordering-reduction", rs.Win, targetWin, "requires SUM or COUNT (collapsing blocks needs addition)")
	}
	reduced, block, err := rs.Pos.Reduce(j)
	if err != nil {
		return nil, err
	}
	if err := targetWin.Validate(); err != nil && !targetWin.Cumulative {
		// A (0,0) block window — "this block only" — is legitimate after
		// reduction even though a size-1 simple window is not.
		if targetWin.Preceding != 0 || targetWin.Following != 0 {
			return nil, err
		}
	}
	nBlocks := reduced.Domain()
	out := &ReportingSequence{Pos: reduced, Win: targetWin, Agg: rs.Agg, Part: make(map[PartitionKey]*Sequence[float64], len(rs.Part))}
	for key, src := range rs.Part {
		dst := newSequence[float64](targetWin, rs.Agg, nBlocks)
		for b := dst.Lo(); b <= dst.Hi(); b++ {
			blo, bhi := targetWin.Bounds(b) // window in block units
			// Global-position range covered by blocks [blo, bhi].
			glo := (blo-1)*block + 1
			ghi := bhi * block
			v, rerr := RangeSum(src, glo, ghi)
			if rerr != nil {
				return nil, rerr
			}
			dst.set(b, v, true)
		}
		out.Part[key] = dst
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// §6.2 — partitioning reduction
// ---------------------------------------------------------------------------

// PartitionMerge describes a partitioning reduction: each target (coarser)
// partition is the ordered concatenation of source partitions. The engine
// derives the map from the dropped partition columns; core receives it
// explicitly.
type PartitionMerge map[PartitionKey][]PartitionKey

// PartitioningReduction derives a reporting sequence with a coarser
// partitioning scheme from a *complete* reporting sequence (§6.2, Lemma
// "Derivation of Reporting Sequences by Partitioning Reduction").
//
// The merged partition's raw data is the concatenation of the source
// partitions' raw data in the given order; a window near a seam spans
// several source partitions. Because every source partition is complete
// (header and trailer present), the contribution of each source partition to
// a merged window is a range sum derivable by MinOA telescoping — no raw
// access is needed, which is exactly what completeness buys (§6.2).
func PartitioningReduction(rs *ReportingSequence, merge PartitionMerge, targetWin Window) (*ReportingSequence, error) {
	if rs.Agg != Sum && rs.Agg != Count {
		return nil, notDerivable("partitioning-reduction", rs.Win, targetWin, "requires SUM or COUNT")
	}
	if err := targetWin.Validate(); err != nil {
		return nil, err
	}
	out := &ReportingSequence{Pos: rs.Pos, Win: targetWin, Agg: rs.Agg, Part: make(map[PartitionKey]*Sequence[float64], len(merge))}
	segLen := rs.Pos.Domain()
	for mergedKey, srcKeys := range merge {
		srcs := make([]*Sequence[float64], len(srcKeys))
		for i, sk := range srcKeys {
			s, ok := rs.Part[sk]
			if !ok {
				return nil, fmt.Errorf("partitioning reduction: source partition %q not materialized", sk)
			}
			srcs[i] = s
		}
		n := segLen * len(srcs)
		dst := newSequence[float64](targetWin, rs.Agg, n)
		for k := dst.Lo(); k <= dst.Hi(); k++ {
			wlo, whi := targetWin.Bounds(k)
			v := 0.0
			for i, s := range srcs {
				// Segment i occupies merged positions [i*segLen+1, (i+1)*segLen].
				off := i * segLen
				llo, lhi := wlo-off, whi-off
				if lhi < 1 || llo > segLen {
					continue
				}
				part, rerr := RangeSum(s, llo, lhi)
				if rerr != nil {
					return nil, rerr
				}
				v += part
			}
			dst.set(k, v, true)
		}
		out.Part[mergedKey] = dst
	}
	return out, nil
}
