package core

import (
	"fmt"
	"sort"
)

// Partition is the state kept for one partition: the Maintainer of its
// complete sequence. AVG alone is not incrementally maintainable
// (NewMaintainer rejects it); §2.1 derives it as SUM/COUNT, so an AVG
// partition maintains the SUM side and computes the COUNT side on read —
// every admitted value counts, which makes COUNT at k a function of the
// window and the cardinality alone.
type Partition struct {
	val    *Maintainer
	avg    bool
	pinned bool
}

func newPartition(raw []float64, w Window, agg Agg) (*Partition, error) {
	valAgg := agg
	if agg == Avg {
		valAgg = Sum
	}
	val, err := NewMaintainer(raw, w, valAgg)
	if err != nil {
		return nil, err
	}
	return &Partition{val: val, avg: agg == Avg}, nil
}

// Seq returns the partition's maintained sequence (the SUM side of an AVG
// partition): its window, cardinality and stored range. Read values with At.
func (p *Partition) Seq() *Sequence { return p.val.seq }

// Raw returns a read-only view of the partition's raw data (see
// Maintainer.Raw).
func (p *Partition) Raw() []float64 { return p.val.raw }

// Len returns the partition's raw cardinality n_p.
func (p *Partition) Len() int { return len(p.val.raw) }

// At returns the partition's value at sequence position k and whether the
// window there is non-empty. AVG is SUM/COUNT, bit-matching
// ComputePipelined's AVG (count 0 maps to 0, the zero-extension convention).
func (p *Partition) At(k int) (float64, bool) {
	if !p.avg {
		return p.val.seq.AtOK(k)
	}
	c := p.val.seq.Win.Count(k, p.Len())
	if c == 0 {
		return 0, true
	}
	return p.val.seq.At(k) / float64(c), true
}

// FullRecompute reports whether the most recent mutation rebuilt the whole
// stored sequence rather than the §2.3 band: the exotic-value fallback (NaN
// and Inf poison the pipelined running sums past the band) or a birth.
// Callers that mirror the sequence elsewhere must then resync all of it.
func (p *Partition) FullRecompute() bool { return p.val.lastFull }

// PartitionedMaintainer maintains one complete simple sequence per partition
// — §6.2's complete reporting function — under the density-preserving DML a
// single Maintainer accepts: value updates at any position, appends at n_p+1
// (including position 1 of a brand-new partition, a partition birth), and
// suffix deletes of position n_p (deleting the last row kills the partition).
// By §6's partitioning reduction a simple sequence is the one-partition case:
// a single pinned partition, which DML neither gives birth to nor kills.
// Keys are opaque strings; callers that partition by SQL datums key by their
// rendered form and keep the datum themselves.
type PartitionedMaintainer struct {
	win   Window
	agg   Agg
	parts map[string]*Partition
}

// NewPartitionedMaintainer builds an empty partitioned maintainer.
func NewPartitionedMaintainer(w Window, agg Agg) (*PartitionedMaintainer, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return &PartitionedMaintainer{win: w, agg: agg, parts: make(map[string]*Partition)}, nil
}

// SetPartition (re)materializes one partition's sequence from raw data.
func (pm *PartitionedMaintainer) SetPartition(key string, raw []float64) error {
	p, err := newPartition(raw, pm.win, pm.agg)
	if err != nil {
		return err
	}
	pm.parts[key] = p
	return nil
}

// Pin makes key's partition permanent: it exists from now on, empty if it
// has to be, and losing its last row does not remove it.
func (pm *PartitionedMaintainer) Pin(key string) error {
	if _, ok := pm.parts[key]; !ok {
		if err := pm.SetPartition(key, nil); err != nil {
			return err
		}
	}
	pm.parts[key].pinned = true
	return nil
}

// Partition returns the state of key's partition, or nil when the partition
// does not exist.
func (pm *PartitionedMaintainer) Partition(key string) *Partition { return pm.parts[key] }

// N returns the raw cardinality of a partition and whether it exists.
func (pm *PartitionedMaintainer) N(key string) (int, bool) {
	p, ok := pm.parts[key]
	if !ok {
		return 0, false
	}
	return p.Len(), true
}

// Len returns the number of live partitions.
func (pm *PartitionedMaintainer) Len() int { return len(pm.parts) }

// Keys returns the live partition keys in sorted order, for deterministic
// materialization.
func (pm *PartitionedMaintainer) Keys() []string {
	keys := make([]string, 0, len(pm.parts))
	for k := range pm.parts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Touched sums the touched-position counters across partitions.
func (pm *PartitionedMaintainer) Touched() int {
	t := 0
	for _, p := range pm.parts {
		t += p.val.Touched
	}
	return t
}

// of names key's partition in an error message; the one-partition case,
// under the empty key, needs no name.
func of(key string) string {
	if key == "" {
		return ""
	}
	return fmt.Sprintf(" of partition %q", key)
}

// Update changes the raw value at position pos of a partition.
func (pm *PartitionedMaintainer) Update(key string, pos int, v float64) error {
	p, ok := pm.parts[key]
	if !ok {
		return fmt.Errorf("update in unknown partition %q", key)
	}
	return p.val.Update(pos, v)
}

// Insert is the positional insert of §2.3 into an existing partition: v
// enters at pos and every later position shifts right.
func (pm *PartitionedMaintainer) Insert(key string, pos int, v float64) error {
	p, ok := pm.parts[key]
	if !ok {
		return fmt.Errorf("insert in unknown partition %q", key)
	}
	return p.val.Insert(pos, v)
}

// Append folds an insert at position pos into partition key. Only appends at
// n_p+1 preserve density; position 1 of an unknown key births the partition.
// It returns the partition and whether it was born.
func (pm *PartitionedMaintainer) Append(key string, pos int, v float64) (*Partition, bool, error) {
	p, ok := pm.parts[key]
	if !ok {
		if pos != 1 {
			return nil, false, fmt.Errorf("insert at position %d opens partition %q non-densely", pos, key)
		}
		if err := pm.SetPartition(key, []float64{v}); err != nil {
			return nil, false, err
		}
		p = pm.parts[key]
		// The birth materializes every stored position.
		p.val.Touched += p.val.seq.Len()
		p.val.lastFull = true
		return p, true, nil
	}
	if n := p.Len(); pos != n+1 {
		return nil, false, fmt.Errorf("insert at position %d%s is not an append (n=%d)", pos, of(key), n)
	}
	return p, false, pm.Insert(key, pos, v)
}

// Delete is the positional delete of §2.3: position pos leaves the partition
// and every later position shifts left. Emptying a partition that is not
// pinned removes it and reports died=true.
func (pm *PartitionedMaintainer) Delete(key string, pos int) (died bool, err error) {
	p, ok := pm.parts[key]
	if !ok {
		return false, fmt.Errorf("delete in unknown partition %q", key)
	}
	if err := p.val.Delete(pos); err != nil {
		return false, err
	}
	if p.Len() == 0 && !p.pinned {
		delete(pm.parts, key)
		return true, nil
	}
	return false, nil
}

// DeleteSuffix folds a delete of position pos into partition key. Only the
// last position n_p keeps density.
func (pm *PartitionedMaintainer) DeleteSuffix(key string, pos int) (died bool, err error) {
	if n, ok := pm.N(key); ok && pos != n {
		return false, fmt.Errorf("delete at position %d%s is not a suffix delete (n=%d)", pos, of(key), n)
	}
	return pm.Delete(key, pos)
}
