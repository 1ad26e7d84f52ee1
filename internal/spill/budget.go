// Package spill is the out-of-core execution layer of rfview: a shared
// memory budget that executor operators charge their working sets against,
// and a budget-tracked external merge sort whose runs are length-prefixed,
// CRC-framed spans of memcomparable key bytes plus encoded payloads, appended
// to one file per sort in a per-engine temp directory.
//
// The division of labor with the executor:
//
//   - exec.Sort, the one client of the Sorter, streams its input through
//     it, spilling (memcomparable key, encoded row) pairs once the budget
//     trips and merging the runs back in key order with a bounded-fan-in
//     heap merge;
//   - exec.Window orders every partition in memory and force-charges its
//     vectors and sort records, overdrafting rather than spilling;
//   - both charge the Budget for whatever they keep in memory, so the
//     rfview_spill_budget_used_bytes gauge reflects executor pressure even
//     on the paths that never spill.
//
// Results are bit-identical to the in-memory sort: runs are sorted by the
// memcomparable encoding of the same order the in-memory sort orders by,
// and the merge breaks key ties by run order, which preserves the
// stable-sort contract (ties keep input order).
package spill

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// Budget tracks executor memory against a byte limit. It is shared by every
// operator of one engine, so concurrent queries compete for the same
// allowance — exactly the resource being protected. A nil *Budget and a
// non-positive limit both mean "unlimited": every Charge succeeds and
// nothing ever spills.
type Budget struct {
	limit int64
	used  atomic.Int64
}

// NewBudget returns a budget with the given byte limit; limit <= 0 means
// unlimited.
func NewBudget(limit int64) *Budget {
	return &Budget{limit: limit}
}

// Limit returns the configured byte limit (0 when unlimited or nil).
func (b *Budget) Limit() int64 {
	if b == nil || b.limit <= 0 {
		return 0
	}
	return b.limit
}

// Used returns the bytes currently charged.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Charge reserves n bytes if they fit under the limit and reports whether
// the reservation was made; a false return charges nothing — the caller
// should spill (or Force, if the allocation is unavoidable). Unlimited
// budgets still account usage, so the gauge stays meaningful without a
// limit.
func (b *Budget) Charge(n int64) bool {
	if b == nil {
		return true
	}
	for {
		cur := b.used.Load()
		next := cur + n
		if b.limit > 0 && next > b.limit {
			return false
		}
		if b.used.CompareAndSwap(cur, next) {
			return true
		}
	}
}

// Force reserves n bytes unconditionally. Used for allocations the executor
// cannot avoid (a Window's vectors and partition sort records): the
// accounting overdrafts rather than lying about what is resident.
func (b *Budget) Force(n int64) {
	if b == nil {
		return
	}
	b.used.Add(n)
}

// Release returns n previously charged (or forced) bytes.
func (b *Budget) Release(n int64) {
	if b == nil {
		return
	}
	if b.used.Add(-n) < 0 {
		// A release without a matching charge is a bookkeeping bug; clamp so
		// one bad caller cannot grant everyone a negative baseline.
		b.used.Store(0)
	}
}

// ParseBytes parses a human byte size: a plain integer is bytes, and the
// suffixes KB/MB/GB (decimal) and KiB/MiB/GiB (binary, also accepted as
// K/M/G) scale it. Used by the -mem-budget flags and the
// RFVIEW_TEST_MEM_BUDGET test knob.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("spill: empty byte size")
	}
	mult := int64(1)
	upper := strings.ToUpper(t)
	for _, suf := range []struct {
		name string
		mult int64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30},
		{"KB", 1000}, {"MB", 1000 * 1000}, {"GB", 1000 * 1000 * 1000},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30},
		{"B", 1},
	} {
		if strings.HasSuffix(upper, suf.name) {
			mult = suf.mult
			t = strings.TrimSpace(t[:len(t)-len(suf.name)])
			break
		}
	}
	v, err := strconv.ParseInt(t, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("spill: bad byte size %q", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("spill: negative byte size %q", s)
	}
	return v * mult, nil
}
