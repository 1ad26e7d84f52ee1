package exec

import (
	"rfview/internal/spill"
)

// This file adapts the executor to the out-of-core layer (internal/spill).
// Sort is the one operator that spills: it streams rows through a
// spill.Sorter keyed by memcomparable bytes that order as Compare does
// (EncodeKeyNulls), so external and in-memory results are bit-identical —
// equal key bytes merge back in insertion order, matching the stable
// in-memory sort. A Window orders every partition in memory and only charges
// the budget for what it holds, overdrafting rather than spilling.

// spillEligible gates Sort's external path: it needs an enabled config and
// keys to order by.
func spillEligible(cfg *spill.Config, keys []SortKey) bool {
	return cfg.Enabled() && len(keys) > 0
}
