package exec

import (
	"rfview/internal/spill"
)

// This file adapts the executor's ordering operators to the out-of-core
// layer (internal/spill). Both stream rows through a spill.Sorter keyed by
// memcomparable bytes that order as Compare does — Window by the key vectors
// it already holds (appendKeys), Sort one row at a time (EncodeKeyNulls) —
// so external and in-memory results are bit-identical: equal key bytes merge
// back in insertion order, matching the stable in-memory sorts.

// spillEligible gates the external path: it needs an enabled config, keys to
// order by, and more rows than the sorter's minimum run (n, or any n when 0:
// a Sort streams its input and learns the count as it goes). At or below
// that floor the sorter can never flush, so it would hold the rows in memory
// anyway — as encoded keys plus payload copies, more than the typed records
// it stands in for.
func spillEligible(cfg *spill.Config, keys []SortKey, n int) bool {
	return cfg.Enabled() && len(keys) > 0 && (n == 0 || n > cfg.MinRun())
}
