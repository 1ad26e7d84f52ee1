package exec

import (
	"rfview/internal/spill"
)

// This file adapts the executor's ordering operators to the out-of-core
// layer (internal/spill). Both adapters stream rows through a spill.Sorter
// keyed by the memcomparable encoding of the key vectors they already hold
// (appendKeys) — the in-memory encoded path's keys, whose bytes are the
// typed path's order words, big-endian — so external and in-memory results
// are bit-identical: equal key bytes merge back in insertion order, matching
// the stable in-memory sorts.

// spillEligible gates the external path: it needs an enabled config, keys to
// order by, and more rows than the sorter's minimum run. At or below that
// floor the sorter can never flush, so it would hold the rows in memory
// anyway — as encoded keys plus payload copies, more than the typed records
// it stands in for.
func spillEligible(cfg *spill.Config, keys []SortKey, n int) bool {
	return cfg.Enabled() && len(keys) > 0 && n > cfg.MinRun()
}
