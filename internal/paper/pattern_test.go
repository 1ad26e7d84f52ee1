package paper

import (
	"testing"

	"rfview/internal/catalog"
	"rfview/internal/core"
)

// TestStrategyResolution pins the precondition matrix.
func TestStrategyResolution(t *testing.T) {
	cases := []struct {
		req        Strategy
		dl, dh, wx int
		want       Strategy
	}{
		{StrategyMaxOA, 1, 0, 4, StrategyMaxOA},
		{StrategyMaxOA, -1, 0, 4, StrategyAuto}, // narrowing: MaxOA refuses
		{StrategyMaxOA, 4, 0, 4, StrategyAuto},  // Δl ≥ W_x: residues collide
		{StrategyMinOA, -1, 0, 4, StrategyMinOA},
		{StrategyMinOA, 2, 2, 4, StrategyAuto}, // Δl+Δh ≡ 0 (mod W_x)
		{StrategyAuto, 1, 0, 4, StrategyMinOA},
		{StrategyAuto, 2, 2, 4, StrategyMaxOA}, // MinOA corner → MaxOA
		{StrategyAuto, 4, 4, 4, StrategyAuto},  // neither applies
	}
	for _, c := range cases {
		if got := resolveStrategy(c.req, c.dl, c.dh, c.wx); got != c.want {
			t.Errorf("resolveStrategy(%v, %d, %d, %d) = %v, want %v", c.req, c.dl, c.dh, c.wx, got, c.want)
		}
	}
}

// TestResidueOffset keeps every MOD operand non-negative.
func TestResidueOffset(t *testing.T) {
	mv := &catalog.MatView{Name: "matseq", Kind: catalog.SequenceView, Agg: core.Sum, Window: core.Sliding(2, 5)}
	off := residueOffset(mv, []int{-7, 3}, 8)
	if off%8 != 0 {
		t.Fatalf("offset %d must be a multiple of the window size", off)
	}
	// Smallest possible operand: pos = 1-h_x = -4, shift = -7 → -11 + off > 0.
	if -11+off <= 0 {
		t.Fatalf("offset %d too small", off)
	}
}
