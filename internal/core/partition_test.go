package core

import (
	"math"
	"math/rand"
	"testing"
)

// partCheck verifies every live partition's maintained sequence against a
// naive recomputation of that partition's raw data.
func partCheck(t *testing.T, pm *PartitionedMaintainer, ctx string) {
	t.Helper()
	for _, key := range pm.Keys() {
		m := pm.Partition(key)
		want, err := ComputeNaive(m.Raw(), m.Seq().Win, m.Seq().Agg)
		if err != nil {
			t.Fatalf("%s: partition %q: %v", ctx, key, err)
		}
		if !EqualSeq(m.Seq(), want, 1e-9) {
			t.Fatalf("%s: partition %q diverged from recomputation", ctx, key)
		}
	}
}

func TestPartitionedMaintainerLifecycle(t *testing.T) {
	pm, err := NewPartitionedMaintainer(Sliding(2, 1), Sum)
	if err != nil {
		t.Fatal(err)
	}
	if err := pm.SetPartition("a", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := pm.SetPartition("b", []float64{10, 20}); err != nil {
		t.Fatal(err)
	}
	partCheck(t, pm, "after set")

	// Birth: position 1 of an unknown key opens the partition.
	if _, born, err := pm.Append("c", 1, 7); err != nil || !born {
		t.Fatalf("Append(c,1) = born=%v err=%v, want a birth", born, err)
	}
	// Append at n_p+1 extends an existing partition without a birth.
	if _, born, err := pm.Append("a", 5, -3); err != nil || born {
		t.Fatalf("Append(a,5) = born=%v err=%v, want a plain append", born, err)
	}
	if err := pm.Update("b", 2, 99); err != nil {
		t.Fatal(err)
	}
	partCheck(t, pm, "after grow")
	if got := pm.Keys(); len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("Keys() = %v, want sorted [a b c]", got)
	}
	if n, ok := pm.N("a"); !ok || n != 5 {
		t.Fatalf("N(a) = %d,%v want 5,true", n, ok)
	}

	// Suffix deletes shrink; deleting the only row kills the partition.
	if died, err := pm.DeleteSuffix("b", 2); err != nil || died {
		t.Fatalf("DeleteSuffix(b,2) = died=%v err=%v, want a shrink", died, err)
	}
	if died, err := pm.DeleteSuffix("c", 1); err != nil || !died {
		t.Fatalf("DeleteSuffix(c,1) = died=%v err=%v, want a death", died, err)
	}
	if pm.Len() != 2 {
		t.Fatalf("Len() = %d after the death of c, want 2", pm.Len())
	}
	if _, ok := pm.N("c"); ok {
		t.Fatal("dead partition c still reports a cardinality")
	}
	partCheck(t, pm, "after shrink")

	// A rebirth at position 1 works like any other birth.
	if _, born, err := pm.Append("c", 1, 42); err != nil || !born {
		t.Fatalf("rebirth of c = born=%v err=%v", born, err)
	}
	partCheck(t, pm, "after rebirth")
}

func TestPartitionedMaintainerErrors(t *testing.T) {
	if _, err := NewPartitionedMaintainer(Sliding(-1, 0), Sum); err == nil {
		t.Fatal("invalid window must be rejected")
	}
	pm, err := NewPartitionedMaintainer(Sliding(1, 1), Max)
	if err != nil {
		t.Fatal(err)
	}
	if err := pm.SetPartition("a", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pm.Append("nope", 2, 5); err == nil {
		t.Fatal("opening an unknown partition at position 2 must fail (non-dense)")
	}
	if _, _, err := pm.Append("a", 2, 5); err == nil {
		t.Fatal("insert into the middle of a partition must fail (not an append)")
	}
	if _, err := pm.DeleteSuffix("a", 1); err == nil {
		t.Fatal("delete of a non-suffix position must fail")
	}
	if _, err := pm.DeleteSuffix("nope", 1); err == nil {
		t.Fatal("delete in an unknown partition must fail")
	}
	if err := pm.Update("nope", 1, 0); err == nil {
		t.Fatal("update in an unknown partition must fail")
	}
	// Failed operations must leave the live partition untouched.
	partCheck(t, pm, "after rejected operations")
}

// TestPartitionedMaintainerTouched: a birth charges the stored positions it
// materializes, and per-partition counters aggregate across partitions.
func TestPartitionedMaintainerTouched(t *testing.T) {
	pm, err := NewPartitionedMaintainer(Sliding(2, 1), Sum)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pm.Append("a", 1, 5); err != nil {
		t.Fatal(err)
	}
	born := pm.Partition("a").Seq().Len()
	if got := pm.Touched(); got != born {
		t.Fatalf("birth touched %d positions, want the full stored range %d", got, born)
	}
	before := pm.Touched()
	if err := pm.Update("a", 1, 9); err != nil {
		t.Fatal(err)
	}
	if pm.Touched() <= before {
		t.Fatal("update did not accumulate into the partitioned Touched counter")
	}
}

// TestQuickPartitionedMaintainer drives a randomized partition workload —
// births, appends, updates, suffix deletes and deaths — and differentially
// checks every partition after every operation.
func TestQuickPartitionedMaintainer(t *testing.T) {
	rng := rand.New(rand.NewSource(20020602))
	for trial := 0; trial < 20; trial++ {
		aggs := []Agg{Sum, Count, Min, Max}
		agg := aggs[rng.Intn(len(aggs))]
		var w Window
		if rng.Intn(4) == 0 {
			w = Cumul()
		} else {
			l, h := rng.Intn(3), rng.Intn(3)
			if l+h == 0 {
				l = 1
			}
			w = Sliding(l, h)
		}
		pm, err := NewPartitionedMaintainer(w, agg)
		if err != nil {
			t.Fatal(err)
		}
		keys := []string{"a", "b"}
		for _, k := range keys {
			if err := pm.SetPartition(k, randRaw(rng, 2+rng.Intn(8))); err != nil {
				t.Fatal(err)
			}
		}
		born := 0
		for op := 0; op < 40; op++ {
			key := keys[rng.Intn(len(keys))]
			n, alive := pm.N(key)
			switch {
			case !alive || rng.Float64() < 0.1 && len(keys) < 6:
				born++
				key = string(rune('c' + born%8))
				if _, ok := pm.N(key); ok {
					continue // key already live; skip this round
				}
				if _, b, err := pm.Append(key, 1, float64(rng.Intn(40)-20)); err != nil || !b {
					t.Fatalf("birth of %q: born=%v err=%v", key, b, err)
				}
				keys = append(keys, key)
			case rng.Float64() < 0.3:
				if _, _, err := pm.Append(key, n+1, float64(rng.Intn(40)-20)); err != nil {
					t.Fatal(err)
				}
			case rng.Float64() < 0.3 && (n > 1 || len(keys) > 1):
				died, err := pm.DeleteSuffix(key, n)
				if err != nil {
					t.Fatal(err)
				}
				if died {
					for i, k := range keys {
						if k == key {
							keys = append(keys[:i], keys[i+1:]...)
							break
						}
					}
				}
			default:
				if err := pm.Update(key, 1+rng.Intn(n), float64(rng.Intn(40)-20)); err != nil {
					t.Fatal(err)
				}
			}
			partCheck(t, pm, agg.String()+" workload")
		}
	}
}

// avgCheck compares an AVG partition's derived values, bit for bit, with the
// naive AVG over its raw data at every stored position.
func avgCheck(t *testing.T, p *Partition, ctx string) {
	t.Helper()
	want, err := ComputeNaive(p.Raw(), p.Seq().Win, Avg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seq().Lo() != want.Lo() || p.Seq().Hi() != want.Hi() {
		t.Fatalf("%s: stored range [%d,%d], want [%d,%d]", ctx, p.Seq().Lo(), p.Seq().Hi(), want.Lo(), want.Hi())
	}
	for k := want.Lo(); k <= want.Hi(); k++ {
		got, _ := p.At(k)
		if math.Float64bits(got) != math.Float64bits(want.At(k)) {
			t.Fatalf("%s: AVG at %d = %v, want %v", ctx, k, got, want.At(k))
		}
	}
}

// TestPartitionAvgPair: an AVG partition is a SUM maintainer divided on read
// by the COUNT its window and cardinality imply (§2.1).
func TestPartitionAvgPair(t *testing.T) {
	for _, w := range []Window{Sliding(2, 1), Cumul()} {
		pm, err := NewPartitionedMaintainer(w, Avg)
		if err != nil {
			t.Fatal(err)
		}
		if err := pm.SetPartition("a", []float64{3, 1, 4, 1, 5}); err != nil {
			t.Fatal(err)
		}
		p := pm.Partition("a")
		if !p.avg || p.val.seq.Agg != Sum {
			t.Fatal("an AVG partition must hold a SUM maintainer")
		}
		avgCheck(t, p, "set")
		if err := pm.Update("a", 2, 0.5); err != nil {
			t.Fatal(err)
		}
		avgCheck(t, p, "update")
		if _, _, err := pm.Append("a", 6, -7); err != nil {
			t.Fatal(err)
		}
		avgCheck(t, p, "append")
		if err := pm.Insert("a", 3, 9); err != nil {
			t.Fatal(err)
		}
		avgCheck(t, p, "positional insert")
		if _, err := pm.Delete("a", 1); err != nil {
			t.Fatal(err)
		}
		avgCheck(t, p, "positional delete")
		if _, err := pm.DeleteSuffix("a", p.Len()); err != nil {
			t.Fatal(err)
		}
		avgCheck(t, p, "suffix delete")
		if _, born, err := pm.Append("b", 1, 2); err != nil || !born || !pm.Partition("b").FullRecompute() {
			t.Fatalf("birth of b: born=%v err=%v; a birth materializes the whole stored range", born, err)
		}
		avgCheck(t, pm.Partition("b"), "birth")
	}
}

// TestPinnedPartition: the one-partition case. A pinned partition exists
// while empty, is appended to rather than born, and survives its last row.
func TestPinnedPartition(t *testing.T) {
	pm, err := NewPartitionedMaintainer(Sliding(1, 1), Sum)
	if err != nil {
		t.Fatal(err)
	}
	if err := pm.Pin(""); err != nil {
		t.Fatal(err)
	}
	if n, ok := pm.N(""); !ok || n != 0 {
		t.Fatalf("pinned partition: N = %d,%v, want 0,true", n, ok)
	}
	if _, born, err := pm.Append("", 1, 5); err != nil || born {
		t.Fatalf("append to the empty pinned partition: born=%v err=%v", born, err)
	}
	partCheck(t, pm, "after append")
	if died, err := pm.DeleteSuffix("", 1); err != nil || died {
		t.Fatalf("emptying the pinned partition: died=%v err=%v", died, err)
	}
	if pm.Len() != 1 {
		t.Fatal("the pinned partition must survive its last row")
	}
	partCheck(t, pm, "after emptying")
	// Pinning a populated partition keeps its data.
	if err := pm.SetPartition("a", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := pm.Pin("a"); err != nil {
		t.Fatal(err)
	}
	if n, _ := pm.N("a"); n != 2 {
		t.Fatalf("Pin replaced the partition: n = %d", n)
	}
}
