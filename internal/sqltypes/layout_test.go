package sqltypes

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestDatumFitsFourWords pins the Datum layout: the Go compiler copies a
// struct of at most four machine words with inline stores, and a fifth word
// turns every store of a Datum into a window slab, a row or a cache entry
// into a runtime.wbMove or runtime.wbZero call.
func TestDatumFitsFourWords(t *testing.T) {
	if got := unsafe.Sizeof(Datum{}); got != 32 {
		t.Fatalf("Datum is %d bytes, want 32: four machine words are the most Go stores inline, "+
			"and a fifth brings back a runtime.wbMove call on every store", got)
	}
}

var slabSink []Row

// BenchmarkDatumSlab boxes 20k answers into a fresh row-major slab through a
// shuffled row permutation, as a window function writes the answers of a
// partition in evaluation order, then cuts the slab into rows.
func BenchmarkDatumSlab(b *testing.B) {
	const n, width, col = 20000, 3, 2
	ord := rand.New(rand.NewSource(1)).Perm(n)
	for _, typ := range []Type{Int, Float} {
		b.Run(typ.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				slab := make([]Datum, n*width)
				for j, r := range ord {
					if typ == Int {
						slab[r*width+col] = NewInt(int64(j))
					} else {
						slab[r*width+col] = NewFloat(float64(j) / 4)
					}
				}
				rows := make([]Row, n)
				for r := range rows {
					rows[r] = slab[r*width : (r+1)*width : (r+1)*width]
				}
				slabSink = rows
			}
		})
	}
}
