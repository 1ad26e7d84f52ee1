package core

import (
	"math/rand"
	"testing"
)

// BenchmarkComputePipelined is a REFRESH's pass over one partition: 100k
// integer-valued raw values under sliding SUM and MAX (2,2) and cumulative
// SUM.
func BenchmarkComputePipelined(b *testing.B) {
	raw := randRaw(rand.New(rand.NewSource(5)), 100000)
	for _, c := range []struct {
		name string
		w    Window
		agg  Agg
	}{
		{"sum-2-2", Sliding(2, 2), Sum},
		{"max-2-2", Sliding(2, 2), Max},
		{"sum-cumulative", Cumul(), Sum},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ComputePipelined(raw, c.w, c.agg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
