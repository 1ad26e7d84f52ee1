package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of sorted values by the
// nearest-rank rule; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := rankOf(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// rankOf is the nearest rank of the p-th percentile among n samples; the
// small slack keeps 95% of 200 at 190 despite binary fractions.
func rankOf(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// beyond counts the samples above the p-th percentile of n.
func beyond(n int, p float64) int { return n - rankOf(p, n) }

const numSlices = 5

// sliceWork is the statements completed in each of the numSlices equal
// slices of the measured window. A statement that spans a slice boundary (or
// the window's end) counts in each slice by the share of its time spent
// there, so that a slow workload's rate is not quantized to whole statements
// per slice.
type sliceWork [numSlices]float64

// add credits one statement that ran from begin to end, both measured from
// the start of the window.
func (w *sliceWork) add(begin, end, window time.Duration) {
	if end <= begin {
		end = begin + 1
	}
	for i := range w {
		lo, hi := window*time.Duration(i)/numSlices, window*time.Duration(i+1)/numSlices
		if over := min(end, hi) - max(begin, lo); over > 0 {
			w[i] += float64(over) / float64(end-begin)
		}
	}
}

// rates turns the slices into statements per second and returns their
// median, minimum and maximum: a stall in one slice moves the extremes, not
// the reported rate.
func (w *sliceWork) rates(window time.Duration) (med, lo, hi float64) {
	rates := make([]float64, numSlices)
	for i, c := range w {
		rates[i] = c / (window.Seconds() / numSlices)
	}
	sort.Float64s(rates)
	return rates[numSlices/2], rates[0], rates[numSlices-1]
}

func msSorted(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}
