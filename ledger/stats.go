package main

import (
	"math"
	"sort"
)

// summary is one timing series: its median, the highest standard
// percentile that still has at least tailMin samples beyond it, and the
// sample count both rest on.
type summary struct {
	N     int
	P50   float64
	TailQ float64 // e.g. 0.99; 0 when too few samples for any tail
	Tail  float64
	Mean  float64
}

const tailMin = 10

var tailQuantiles = []float64{0.9999, 0.999, 0.99, 0.9}

func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = quantile(sorted, 0.5)
	for _, q := range tailQuantiles {
		// The epsilon absorbs 1-q being inexact in binary floating point.
		if float64(len(sorted))*(1-q)+1e-9 >= tailMin {
			s.TailQ, s.Tail = q, quantile(sorted, q)
			break
		}
	}
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	s.Mean = sum / float64(len(sorted))
	return s
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	i := int(math.Floor(pos))
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(i)
	return sorted[i]*(1-f) + sorted[i+1]*f
}

func median(xs []float64) float64 { return summarize(xs).P50 }

// ratio returns a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
