package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return sortedQuantile(s, q)
}

// sortedQuantile is quantile for a non-empty ascending slice.
func sortedQuantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the distance between the quartiles as a share of the median:
// the run-to-run noise measure the bounds are compared against. With
// fewer than four samples it falls back to the full range.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	lo, hi := quantile(xs, 0.25), quantile(xs, 0.75)
	if len(xs) < 4 {
		lo, hi = slices.Min(xs), slices.Max(xs)
	}
	return math.Abs((hi - lo) / m)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }
