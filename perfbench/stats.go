package main

import (
	"math"
	"sort"
	"time"
)

// nearestRank returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule: the ceil(q·n)-th smallest sample. It returns NaN on
// an empty slice.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankIndex(len(sorted), q)]
}

// rankIndex is the zero-based index nearestRank reads.
func rankIndex(n int, q float64) int {
	// The epsilon keeps q·n that is an integer up to rounding (0.99·100)
	// from climbing to the next rank.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(rank, 1), n) - 1
}

// beyond is how many samples lie above the q-quantile's rank.
func beyond(n int, q float64) int { return n - 1 - rankIndex(n, q) }

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank median of xs.
func median(xs []float64) float64 { return nearestRank(sortedCopy(xs), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
