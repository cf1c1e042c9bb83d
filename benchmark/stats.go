package main

import (
	"math"
	"slices"
)

// measured is one metric of one run: the value reported and the samples
// behind it (one per timed segment, or one per set-up), kept in -out
// records so a run's own spread can be looked at afterwards.
type measured struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), so
// spreads printed here are the ones the driver works out.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return median(xs), median(xs)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// percentile returns the smallest sample v such that at least ceil(p·n)
// samples are <= v (the convention internal/stats uses). sorted must be
// ascending and non-empty.
func percentile[T int32 | int64](sorted []T, p float64) float64 {
	rank := min(max(int(math.Ceil(p*float64(len(sorted)))), 1), len(sorted))
	return float64(sorted[rank-1])
}
