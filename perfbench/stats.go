package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// p90 is reported only from at least 100 samples, so that ten of them sit
// above it.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values for an
// even count), or NaN for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or NaN for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1) and
// the number of samples strictly ranked beyond it. NaN for no samples.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sortedCopy(xs)[rank-1], n - rank
}

// tailOK reports whether the q-quantile of n samples has at least
// minBeyond samples beyond it, the rule for reporting a tail percentile.
func tailOK(n int, q float64) bool {
	rank := int(math.Ceil(q * float64(n)))
	return n-rank >= minBeyond
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
