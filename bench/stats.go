package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the
// exclusive method, the default of Python's statistics.quantiles(n=4),
// so spreads printed here match the ones the acceptance check computes.
// It needs at least two values; with fewer both quartiles are the lone
// value (or 0).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// tailLadder lists the percentiles a tail latency may be reported at,
// ascending.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean something.
const minBeyond = 10

// tail returns the highest ladder percentile of xs that has at least
// minBeyond samples beyond it, its value (nearest rank), and how many
// samples lie beyond it.  With fewer than 2*minBeyond samples no ladder
// step qualifies and the maximum is returned as percentile 100 with 0
// samples beyond.
func tail(xs []float64) (pct, value float64, beyond int) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	pct, value, beyond = 100, s[n-1], 0
	for _, p := range tailLadder {
		r := nearestRank(p, n)
		if n-r < minBeyond {
			break
		}
		pct, value, beyond = p, s[r-1], n-r
	}
	return pct, value, beyond
}

// nearestRank is the 1-based rank of the p-th percentile among n
// sorted samples.
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
