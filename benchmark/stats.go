package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method Python's statistics.quantiles(xs, n=4) uses —
// the driver computes its spreads with that function, so -selfcheck and
// the printed quartiles agree with what the driver will see. A single
// sample is its own quartiles; an empty slice yields NaNs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		// Rank k*(n+1)/4, 1-based; like Python, a rank outside the
		// sample extrapolates from the two nearest points.
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// worseBy reports by what share of base the value got worse, given the
// metric's direction; negative means it improved.
func worseBy(base, value float64, better string) float64 {
	if base == 0 {
		return math.NaN()
	}
	d := (value - base) / math.Abs(base)
	if better == "higher" {
		return -d
	}
	return d
}
