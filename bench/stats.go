package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of vals by linear interpolation
// between order statistics (NaN for no samples). vals is not modified.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(vals, n=4) does (the exclusive
// method), which is how the driver computes run-to-run spread.
func quartiles(vals []float64) (q1, med, q3 float64) {
	n := len(vals)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return vals[0], vals[0], vals[0]
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(i int) float64 {
		// CPython's integer arithmetic, clamping included.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
