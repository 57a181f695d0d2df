package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of vals,
// which it sorts in place. Nearest rank reports a value that was
// actually measured, so a p99 over few samples is the slowest sample
// and not an extrapolation past it.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	i := int(math.Ceil(p*float64(len(vals)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(vals) {
		i = len(vals) - 1
	}
	return vals[i]
}

// median returns the middle value of vals (the mean of the two middle
// values for an even count) without modifying vals.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the largest relative deviation of any value from the
// median: the noise guard's measure of how far one slice strayed.
func spread(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	worst := 0.0
	for _, v := range vals {
		if d := math.Abs(v-m) / math.Abs(m); d > worst {
			worst = d
		}
	}
	return worst
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vals, n=4) computes them (the "exclusive"
// method), so -compare agrees with the driver's acceptance arithmetic.
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n < 2 {
		if n == 1 {
			return vals[0], vals[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
