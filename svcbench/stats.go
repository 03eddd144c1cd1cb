package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a p99 read off fewer than ten tail samples is one outlier
// wide, so such a tail is not reported as measured.
const minBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the q-quantile (q in [0, 1]) of xs, interpolating
// linearly between the closest ranks. It returns NaN for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 0.5-quantile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// beyond is how many of n samples lie strictly above the q-quantile.
func beyond(n int, q float64) int {
	return int(math.Floor(float64(n)*(1-q) + 1e-9))
}

// tailSupported reports whether n samples leave at least minBeyond
// samples beyond the q-quantile.
func tailSupported(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// quartiles returns the three cut points of xs into four groups,
// computed as Python's statistics.quantiles(xs, n=4) does with its
// default 'exclusive' method, so the spreads printed here match the
// ones an external check computes from the same values. It needs at
// least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// mean is the arithmetic mean; NaN for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// thirds splits xs, in time order, into its first and last third.
func thirds(xs []float64) (first, last []float64) {
	k := len(xs) / 3
	return xs[:k], xs[len(xs)-k:]
}
