package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// fastFifth is the timing estimator for setup_s and run_s: the mean of the
// fastest fifth of the samples, rounded up. The program under test is
// deterministic and single-threaded, so host noise only ever adds time; the
// fast tail is what the code costs and it repeats across runs where the
// median does not (README, "Noise policy").
func fastFifth(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	k := (len(s) + 4) / 5
	var sum float64
	for _, x := range s[:k] {
		sum += x
	}
	return sum / float64(k)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hiPercentile returns the highest whole percentile that still has at least
// ten samples beyond it, and the sample at that rank. With fewer than twenty
// samples no percentile above the median qualifies and it reports the median.
func hiPercentile(xs []float64) (pct int, v float64) {
	n := len(xs)
	if n < 20 {
		return 50, median(xs)
	}
	s := sorted(xs)
	pct = 100 * (n - 10) / n // floor: ceil(n*pct/100) <= n-10
	if pct > 99 {
		pct = 99
	}
	rank := (n*pct + 99) / 100 // samples at or below the percentile
	return pct, s[rank-1]
}

// splitSpread measures how repeatable an estimator is inside one set: the
// relative distance between its values on the even- and the odd-numbered
// samples. The comparator reports a host-time metric as unresolved when
// this exceeds the metric's bound.
func splitSpread(xs []float64, est func([]float64) float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	var even, odd []float64
	for i, x := range xs {
		if i%2 == 0 {
			even = append(even, x)
		} else {
			odd = append(odd, x)
		}
	}
	all := est(xs)
	if all == 0 {
		return 0
	}
	return math.Abs(est(even)-est(odd)) / all
}
