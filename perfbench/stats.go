package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples a reported tail percentile must have
// beyond it; a run that yields fewer is refused rather than reported.
const minBeyond = 10

// quantile returns the q-quantile of sorted xs by linear interpolation
// between order statistics (R-7, the convention internal/stats uses).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	h := float64(n-1) * q
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// beyond counts the order statistics of n samples ranked strictly above the
// position of the q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(float64(n-1)*q))
}

// dist summarizes one latency sample: its count, mean, median and one tail
// percentile.
type dist struct {
	n          int
	mean, p50  float64
	q, tail    float64
	tailBeyond int
}

// summarize sorts xs in place and summarizes it with tail quantile q. It
// fails when fewer than minBeyond samples lie beyond the median or the
// tail, so a percentile is never reported from too few samples.
func summarize(xs []float64, q float64) (dist, error) {
	sort.Float64s(xs)
	d := dist{n: len(xs), q: q, tailBeyond: beyond(len(xs), q)}
	if b := beyond(len(xs), 0.5); b < minBeyond {
		return d, fmt.Errorf("%d samples leave %d beyond the median, want at least %d", len(xs), b, minBeyond)
	}
	if d.tailBeyond < minBeyond {
		return d, fmt.Errorf("%d samples leave %d beyond p%g, want at least %d", len(xs), d.tailBeyond, 100*q, minBeyond)
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	d.mean = sum / float64(len(xs))
	d.p50 = quantile(xs, 0.5)
	d.tail = quantile(xs, q)
	return d, nil
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never used).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
