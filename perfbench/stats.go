package main

import (
	"slices"
	"time"
)

// quantileMS returns the q-quantile of ds in milliseconds, interpolated
// between order statistics, or 0 for none. The solver workloads have
// few samples (five clips, seven tile ops), where a nearest-rank
// percentile would jump from one sample to the next. It sorts ds in
// place.
func quantileMS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	pos := q * float64(len(ds)-1)
	lo := int(pos)
	hi := min(lo+1, len(ds)-1)
	return (ds[lo].Seconds() + (pos-float64(lo))*(ds[hi]-ds[lo]).Seconds()) * 1000
}

// sum returns the total of ds.
func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 for none.
func median[T ~int64 | ~float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	ys := slices.Clone(xs)
	slices.Sort(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}
