package main

import (
	"math"
	"sort"
	"time"
)

// median returns the median of xs (0 when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTail is how many observations must lie beyond a percentile before
// it is reported: a p99 needs at least 1000 observations.
const minTail = 10

// histogram counts non-negative integer observations by value.
type histogram struct {
	counts []int64
	n      int64
}

func (h *histogram) add(k int) {
	if k < 0 {
		k = 0
	}
	for k >= len(h.counts) {
		h.counts = append(h.counts, make([]int64, len(h.counts)+64)...)
	}
	h.counts[k]++
	h.n++
}

// quantile returns the nearest-rank q-quantile and whether at least
// minTail observations lie beyond that rank.  A quantile without that
// tail is not a measurement of the tail and must not be reported.
func (h *histogram) quantile(q float64) (int, bool) {
	if h.n == 0 {
		return 0, false
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for k, c := range h.counts {
		cum += c
		if cum >= rank {
			return k, h.n-rank >= minTail
		}
	}
	return len(h.counts) - 1, false
}

// Step times are binned on a log scale with 1% resolution, so the
// histogram stays small however many intervals a traced run steps.
const stepBinsPerE = 100

func stepBin(d time.Duration) int {
	if d < time.Nanosecond {
		d = time.Nanosecond
	}
	return int(math.Round(math.Log(float64(d)) * stepBinsPerE))
}

func stepBinMicros(k int) float64 {
	return math.Exp(float64(k)/stepBinsPerE) / 1e3
}
