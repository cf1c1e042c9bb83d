package stats

import (
	"fmt"
	"math"
)

// Hist is an integer-valued histogram with unit-width bins up to a cap;
// samples at or above the cap land in the overflow bin. It retains enough
// to compute exact percentiles for bounded metrics such as lookup cycles.
type Hist struct {
	bins     []int64
	overflow int64
	n        int64
	sum      int64
}

// NewHist returns a histogram covering values [0, capValue).
func NewHist(capValue int) *Hist {
	if capValue < 1 {
		capValue = 1
	}
	return &Hist{bins: make([]int64, capValue)}
}

// Add records one sample; negative samples panic (latencies cannot be
// negative — a negative value is a simulator bug we want loudly).
func (h *Hist) Add(v int) {
	if v < 0 {
		panic(fmt.Sprintf("stats: negative histogram sample %d", v))
	}
	if v >= len(h.bins) {
		h.overflow++
	} else {
		h.bins[v]++
	}
	h.n++
	h.sum += int64(v)
}

// N returns the number of samples.
func (h *Hist) N() int64 { return h.n }

// Mean returns the sample mean.
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Percentile returns the smallest value v such that at least p (0..1) of
// the samples are <= v. Overflow samples report the cap.
func (h *Hist) Percentile(p float64) int {
	if h.n == 0 {
		return 0
	}
	target := int64(math.Ceil(p * float64(h.n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for v, c := range h.bins {
		cum += c
		if cum >= target {
			return v
		}
	}
	return len(h.bins)
}

// Overflow returns the number of samples at or above the cap.
func (h *Hist) Overflow() int64 { return h.overflow }

// Each calls f for every non-empty unit bin (value, count) in ascending
// value order, then once for the overflow bin with value == the cap. It
// lets exporters re-bucket the exact distribution (e.g. into the
// power-of-two metrics histograms) without exposing the bins slice.
func (h *Hist) Each(f func(value int, count int64)) {
	for v, c := range h.bins {
		if c > 0 {
			f(v, c)
		}
	}
	if h.overflow > 0 {
		f(len(h.bins), h.overflow)
	}
}
