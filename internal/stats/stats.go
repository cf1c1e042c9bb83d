package stats

import (
	"fmt"
	"math"
)

// Mean is a running mean/variance accumulator (Welford's algorithm), used
// for per-packet lookup latencies where storing every sample would be
// wasteful.
type Mean struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one sample.
func (m *Mean) Add(x float64) {
	m.n++
	if m.n == 1 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// N returns the number of samples recorded.
func (m *Mean) N() int64 { return m.n }

// Mean returns the arithmetic mean of the samples (0 when empty).
func (m *Mean) Mean() float64 { return m.mean }

// Var returns the population variance of the samples.
func (m *Mean) Var() float64 {
	if m.n == 0 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// Std returns the population standard deviation.
func (m *Mean) Std() float64 { return math.Sqrt(m.Var()) }

// Min returns the smallest sample (0 when empty).
func (m *Mean) Min() float64 { return m.min }

// Max returns the largest sample (0 when empty).
func (m *Mean) Max() float64 { return m.max }

// String summarizes the accumulator for log lines.
func (m *Mean) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.0f max=%.0f",
		m.n, m.Mean(), m.Std(), m.min, m.max)
}

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
