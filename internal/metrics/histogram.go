// Package metrics is the observability substrate shared by the concurrent
// router, the LR-cache and the cycle simulator: a lock-free latency
// histogram, an immutable Snapshot/Delta model over named samples, and a
// Prometheus-text-format encoder with an opt-in HTTP handler.
//
// Everything the paper's evaluation (Sec. 5) measures — hit ratios, FE
// executions, fabric traffic, per-LC imbalance, lookup latency — flows
// through these types, so every layer reports through one vocabulary and
// one export path.
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of a live Histogram: bucket i holds
// samples v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i). Bucket 0
// holds exact zeros; 64 one-bit-per-bucket ranges cover all of uint64, so
// there is no overflow bin to lose tail samples in.
const NumBuckets = 65

// Histogram is a lock-free histogram with power-of-two bucket boundaries.
// Observe is safe for any number of concurrent writers (two atomic adds a
// call: the bucket and the sum); Snapshot is safe concurrently with writers
// and derives its Count from the buckets it read, so Count is their total
// in every snapshot, and Sum is at most one call per writer away from them
// (exact once writers quiesce).
//
// The unit is the caller's choice; the router records nanoseconds, the
// simulator records 5 ns cycles.
type Histogram struct {
	sum     atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
	// ex holds the last exemplar observed per bucket (OpenMetrics-style:
	// a trace id pinned to a concrete sample). Plain Observe never
	// touches it, so histograms without tracing carry no exemplars and
	// their Prometheus rendering is unchanged.
	ex [NumBuckets]bucketExemplar
}

// bucketExemplar is one bucket's latest exemplar; id 0 means none.
type bucketExemplar struct{ id, val atomic.Uint64 }

// Observe records one sample. Negative values clamp to zero (latencies
// cannot be negative; clamping keeps the hot path branch-light).
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n samples of the one value v for the price of one: the
// histogram ends up exactly as after n calls of Observe(v).
func (h *Histogram) ObserveN(v int64, n uint64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(n)
	h.sum.Add(uint64(v) * n)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// ObserveExemplar records one sample and attaches traceID as the
// containing bucket's exemplar (last writer wins — the conventional
// exemplar policy). traceID 0 degrades to a plain Observe.
func (h *Histogram) ObserveExemplar(v int64, traceID uint64) {
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	h.buckets[b].Add(1)
	h.sum.Add(uint64(v))
	if traceID != 0 {
		h.ex[b].id.Store(traceID)
		h.ex[b].val.Store(uint64(v))
	}
}

// Exemplar pins a trace id to the concrete sample value it was observed
// with, per histogram bucket. TraceID 0 means the bucket has none.
type Exemplar struct {
	TraceID uint64
	Value   uint64
}

// Snapshot captures the current counts. Trailing empty buckets are
// trimmed so snapshots of mostly-idle histograms stay small.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Sum: h.sum.Load()}
	top := -1
	var raw [NumBuckets]uint64
	for i := range h.buckets {
		raw[i] = h.buckets[i].Load()
		s.Count += raw[i]
		if raw[i] > 0 {
			top = i
		}
	}
	if top >= 0 {
		s.Buckets = append([]uint64(nil), raw[:top+1]...)
		for i := 0; i <= top; i++ {
			if id := h.ex[i].id.Load(); id != 0 {
				if s.Exemplars == nil {
					s.Exemplars = make([]Exemplar, top+1)
				}
				s.Exemplars[i] = Exemplar{TraceID: id, Value: h.ex[i].val.Load()}
			}
		}
	}
	return s
}

// HistogramSnapshot is an immutable point-in-time view of a Histogram:
// Buckets[i] counts samples v with bits.Len64(v) == i (see NumBuckets).
// Exemplars, when non-nil, runs parallel to Buckets (TraceID 0 = none).
type HistogramSnapshot struct {
	Count     uint64
	Sum       uint64
	Buckets   []uint64
	Exemplars []Exemplar
}

// BucketBound returns the inclusive upper bound of bucket i: 0 for bucket
// 0, else 2^i - 1.
func BucketBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// bucketLow returns the inclusive lower bound of bucket i.
func bucketLow(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return 1 << uint(i-1)
}

// AddValue folds count samples of value v into the snapshot — the bridge
// from exact external histograms (e.g. the simulator's unit-bin latency
// histogram) into the shared power-of-two shape.
func (h *HistogramSnapshot) AddValue(v uint64, count uint64) {
	if count == 0 {
		return
	}
	idx := bits.Len64(v)
	for len(h.Buckets) <= idx {
		h.Buckets = append(h.Buckets, 0)
	}
	h.Buckets[idx] += count
	h.Count += count
	h.Sum += v * count
}

// Mean returns Sum/Count (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an estimate of the p-quantile (p in 0..1), linearly
// interpolated within the containing power-of-two bucket.
func (h HistogramSnapshot) Quantile(p float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := uint64(math.Ceil(p * float64(h.Count)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		if cum+c >= target {
			lo, hi := bucketLow(i), BucketBound(i)
			frac := float64(target-cum) / float64(c)
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += c
	}
	return float64(BucketBound(len(h.Buckets) - 1))
}

// Sub returns the bucket-wise difference h - prev, the per-interval view
// of a monotonically growing histogram. Counters that went backwards
// (e.g. across a process restart) clamp to zero.
func (h HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{
		Count: subSat(h.Count, prev.Count),
		Sum:   subSat(h.Sum, prev.Sum),
	}
	if len(h.Buckets) > 0 {
		out.Buckets = make([]uint64, len(h.Buckets))
		for i, c := range h.Buckets {
			var p uint64
			if i < len(prev.Buckets) {
				p = prev.Buckets[i]
			}
			out.Buckets[i] = subSat(c, p)
		}
	}
	// Exemplars are point samples, not counters: the interval view keeps
	// the current ones.
	out.Exemplars = h.Exemplars
	return out
}

// Merge returns the bucket-wise sum of two snapshots (e.g. folding per-LC
// histograms into a router-wide one).
func (h HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	n := len(h.Buckets)
	if len(o.Buckets) > n {
		n = len(o.Buckets)
	}
	out := HistogramSnapshot{Count: h.Count + o.Count, Sum: h.Sum + o.Sum}
	if n > 0 {
		out.Buckets = make([]uint64, n)
		for i := range out.Buckets {
			if i < len(h.Buckets) {
				out.Buckets[i] += h.Buckets[i]
			}
			if i < len(o.Buckets) {
				out.Buckets[i] += o.Buckets[i]
			}
		}
	}
	if h.Exemplars != nil || o.Exemplars != nil {
		out.Exemplars = make([]Exemplar, n)
		for i := range out.Exemplars {
			if i < len(o.Exemplars) && o.Exemplars[i].TraceID != 0 {
				out.Exemplars[i] = o.Exemplars[i]
			}
			if i < len(h.Exemplars) && h.Exemplars[i].TraceID != 0 {
				out.Exemplars[i] = h.Exemplars[i]
			}
		}
	}
	return out
}

func subSat(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}
