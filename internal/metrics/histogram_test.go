package metrics

import (
	"math"
	"math/bits"
	"reflect"
	"sync"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	var h Histogram
	// Exercise every boundary around the powers of two: value v must land
	// in bucket bits.Len64(v), whose inclusive range is [2^(i-1), 2^i).
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1025, 11}, {1 << 40, 41},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	s := h.Snapshot()
	counts := make(map[int]uint64)
	for _, c := range cases {
		counts[c.bucket]++
	}
	for i, got := range s.Buckets {
		if got != counts[i] {
			t.Errorf("bucket %d = %d, want %d", i, got, counts[i])
		}
	}
	if s.Count != uint64(len(cases)) {
		t.Errorf("count = %d, want %d", s.Count, len(cases))
	}
	var wantSum uint64
	for _, c := range cases {
		wantSum += uint64(c.v)
	}
	if s.Sum != wantSum {
		t.Errorf("sum = %d, want %d", s.Sum, wantSum)
	}
	// Negative samples clamp to the zero bucket rather than corrupting
	// state.
	h.Observe(-5)
	if got := h.Snapshot().Buckets[0]; got != counts[0]+1 {
		t.Errorf("negative sample: bucket 0 = %d, want %d", got, counts[0]+1)
	}
}

func TestBucketBound(t *testing.T) {
	for _, c := range []struct {
		i    int
		want uint64
	}{{0, 0}, {1, 1}, {2, 3}, {3, 7}, {10, 1023}, {64, math.MaxUint64}} {
		if got := BucketBound(c.i); got != c.want {
			t.Errorf("BucketBound(%d) = %d, want %d", c.i, got, c.want)
		}
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines;
// run under -race this proves Observe and Snapshot are data-race free,
// and the final counts must be exact since counters are atomic.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(int64(i % 4096))
				if i%1000 == 0 {
					_ = h.Snapshot() // concurrent reader
				}
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", s.Count, workers*perWorker)
	}
	var total uint64
	for _, c := range s.Buckets {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket total = %d, count = %d", total, s.Count)
	}
}

func TestHistogramSubAndMerge(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 100, 100, 5000} {
		h.Observe(v)
	}
	before := h.Snapshot()
	for _, v := range []int64{7, 100, 1 << 20} {
		h.Observe(v)
	}
	after := h.Snapshot()

	d := after.Sub(before)
	if d.Count != 3 {
		t.Errorf("delta count = %d, want 3", d.Count)
	}
	if d.Sum != 7+100+1<<20 {
		t.Errorf("delta sum = %d", d.Sum)
	}
	var want HistogramSnapshot
	for _, v := range []uint64{7, 100, 1 << 20} {
		want.AddValue(v, 1)
	}
	for i := range d.Buckets {
		var w uint64
		if i < len(want.Buckets) {
			w = want.Buckets[i]
		}
		if d.Buckets[i] != w {
			t.Errorf("delta bucket %d = %d, want %d", i, d.Buckets[i], w)
		}
	}

	// before + delta must reproduce after, bucket for bucket.
	m := before.Merge(d)
	if m.Count != after.Count || m.Sum != after.Sum {
		t.Fatalf("merge = {%d %d}, want {%d %d}", m.Count, m.Sum, after.Count, after.Sum)
	}
	for i := range after.Buckets {
		if m.Buckets[i] != after.Buckets[i] {
			t.Errorf("merge bucket %d = %d, want %d", i, m.Buckets[i], after.Buckets[i])
		}
	}

	// Sub against a larger snapshot saturates instead of wrapping.
	z := before.Sub(after)
	if z.Count != 0 || z.Sum != 0 {
		t.Errorf("saturating sub = {%d %d}, want zeros", z.Count, z.Sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if q := h.Snapshot().Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
	// 100 samples of value 10 (bucket [8,15]): every quantile must stay
	// inside the bucket.
	for i := 0; i < 100; i++ {
		h.Observe(10)
	}
	s := h.Snapshot()
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		q := s.Quantile(p)
		if q < 8 || q > 15 {
			t.Errorf("Quantile(%v) = %v, outside [8,15]", p, q)
		}
	}
	// Mixed distribution: the median of 90 small + 10 huge samples must be
	// small, p99 huge.
	var m Histogram
	for i := 0; i < 90; i++ {
		m.Observe(4)
	}
	for i := 0; i < 10; i++ {
		m.Observe(1 << 30)
	}
	ms := m.Snapshot()
	if q := ms.Quantile(0.5); q > 7 {
		t.Errorf("median = %v, want <= 7 (inside the bucket of value 4)", q)
	}
	if q := ms.Quantile(0.99); q < 1<<29 {
		t.Errorf("p99 = %v, want >= 2^29", q)
	}
	if got := ms.Mean(); math.Abs(got-(90*4+10*float64(1<<30))/100) > 1 {
		t.Errorf("mean = %v", got)
	}
}

func TestAddValueGrowsBuckets(t *testing.T) {
	var h HistogramSnapshot
	h.AddValue(0, 2)
	h.AddValue(1<<33, 1)
	if h.Count != 3 || h.Buckets[0] != 2 || h.Buckets[34] != 1 {
		t.Fatalf("AddValue gave %+v", h)
	}
	h.AddValue(5, 0) // zero count is a no-op
	if h.Count != 3 {
		t.Fatal("zero-count AddValue changed the snapshot")
	}
}

// TestObserveNEqualsRepeatedObserve: ObserveN(v, n) leaves a histogram
// exactly as n calls of Observe(v) do — counters, quantiles and rendered
// text — over zero, negatives, every bucket edge and the largest value; a
// weight of zero changes nothing, and no weight touches an exemplar.
func TestObserveNEqualsRepeatedObserve(t *testing.T) {
	values := []int64{0, -1, math.MinInt64, math.MaxInt64}
	for k := 0; k < 63; k++ {
		values = append(values, 1<<k-1, 1<<k)
	}
	rng := uint64(17)
	var weighted, repeated Histogram
	weighted.ObserveExemplar(5, 0xabc)
	repeated.ObserveExemplar(5, 0xabc)
	for i, v := range values {
		rng = rng*6364136223846793005 + 1442695040888963407
		n := rng >> 61 // 0..7, zero included
		if i == 0 {
			n = 0
		}
		before := weighted.Snapshot()
		weighted.ObserveN(v, n)
		if n == 0 && !reflect.DeepEqual(weighted.Snapshot(), before) {
			t.Fatalf("ObserveN(%d, 0) changed the histogram", v)
		}
		for j := uint64(0); j < n; j++ {
			repeated.Observe(v)
		}
	}
	got, want := weighted.Snapshot(), repeated.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ObserveN diverges from repeated Observe:\n got %+v\nwant %+v", got, want)
	}
	for _, p := range []float64{0.5, 0.99} {
		if g, w := got.Quantile(p), want.Quantile(p); g != w {
			t.Errorf("Quantile(%v) = %v, repeated Observe gives %v", p, g, w)
		}
	}
	text := func(h HistogramSnapshot) string {
		s := NewSnapshot()
		s.Hist("h", "help", h)
		return s.PrometheusText()
	}
	if g, w := text(got), text(want); g != w {
		t.Errorf("Prometheus text differs:\n got %s\nwant %s", g, w)
	}
	if ex := got.Exemplars[bits.Len64(5)]; ex != (Exemplar{TraceID: 0xabc, Value: 5}) {
		t.Errorf("ObserveN touched the exemplar: %+v", ex)
	}
}

// TestObserveNConcurrent mixes weighted and single observations with
// snapshots from many goroutines: clean under -race, and exact at the end.
// A scraper snapshots all the while: a histogram it could publish — one
// whose buckets do not add up to its count, or whose count went down — is
// not one Prometheus accepts, however briefly it was true.
func TestObserveNConcurrent(t *testing.T) {
	var h Histogram
	const workers, perWorker, weight = 8, 5000, 3
	var wg sync.WaitGroup
	writing, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		var last uint64
		for done := false; !done; {
			select {
			case <-writing:
				done = true // one more, of the final state
			default:
			}
			s := h.Snapshot()
			var total uint64
			for _, c := range s.Buckets {
				total += c
			}
			if total != s.Count || s.Count < last {
				t.Errorf("snapshot while writers run: buckets hold %d, Count %d, previous Count %d", total, s.Count, last)
				return
			}
			last = s.Count
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.ObserveN(int64(i%4096), weight)
				h.Observe(int64(i % 512))
				if i%500 == 0 {
					_ = h.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	close(writing)
	<-scraped
	s := h.Snapshot()
	if want := uint64(workers * perWorker * (weight + 1)); s.Count != want {
		t.Fatalf("count = %d, want %d", s.Count, want)
	}
	var total uint64
	for _, c := range s.Buckets {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket total = %d, count = %d", total, s.Count)
	}
}
