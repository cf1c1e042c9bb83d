package router

import (
	"context"
	"encoding/json"
	"math/bits"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spal/internal/cache"
	"spal/internal/ip"
	"spal/internal/metrics"
	"spal/internal/rtable"
	"spal/internal/stats"
)

// TestMetricsReconcileWithLCStats is the acceptance check of the
// observability redesign: the immutable Metrics snapshot (and its Delta)
// must agree exactly with the legacy live LCStats counters.
func TestMetricsReconcileWithLCStats(t *testing.T) {
	r, tbl := newTestRouter(t, 4, true)
	rng := stats.NewRNG(41)
	for i := 0; i < 300; i++ {
		if _, err := r.Lookup(i%4, tbl.RandomMatchedAddr(rng)); err != nil {
			t.Fatal(err)
		}
	}
	before := r.Metrics()
	for i := 0; i < 500; i++ {
		if _, err := r.Lookup(i%4, tbl.RandomMatchedAddr(rng)); err != nil {
			t.Fatal(err)
		}
	}
	// Batches too, each with in-batch duplicates, hits, and misses homed
	// here and elsewhere: a slot is a lookup and is observed like one.
	const batches, batchLen = 40, 48
	for i := 0; i < batches; i++ {
		if _, err := r.LookupBatch(i%4, batchAddrs(tbl, rng, batchLen)); err != nil {
			t.Fatal(err)
		}
	}
	const total = 800 + batches*batchLen
	after := r.Metrics()
	delta := after.Delta(before)

	legacy := r.Stats()
	for lc := 0; lc < 4; lc++ {
		lbl := metrics.L("lc", strconv.Itoa(lc))
		checks := []struct {
			name string
			want int64
		}{
			{MetricLookups, legacy[lc].Lookups.Load()},
			{MetricCacheHits, legacy[lc].CacheHits.Load()},
			{MetricFEExecs, legacy[lc].FEExecs.Load()},
			{MetricFabricRequests, legacy[lc].RequestsSent.Load()},
			{MetricFabricReplies, legacy[lc].RepliesSent.Load()},
			{MetricCoalesced, legacy[lc].Coalesced.Load()},
			{MetricStaleReplies, legacy[lc].StaleReplies.Load()},
			{MetricRetries, legacy[lc].Retries.Load()},
			{MetricFallbacks, legacy[lc].Fallbacks.Load()},
			{MetricDeadlineExpired, legacy[lc].DeadlineExpired.Load()},
			{MetricForwarded, legacy[lc].ForwardedRequests.Load()},
		}
		for _, c := range checks {
			got, ok := after.Value(c.name, lbl)
			if !ok || int64(got) != c.want {
				t.Errorf("LC %d %s = %v (ok=%v), legacy %d", lc, c.name, got, ok, c.want)
			}
		}
	}
	if got := delta.Sum(MetricLookups); got != total-300 {
		t.Errorf("delta lookups = %v, want %d", got, total-300)
	}
	if after.Sum(MetricLookups) != total {
		t.Errorf("total lookups = %v, want %d", after.Sum(MetricLookups), total)
	}
	// Latency histograms must account for every lookup exactly once, in
	// the class that served it, weighted observations included.
	var latCount uint64
	for lc := 0; lc < 4; lc++ {
		lbl := metrics.L("lc", strconv.Itoa(lc))
		for _, class := range []string{"cache", "fe", "remote"} {
			h, ok := after.HistValue(MetricLatency, lbl, metrics.L("served_by", class))
			if !ok {
				t.Fatalf("missing latency histogram lc=%d served_by=%s", lc, class)
			}
			latCount += h.Count
			var inBuckets uint64
			for _, c := range h.Buckets {
				inBuckets += c
			}
			if inBuckets != h.Count {
				t.Errorf("lc=%d served_by=%s: buckets hold %d samples, _count (the +Inf bucket) says %d", lc, class, inBuckets, h.Count)
			}
			if hits := legacy[lc].CacheHits.Load(); class == "cache" && h.Count != uint64(hits) {
				t.Errorf("lc=%d: %d cache-served latency samples, %d cache hits", lc, h.Count, hits)
			}
		}
	}
	if latCount != total {
		t.Errorf("latency samples = %d, want %d (one per lookup)", latCount, total)
	}
}

// TestBatchLatencyOneReadingOneWeight: a batch served from the cache on a
// quiet router is timed by one clock reading and recorded as one weighted
// observation — every slot in one bucket, the sum a multiple of the batch
// size — yet traced slots keep a sample each, exemplar and all, and every
// trace is finished by the time the verdicts can be read.
func TestBatchLatencyOneReadingOneWeight(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	// Longer than the list leave records from, so the traced run, one entry
	// a slot, also fills it and is recorded in two goes.
	const batch = maxFinished + 32
	addrs := distinctAddrs(tbl, stats.NewRNG(3), batch)
	hits := func(t *testing.T, opts ...Option) (*Router, metrics.HistogramSnapshot) {
		t.Helper()
		// One LC, so everything is homed where it arrives; the long timeout
		// keeps the tickers out of the way.
		r, err := New(tbl, append([]Option{WithLCs(1), WithDefaultCache(), WithRequestTimeout(time.Minute)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Stop)
		cacheLat := func() metrics.HistogramSnapshot {
			h, _ := r.Metrics().HistValue(MetricLatency, metrics.L("lc", "0"), metrics.L("served_by", "cache"))
			return h
		}
		if _, err := r.LookupBatch(0, addrs); err != nil { // warm: all FE
			t.Fatal(err)
		}
		before := cacheLat()
		out, err := r.LookupBatch(0, addrs)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range out {
			if v.ServedBy != ServedByCache {
				t.Fatalf("warmed batch slot served by %s", v.ServedBy)
			}
		}
		if r.tracer != nil { // finished before the verdicts were readable
			if n := len(r.Traces()); n != 2*batch {
				t.Fatalf("%d traces finished when the batch returned, want %d", n, 2*batch)
			}
		}
		return r, cacheLat().Sub(before)
	}

	t.Run("untraced", func(t *testing.T) {
		_, d := hits(t)
		filled := 0
		for _, c := range d.Buckets {
			if c != 0 {
				filled++
			}
		}
		if d.Count != batch || filled != 1 || d.Sum == 0 || d.Sum%batch != 0 {
			t.Errorf("all-hit batch of %d recorded as %+v; want one bucket, count %d, sum a multiple of it", batch, d, batch)
		}
	})
	t.Run("traced", func(t *testing.T) {
		r, d := hits(t, WithTraceSampling(1))
		if d.Count != batch {
			t.Fatalf("traced all-hit batch recorded %d samples, want %d", d.Count, batch)
		}
		traced := map[uint64]bool{}
		for _, tr := range r.Traces()[batch:] {
			if tr.ServedBy != ServedByCache.String() {
				t.Fatalf("trace %d served by %s, want cache", tr.ID, tr.ServedBy)
			}
			traced[tr.ID] = true
		}
		pinned := 0
		for i, ex := range d.Exemplars {
			if d.Buckets[i] != 0 && !traced[ex.TraceID] {
				t.Errorf("bucket %d holds %d samples of the batch and exemplar %d, not one of its traces", i, d.Buckets[i], ex.TraceID)
			}
			if ex.TraceID != 0 {
				pinned++
			}
		}
		if pinned == 0 {
			t.Error("no sample of the traced batch carries an exemplar")
		}
	})
}

// checkLatencyCounts is the count contract of spal_router_lookup_latency_ns
// on a quiescent router: per LC, every histogram's buckets add up to its
// _count, served_by="cache" has counted every cache hit, and the classes
// between them every lookup.
func checkLatencyCounts(t *testing.T, r *Router, s *metrics.Snapshot) {
	t.Helper()
	for lc, st := range r.Stats() {
		lbl := metrics.L("lc", strconv.Itoa(lc))
		var all uint64
		for _, class := range []string{"cache", "fe", "remote", "fallback"} {
			h, ok := s.HistValue(MetricLatency, lbl, metrics.L("served_by", class))
			if !ok {
				t.Fatalf("missing latency histogram lc=%d served_by=%s", lc, class)
			}
			var inBuckets uint64
			for _, c := range h.Buckets {
				inBuckets += c
			}
			if inBuckets != h.Count {
				t.Errorf("lc=%d served_by=%s: buckets hold %d samples, _count says %d", lc, class, inBuckets, h.Count)
			}
			if hits := st.CacheHits.Load(); class == "cache" && h.Count != uint64(hits) {
				t.Errorf("lc=%d: %d cache-served latency samples, %d cache hits", lc, h.Count, hits)
			}
			all += h.Count
		}
		if n := st.Lookups.Load(); all != uint64(n) {
			t.Errorf("lc=%d: %d latency samples, %d lookups", lc, all, n)
		}
	}
}

// TestHitLatencyCountsEveryHit: an inline cache hit reads the clock one
// time in hitTimedEvery, and the latency histogram still counts every one of
// them at every scrape — the untimed ones at what the nearest timed inline
// hit took, never at what a batch slot did, which times a whole run — and
// after Stop. The clock is the test's: every reading is one step on, so an
// inline hit takes one step and a batch, read at submission, in the scan and
// when its run ends, two.
func TestHitLatencyCountsEveryHit(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	const batch, hitStep, batchStep = 64, 100, 5000
	addrs := distinctAddrs(tbl, stats.NewRNG(3), batch)
	// One LC, so everything is homed where it arrives; the long timeout
	// keeps the tickers off the clock.
	r, err := New(tbl, WithLCs(1), WithDefaultCache(), WithRequestTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if _, err := r.LookupBatch(0, addrs); err != nil { // warm: all FE
		t.Fatal(err)
	}
	var now, step atomic.Int64
	step.Store(hitStep)
	r.clock = func() int64 { return now.Add(step.Load()) }
	hit := func(i int) {
		t.Helper()
		if v, err := r.Lookup(0, addrs[i%batch]); err != nil || v.ServedBy != ServedByCache {
			t.Fatalf("Lookup %d = %+v, %v; want a cache hit", i, v, err)
		}
	}
	cacheLat := func(s *metrics.Snapshot) metrics.HistogramSnapshot {
		h, _ := s.HistValue(MetricLatency, metrics.L("lc", "0"), metrics.L("served_by", "cache"))
		return h
	}

	// A scrape after every hit, then after every seventh: whatever a scrape
	// finds untimed, it finds counted.
	for i := 0; i < 100; i++ {
		hit(i)
		if i < 20 || i%7 == 0 {
			s := r.Metrics()
			checkLatencyCounts(t, r, s)
			if cacheLat(s).Sum == 0 {
				t.Fatalf("hit %d: no latency recorded; the first inline hit at an LC is timed", i)
			}
		}
	}

	// One timed hit and five untimed ones still unrecorded when a batch two
	// orders of magnitude slower is: they are recorded by the scrape after
	// it, in their own bucket, not with its slots.
	before := r.Metrics()
	for i := 0; i < 6; i++ {
		hit(i)
	}
	step.Store(batchStep)
	out, err := r.LookupBatch(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v.ServedBy != ServedByCache {
			t.Fatalf("warmed batch slot served by %s", v.ServedBy)
		}
	}
	step.Store(hitStep)
	after := r.Metrics()
	checkLatencyCounts(t, r, after)
	d := cacheLat(after).Sub(cacheLat(before))
	want := make([]uint64, len(d.Buckets))
	want[bits.Len64(hitStep)], want[bits.Len64(2*batchStep)] = 6, batch
	if !slices.Equal(d.Buckets, want) || d.Sum != 6*hitStep+batch*2*batchStep {
		t.Errorf("six inline hits at %d ns and a %d-hit batch at %d ns recorded as %+v", hitStep, batch, 2*batchStep, d)
	}

	// Stop folds what no scrape will: the identity holds on the final counts.
	for i := 0; i < 4; i++ {
		hit(i)
	}
	r.Stop()
	checkLatencyCounts(t, r, r.Metrics())
}

func TestMetricsIncludeCacheOccupancy(t *testing.T) {
	r, tbl := newTestRouter(t, 2, true)
	rng := stats.NewRNG(43)
	for i := 0; i < 400; i++ {
		if _, err := r.Lookup(i%2, tbl.RandomMatchedAddr(rng)); err != nil {
			t.Fatal(err)
		}
	}
	s := r.Metrics()
	var occ float64
	for _, origin := range []string{"loc", "rem", "waiting"} {
		for lc := 0; lc < 2; lc++ {
			v, ok := s.Value(cache.MetricOccupancy, metrics.L("lc", strconv.Itoa(lc)), metrics.L("origin", origin))
			if !ok {
				t.Fatalf("missing occupancy lc=%d origin=%s", lc, origin)
			}
			occ += v
		}
	}
	if occ == 0 {
		t.Error("no cache occupancy after 400 lookups")
	}
	if probes := s.Sum(cache.MetricProbes); probes == 0 {
		t.Error("no cache probes recorded")
	}
	if _, ok := s.Value(MetricHitRatio); !ok {
		t.Error("missing router-wide hit ratio")
	}
	// The snapshot must render to valid non-empty Prometheus text.
	text := s.PrometheusText()
	if !strings.Contains(text, "# TYPE "+MetricLatency+" histogram") {
		t.Error("Prometheus text missing latency histogram family")
	}
	if !strings.Contains(text, cache.MetricOccupancy) {
		t.Error("Prometheus text missing cache occupancy")
	}
}

func TestMetricsAfterStop(t *testing.T) {
	r, tbl := newTestRouter(t, 2, true)
	rng := stats.NewRNG(47)
	for i := 0; i < 50; i++ {
		if _, err := r.Lookup(i%2, tbl.RandomMatchedAddr(rng)); err != nil {
			t.Fatal(err)
		}
	}
	r.Stop()
	done := make(chan *metrics.Snapshot, 1)
	go func() { done <- r.Metrics() }()
	select {
	case s := <-done:
		if s.Sum(MetricLookups) != 50 {
			t.Errorf("post-stop lookups = %v, want 50", s.Sum(MetricLookups))
		}
		checkLatencyCounts(t, r, s) // Stop recorded the inline hits left untimed
		// Cache internals are not read once the router has stopped; the
		// snapshot simply omits them rather than blocking.
		if _, ok := s.Value(cache.MetricProbes, metrics.L("lc", "0")); ok {
			t.Log("note: cache counters present post-stop (send won a race); acceptable")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Metrics() hung on a stopped router")
	}
}

func TestLookupCtx(t *testing.T) {
	r, tbl := newTestRouter(t, 2, true)
	rng := stats.NewRNG(53)
	a := tbl.RandomMatchedAddr(rng)

	v, err := r.LookupCtx(context.Background(), 0, a)
	if err != nil || !v.OK {
		t.Fatalf("LookupCtx = %+v, %v", v, err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.LookupCtx(cancelled, 0, a); err != context.Canceled {
		t.Errorf("cancelled ctx err = %v, want context.Canceled", err)
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := r.LookupCtx(expired, 0, a); err != context.DeadlineExceeded {
		t.Errorf("expired ctx err = %v, want context.DeadlineExceeded", err)
	}

	if _, err := r.LookupCtx(context.Background(), 99, a); err == nil {
		t.Error("invalid LC must fail")
	}

	r.Stop()
	if _, err := r.LookupCtx(context.Background(), 0, a); err != ErrStopped {
		t.Errorf("post-stop err = %v, want ErrStopped", err)
	}
}

func TestServedByStringAndText(t *testing.T) {
	cases := []struct {
		s    ServedBy
		want string
	}{
		{ServedByUnknown, "unknown"},
		{ServedByCache, "cache"},
		{ServedByFE, "fe"},
		{ServedByRemote, "remote"},
		{ServedByFallback, "fallback"},
	}
	for _, c := range cases {
		if c.s.String() != c.want {
			t.Errorf("%d.String() = %q", c.s, c.s.String())
		}
		b, err := c.s.MarshalText()
		if err != nil || string(b) != c.want {
			t.Errorf("MarshalText(%v) = %q, %v", c.s, b, err)
		}
		var back ServedBy
		if err := back.UnmarshalText(b); err != nil || back != c.s {
			t.Errorf("UnmarshalText(%q) = %v, %v", b, back, err)
		}
	}
	var s ServedBy
	if err := s.UnmarshalText([]byte("bogus")); err == nil {
		t.Error("bogus name must fail")
	}
	if got := ServedBy(200).String(); got != "ServedBy(200)" {
		t.Errorf("out-of-range String = %q", got)
	}
}

func TestWaitlistDepthGauge(t *testing.T) {
	r, tbl := newTestRouter(t, 2, true)
	rng := stats.NewRNG(59)
	for i := 0; i < 100; i++ {
		if _, err := r.Lookup(i%2, tbl.RandomMatchedAddr(rng)); err != nil {
			t.Fatal(err)
		}
	}
	// Quiesced router: nothing may remain parked.
	s := r.Metrics()
	for lc := 0; lc < 2; lc++ {
		if v, ok := s.Value(MetricWaitlistDepth, metrics.L("lc", strconv.Itoa(lc))); !ok || v != 0 {
			t.Errorf("idle waitlist depth lc=%d = %v (ok=%v), want 0", lc, v, ok)
		}
	}
}

func TestVerdictJSONStable(t *testing.T) {
	// The enum migration must not change the JSON wire form of Verdict.
	v := Verdict{Addr: 0x0a010203, NextHop: 7, OK: true, ServedBy: ServedByCache}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"ServedBy":"cache"`) {
		t.Errorf("JSON = %s, want ServedBy encoded as \"cache\"", b)
	}
}

// TestInlineHitCountersExact: an untraced inline cache hit bumps no shared
// counter — its lookup, its cache hit and its inline handler run are counted
// by foldHits — and still Stats and Metrics each read them exact; a held
// Stats slice never shows more hits than lookups or a count going back while
// callers hit, and is exact within one tick of the last hit without another
// Stats call; Stats allocates nothing.
func TestInlineHitCountersExact(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	// warm returns a ψ = 2 router whose LC 0 has addr's answer cached and has
	// counted no lookup and no inline run: LC 1 looked addr up, and asked LC 0,
	// its idle home, by call (path="direct"). The timeout sets the tick.
	warm := func(t *testing.T, timeout time.Duration) (*Router, ip.Addr) {
		t.Helper()
		r, err := New(tbl, WithLCs(2), WithDefaultCache(), WithRequestTimeout(timeout))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Stop)
		rng := stats.NewRNG(5)
		addr := tbl.RandomMatchedAddr(rng)
		for r.HomeLC(addr) != 0 {
			addr = tbl.RandomMatchedAddr(rng)
		}
		if _, err := r.Lookup(1, addr); err != nil {
			t.Fatal(err)
		}
		return r, addr
	}
	hit := func(t *testing.T, r *Router, addr ip.Addr, n int) {
		for i := 0; i < n; i++ {
			if v, err := r.Lookup(0, addr); err != nil || v.ServedBy != ServedByCache {
				t.Errorf("lookup %d: %+v, %v; want a cache hit", i, v, err)
				return
			}
		}
	}
	const hits = 37 // not a multiple of hitTimedEvery: the timed hits' folds leave four to the read
	lbl := metrics.L("lc", "0")

	// The hour-long timeout keeps ticks out: only the read itself folds.
	t.Run("Stats", func(t *testing.T) {
		r, addr := warm(t, time.Hour)
		hit(t, r, addr, hits)
		st := r.Stats()[0]
		if l, h, in := st.Lookups.Load(), st.CacheHits.Load(), r.lcs[0].handledInline.Load(); l != hits || h != hits || in != hits {
			t.Errorf("after %d hits Stats reads %d lookups, %d cache hits, %d inline runs", hits, l, h, in)
		}
	})
	t.Run("Metrics", func(t *testing.T) {
		r, addr := warm(t, time.Hour)
		hit(t, r, addr, hits)
		s := r.Metrics()
		for _, c := range []struct {
			name string
			lbls []metrics.Label
		}{
			{MetricLookups, []metrics.Label{lbl}},
			{MetricCacheHits, []metrics.Label{lbl}},
			{MetricHandled, []metrics.Label{lbl, metrics.L("path", "inline")}},
		} {
			if got, ok := s.Value(c.name, c.lbls...); !ok || got != hits {
				t.Errorf("after %d hits %s%v = %v (ok=%v)", hits, c.name, c.lbls, got, ok)
			}
		}
	})

	// A one-millisecond tick. The reader loads CacheHits before Lookups: a
	// lookup is counted before its hit, live or folded, so hits ≤ lookups.
	t.Run("held", func(t *testing.T) {
		r, addr := warm(t, 4*time.Millisecond)
		st := r.Stats()[0]
		const callers, each = 2, 3000
		stop, read := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(read)
			var lastL, lastH int64
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				h := st.CacheHits.Load()
				l := st.Lookups.Load()
				if h > l || l < lastL || h < lastH {
					t.Errorf("read %d: %d lookups, %d cache hits after %d, %d", n, l, h, lastL, lastH)
					return
				}
				lastL, lastH = l, h
				runtime.Gosched()
			}
		}()
		var wg sync.WaitGroup
		for range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				hit(t, r, addr, each)
			}()
		}
		wg.Wait()
		// A tick that stamps after the last hit folded after it (see tick).
		lc := r.lcs[0]
		t0 := lc.lastTick.Load()
		waitFor(t, "a tick after the last hit", func() bool { return lc.lastTick.Load() != t0 })
		close(stop)
		<-read
		if l, h := st.Lookups.Load(), st.CacheHits.Load(); l != callers*each || h != callers*each {
			t.Errorf("a tick after %d hits the held slice reads %d lookups, %d cache hits", callers*each, l, h)
		}
	})

	t.Run("allocs", func(t *testing.T) {
		if raceEnabled {
			t.Skip("race-detector instrumentation allocates; the zero-alloc gate runs in CI's nonrace job")
		}
		r, addr := warm(t, time.Hour)
		// A hit first, so that every Stats has a fold to run under the lock.
		if n := testing.AllocsPerRun(200, func() {
			hit(t, r, addr, 1)
			r.Stats()
		}); n != 0 {
			t.Errorf("a hit and a Stats allocate %.2f/op, want 0", n)
		}
	})
}
