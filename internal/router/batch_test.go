// Batch data-plane tests: the batch plane must return oracle-correct,
// positionally ordered verdicts under fabric chaos and LC crashes,
// recycle abandoned descriptors instead of leaking, and hold the
// zero-allocation budget on its steady-state paths. The Chaos* tests here ride CI's chaos seed matrix
// (they honor SPAL_CHAOS_SEED).
package router

import (
	"context"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spal/internal/fabric"
	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/rtable"
	"spal/internal/stats"
)

// batchAddrs builds one batch worth of addresses: matched, random (maybe
// unmatched), and deliberate duplicates, the three shapes the positional
// guarantee has to hold for.
func batchAddrs(tbl *rtable.Table, rng *stats.RNG, n int) []ip.Addr {
	addrs := make([]ip.Addr, n)
	for i := range addrs {
		switch {
		case i%5 == 4 && i > 1:
			addrs[i] = addrs[i/2] // duplicate of an earlier entry
		case i%3 == 0:
			addrs[i] = rng.Uint32() // may be unmatched
		default:
			addrs[i] = tbl.RandomMatchedAddr(rng)
		}
	}
	return addrs
}

// distinctAddrs draws n distinct matched addresses: looked up once each,
// every one of them misses.
func distinctAddrs(tbl *rtable.Table, rng *stats.RNG, n int) []ip.Addr {
	seen := make(map[ip.Addr]bool, n)
	addrs := make([]ip.Addr, 0, n)
	for len(addrs) < n {
		if a := tbl.RandomMatchedAddr(rng); !seen[a] {
			seen[a] = true
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// checkBatch asserts the positional guarantee and oracle correctness of
// one batch result.
func checkBatch(addrs []ip.Addr, out []Verdict, oracle *lpm.Reference) string {
	if len(out) != len(addrs) {
		return "verdict count " + strconv.Itoa(len(out)) + " != batch size " + strconv.Itoa(len(addrs))
	}
	for i, a := range addrs {
		if out[i].Addr != a {
			return "out[" + strconv.Itoa(i) + "] answers " + ip.FormatAddr(out[i].Addr) + ", not " + ip.FormatAddr(a)
		}
		if !verdictMatches(out[i], oracle, a) {
			return "wrong verdict for " + ip.FormatAddr(a) + " served by " + out[i].ServedBy.String()
		}
	}
	return ""
}

// TestChaosBatchEquivalence drives a batched workload through the batch
// plane under a seeded fault schedule: every batch must be positionally
// ordered and correct against the independent lpm.NewReference oracle.
// (The name dates from when a second, per-address batch plane ran the
// same workload; the oracle was always the reference both were held to.)
func TestChaosBatchEquivalence(t *testing.T) {
	tbl := rtable.Small(2000, 23)
	oracle := lpm.NewReference(tbl)
	for _, seed := range chaosSeeds(t) {
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			r, err := New(tbl, WithLCs(4), WithDefaultCache(),
				WithFaultInjector(fabric.NewFaults(seed, fabric.LinkConfig{
					DropRate: 0.05, DupRate: 0.10,
					DelayRate: 0.10, Jitter: 2 * time.Millisecond,
				}).Decide),
				WithRequestTimeout(3*time.Millisecond), WithMaxRetries(2))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()
			const perLC, batchLen = 25, 48
			var wg sync.WaitGroup
			errs := make(chan string, 64)
			for lc := 0; lc < 4; lc++ {
				wg.Add(1)
				go func(lc int) {
					defer wg.Done()
					rng := stats.NewRNG(seed + uint64(lc)*977)
					for i := 0; i < perLC; i++ {
						addrs := batchAddrs(tbl, rng, batchLen)
						out, err := r.LookupBatch(lc, addrs)
						if err != nil {
							errs <- err.Error()
							return
						}
						if msg := checkBatch(addrs, out, oracle); msg != "" {
							errs <- msg
							return
						}
					}
				}(lc)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}
			s := r.Metrics()
			if s.Sum(MetricBatches) != 4*perLC {
				t.Errorf("batches metric = %v, want %d", s.Sum(MetricBatches), 4*perLC)
			}
			if s.Sum(MetricFabricRequests) == 0 {
				t.Error("batch plane sent no fabric requests")
			}
			checkDrained(t, r)
		})
	}
}

// TestChaosKillLCBatchEquivalence crashes a line card in the middle of a
// batched storm over a lossy fabric: every batch — including ones whose
// sub-lookups were parked at the dead LC and re-homed, or submitted at
// the dead slot before its rebirth — must stay positionally ordered and
// oracle-correct, with none lost.
func TestChaosKillLCBatchEquivalence(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	oracle := lpm.NewReference(tbl)
	for _, seed := range chaosSeeds(t) {
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			r, err := New(tbl, WithLCs(4), WithDefaultCache(),
				WithFaultInjector(fabric.NewFaults(seed, fabric.LinkConfig{DropRate: 0.10}).Decide),
				WithRequestTimeout(2*time.Millisecond), WithMaxRetries(2))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()

			var wg sync.WaitGroup
			var served atomic.Int64
			errs := make(chan string, 64)
			const perLC, batchLen = 30, 32
			for lc := 0; lc < 4; lc++ {
				wg.Add(1)
				go func(lc int) {
					defer wg.Done()
					rng := stats.NewRNG(seed + uint64(lc)*101)
					for i := 0; i < perLC; i++ {
						addrs := batchAddrs(tbl, rng, batchLen)
						out, err := r.LookupBatch(lc, addrs)
						if err != nil {
							errs <- err.Error()
							return
						}
						if msg := checkBatch(addrs, out, oracle); msg != "" {
							errs <- msg
							return
						}
						served.Add(int64(len(out)))
					}
				}(lc)
			}

			waitFor(t, "traffic to start", func() bool { return served.Load() > 100 })
			if err := r.KillLC(2); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "LC 2 to be declared down", func() bool {
				return r.LCStates()[2] == LCDown
			})

			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}
			if got := served.Load(); got != 4*perLC*batchLen {
				t.Fatalf("served %d sub-lookups, want %d (none may be lost)", got, 4*perLC*batchLen)
			}
			if s := r.Metrics(); s.Sum(MetricRehomes) < 1 {
				t.Error("no re-homing recorded after the LC death")
			}
			checkDrained(t, r)
		})
	}
}

// TestLookupBatchCancelRecyclesDescriptor is the regression test for the
// old batch path's cancellation leak: a caller that abandons a batch
// mid-flight must leave nothing behind — the last in-flight sub-lookup
// returns the descriptor to the pool, observable via batchRecycled.
func TestLookupBatchCancelRecyclesDescriptor(t *testing.T) {
	tbl := rtable.Small(2000, 41)
	// A fabric that drops everything plus disabled retries: remote misses
	// hang for one full request timeout, then resolve via fallback —
	// comfortably after the caller's context has fired.
	r, err := New(tbl, WithLCs(2),
		WithFaultInjector(fabric.NewFaults(1, fabric.LinkConfig{DropRate: 1}).Decide),
		WithRequestTimeout(20*time.Millisecond), WithMaxRetries(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	// All-remote addresses so no sub-lookup can resolve inline.
	rng := stats.NewRNG(9)
	var addrs []ip.Addr
	for len(addrs) < 16 {
		a := tbl.RandomMatchedAddr(rng)
		if r.HomeLC(a) != 0 {
			addrs = append(addrs, a)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancel()
	if err := r.LookupBatchInto(ctx, 0, addrs, make([]Verdict, len(addrs))); err != context.DeadlineExceeded {
		t.Fatalf("LookupBatchInto = %v, want context.DeadlineExceeded", err)
	}
	waitFor(t, "abandoned descriptor to be recycled", func() bool {
		return r.batchRecycled.Load() >= 1
	})
}

// TestLookupBatchSteadyStateAllocs is the batch plane's budget: once warm,
// a batch served entirely from the LR-cache, a batch resolved entirely by
// the local home's batched FE sweep, and a batch of cold addresses scattered
// over idle homes (each exchange a call, batchDirect) must allocate nothing;
// a home that is busy when the batch arrives costs its fabric payloads — one
// request and one reply — and nothing per address.
func TestLookupBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the zero-alloc gate runs in CI's nonrace job")
	}
	tbl := rtable.Small(2000, 7)
	const batch, runs, warm = 64, 1000, 5
	// Far more addresses than 4 LCs × 4096 blocks, for the cold row.
	pool := distinctAddrs(tbl, stats.NewRNG(3), batch*(runs+warm+1))
	out := make([]Verdict, batch)

	// measure reports allocations per batch, every batch the next one of
	// next's, on a warm router.
	measure := func(t *testing.T, next func() []ip.Addr, opts ...Option) float64 {
		t.Helper()
		// The long timeout quiets the deadline ticker and health monitor
		// so AllocsPerRun sees only the batch path.
		r, err := New(tbl, append([]Option{WithRequestTimeout(time.Second)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Stop()
		lookup := func() {
			if err := r.LookupBatchInto(context.Background(), 0, next(), out); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < warm; i++ { // pool, scratch, free list, outbox, cache
			lookup()
		}
		return testing.AllocsPerRun(runs, lookup)
	}
	same := func() []ip.Addr { return pool[:batch] }

	t.Run("cache-hit", func(t *testing.T) {
		if n := measure(t, same, WithLCs(1), WithDefaultCache()); n != 0 {
			t.Errorf("warmed cache-hit batch allocates %.2f/op, want 0", n)
		}
	})
	t.Run("local-home", func(t *testing.T) {
		if n := measure(t, same, WithLCs(1), WithoutCache(), WithEngineName("lulea")); n != 0 {
			t.Errorf("local-home batch allocates %.2f/op, want 0", n)
		}
	})
	t.Run("remote-home-cold", func(t *testing.T) {
		const lcs = 4
		at := 0
		fresh := func() []ip.Addr { at += batch; return pool[at-batch : at] }
		if n := measure(t, fresh, WithLCs(lcs), WithDefaultCache(), WithEngineName("lulea")); n != 0 {
			t.Errorf("cold batch over %d idle remote homes allocates %.2f/op, want 0: every exchange is a call", lcs-1, n)
		}
	})
	t.Run("remote-home-busy", func(t *testing.T) {
		// Every address homed at LC 1 of two, whose lock the test holds when
		// the batch is submitted and gives up once the request is in its queue:
		// the exchange is two messages, a request and a reply payload.
		r, err := New(tbl, WithLCs(2), WithDefaultCache(), WithEngineName("lulea"), WithRequestTimeout(time.Second))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Stop()
		addrs := remoteAddrs(t, r, tbl, stats.NewRNG(5), 1, batch*(runs+warm+1))
		h := r.lcs[1]
		var held atomic.Bool
		letGo := func() {
			if held.CompareAndSwap(true, false) {
				r.leave(h, 0)
			}
		}
		defer letGo() // a failed run must not leave it locked for Stop
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
				}
				if h.backlog.Load() > 0 {
					letGo()
				}
				runtime.Gosched()
			}
		}()
		at := 0
		lookup := func() {
			h.mu.Lock()
			held.Store(true)
			at += batch
			if err := r.LookupBatchInto(context.Background(), 0, addrs[at-batch:at], out); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < warm; i++ {
			lookup()
		}
		before := handledDirect(r)
		n := testing.AllocsPerRun(runs, lookup)
		if n > 2 {
			t.Errorf("cold batch to a busy remote home allocates %.2f/op, ceiling 2 per home", n)
		}
		t.Logf("%.2f allocs per batch", n)
		if d := handledDirect(r) - before; d != 0 {
			t.Errorf("%d exchanges with a held home were direct, want 0", d)
		}
	})
}

// TestLookupMissAllocs is a ceiling on what one Lookup miss allocates:
// nothing when its caller has the verdict on the spot — a miss the arrival
// LC is home of, or one whose home is idle and is asked by function call —
// and nothing either for a lookup that really waits, here for a home whose
// lock the test holds until the request is in its inbox: its one-row
// descriptor is pooled and its one row rides the message's own fields. The
// collector paces hot_single and churn_single on this. Without a cache
// every Lookup is a miss; with one, every address is looked up once. The
// waitlist (recycled), the W block (no waiter list) and the fabric messages
// (never moved to the heap) must all stay off the list.
func TestLookupMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gates run in CI's nonrace job")
	}
	tbl := rtable.Small(2000, 7)
	const runs = 2000
	for _, cached := range []bool{false, true} {
		cacheOpt, prefix := WithoutCache(), ""
		if cached {
			cacheOpt, prefix = WithDefaultCache(), "cache/"
		}
		// The long timeout quiets the deadline ticker and health monitor so
		// AllocsPerRun sees only the lookup.
		r, err := New(tbl, WithLCs(2), cacheOpt, WithEngineName("lulea"), WithRequestTimeout(time.Second))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Stop)
		for _, tc := range []struct {
			name    string
			home    int
			busy    bool // the home's lock is taken when the lookup is submitted
			ceiling float64
		}{{"remote-home", 1, false, 0}, {"remote-home-busy", 1, true, 0}, {"local-home", 0, false, 0}} {
			t.Run(prefix+tc.name, func(t *testing.T) {
				addrs := remoteAddrs(t, r, tbl, stats.NewRNG(3), tc.home, 2*(runs+1))
				h := r.lcs[tc.home]
				var held atomic.Bool
				if tc.busy {
					addrs = addrs[runs+1:] // the idle row's are cached by now
					// The hold ends once the request is in the home's queue, and
					// serves it: the lookup has had to wait by then.
					letGo := func() {
						if held.CompareAndSwap(true, false) {
							r.leave(h, 0)
						}
					}
					defer letGo() // a failed run must not leave it locked for Stop
					stop := make(chan struct{})
					defer close(stop)
					go func() {
						for {
							select {
							case <-stop:
								return
							default:
							}
							if h.backlog.Load() > 0 {
								letGo()
							}
							runtime.Gosched()
						}
					}()
				}
				at := 0
				n := testing.AllocsPerRun(runs, func() {
					if tc.busy {
						h.mu.Lock()
						held.Store(true)
					}
					a := addrs[0]
					if cached { // a new address every run, so it misses
						a = addrs[at]
						at++
					}
					if v, err := r.Lookup(0, a); err != nil || v.ServedBy == ServedByCache {
						t.Fatalf("Lookup(%v) = %+v, %v; want a miss", a, v, err)
					}
				})
				if n > tc.ceiling {
					t.Errorf("a %s Lookup miss allocates %.2f objects, ceiling %v", tc.name, n, tc.ceiling)
				}
				t.Logf("%.2f allocs per lookup", n)
			})
		}
	}
}

// TestLookupBatchShedKeepsPositions: sub-lookups shed after admission
// (waitlist overflow) must keep their batch positions as ServedByShed
// verdicts while the rest of the batch resolves normally.
func TestLookupBatchShedKeepsPositions(t *testing.T) {
	tbl := rtable.Small(2000, 13)
	oracle := lpm.NewReference(tbl)
	r, err := New(tbl, WithLCs(2),
		WithOverload(0, ShedDropNewest),
		WithFaultInjector(fabric.NewFaults(5, fabric.LinkConfig{DropRate: 1}).Decide),
		WithRequestTimeout(5*time.Millisecond), WithMaxRetries(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	// One remote-homed address repeated far past the waitlist cap: the
	// first copy parks and dispatches, copies 2..cap coalesce, the rest
	// shed. The dead fabric forces the parked copies through fallback.
	rng := stats.NewRNG(17)
	var hot ip.Addr
	for {
		hot = tbl.RandomMatchedAddr(rng)
		if r.HomeLC(hot) == 1 {
			break
		}
	}
	addrs := make([]ip.Addr, waitlistCap+64)
	for i := range addrs {
		addrs[i] = hot
	}
	out, err := r.LookupBatch(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	shed := 0
	for i, v := range out {
		if v.Addr != hot {
			t.Fatalf("out[%d] answers %s, not the submitted address", i, ip.FormatAddr(v.Addr))
		}
		if v.ServedBy == ServedByShed {
			shed++
			continue
		}
		if !verdictMatches(v, oracle, hot) {
			t.Fatalf("out[%d] wrong verdict, served by %s", i, v.ServedBy)
		}
	}
	if shed == 0 || shed == len(addrs) {
		t.Fatalf("shed %d of %d sub-lookups, want some shed and some served", shed, len(addrs))
	}
}

// TestLookupBatchDuringUpdateTable hammers table swaps under batched
// traffic: every verdict must match one of the two tables' oracles (the
// documented update-window semantics), and stay positional throughout.
func TestLookupBatchDuringUpdateTable(t *testing.T) {
	t1 := rtable.Small(2000, 7)
	t2 := rtable.Small(2000, 8)
	o1, o2 := lpm.NewReference(t1), lpm.NewReference(t2)
	r, err := New(t1, WithLCs(4), WithDefaultCache(), WithRequestTimeout(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for lc := 0; lc < 4; lc++ {
		wg.Add(1)
		go func(lc int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(lc)*7 + 3)
			for {
				select {
				case <-stop:
					return
				default:
				}
				addrs := make([]ip.Addr, 32)
				for i := range addrs {
					addrs[i] = t1.RandomMatchedAddr(rng)
				}
				out, err := r.LookupBatch(lc, addrs)
				if err != nil {
					errs <- err.Error()
					return
				}
				for i, a := range addrs {
					if out[i].Addr != a {
						errs <- "positional ordering broken at slot " + strconv.Itoa(i)
						return
					}
					if !verdictMatches(out[i], o1, a) && !verdictMatches(out[i], o2, a) {
						errs <- "verdict for " + ip.FormatAddr(a) + " matches neither table"
						return
					}
				}
			}
		}(lc)
	}
	for i := 0; i < 6; i++ {
		tbl := t2
		if i%2 == 1 {
			tbl = t1
		}
		if err := r.UpdateTable(tbl); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestWithEngineName covers registry-name resolution, including the error
// listing valid names.
func TestWithEngineName(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	oracle := lpm.NewReference(tbl)

	r, err := New(tbl, WithLCs(2), WithEngineName("lulea"), WithDefaultCache())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	rng := stats.NewRNG(21)
	addrs := batchAddrs(tbl, rng, 64)
	out, err := r.LookupBatch(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	if msg := checkBatch(addrs, out, oracle); msg != "" {
		t.Fatal(msg)
	}
	// Re-submit: the cache must now serve hits.
	if _, err := r.LookupBatch(0, addrs); err != nil {
		t.Fatal(err)
	}
	if s := r.Metrics(); s.Sum(MetricCacheHits) == 0 {
		t.Error("cache served no hits on a repeated batch")
	}

	if _, err := New(tbl, WithEngineName("no-such-engine")); err == nil ||
		!strings.Contains(err.Error(), "unknown engine") || !strings.Contains(err.Error(), "lulea") {
		t.Errorf("unknown engine name: err = %v, want the valid-name listing", err)
	}
}

// TestLookupBatchIntoValidation pins the argument contract.
func TestLookupBatchIntoValidation(t *testing.T) {
	tbl := rtable.Small(200, 3)
	r, err := New(tbl)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	ctx := context.Background()
	addrs := []ip.Addr{1, 2, 3}
	if err := r.LookupBatchInto(ctx, 0, addrs, make([]Verdict, 2)); err == nil {
		t.Error("short out slice accepted")
	}
	if err := r.LookupBatchInto(ctx, 5, addrs, make([]Verdict, 3)); err == nil {
		t.Error("out-of-range LC accepted")
	}
	if err := r.LookupBatchInto(ctx, 0, nil, nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	if out, err := r.LookupBatch(0, nil); err != nil || len(out) != 0 {
		t.Errorf("empty LookupBatch = (%v, %v)", out, err)
	}
}
