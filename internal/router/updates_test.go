// Tests for the incremental-update plane (updates.go): ApplyUpdates
// equivalence against the full-rebuild oracle, targeted invalidation
// accounting against the full-flush oracle, generation-guard behavior,
// and the churn chaos / soak scenarios CI runs under -race (jobs test and
// chaos).
package router

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"spal/internal/cache"
	"spal/internal/fabric"
	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/lpm/engines"
	"spal/internal/rtable"
	"spal/internal/stats"
)

// churnStream draws one seeded update batch over cur (≈10 events).
func churnStream(cur *rtable.Table, seed uint64) []rtable.Update {
	return rtable.GenerateUpdates(cur, rtable.UpdateStreamConfig{
		RatePerSecond: 1000, CycleNS: 5, Duration: 2_000_000,
		WithdrawProb: 0.35, NewPrefixProb: 0.25, Seed: seed,
	})
}

// TestApplyUpdatesEquivalence drives the incremental plane against an
// UpdateTable-per-event oracle router: after every batch, both planes
// must produce element-wise identical verdicts at every LC, for dynamic
// (in-place trie update) and non-dynamic (partition rebuild) engines.
func TestApplyUpdatesEquivalence(t *testing.T) {
	for _, engine := range []string{"bintrie", "lulea"} {
		t.Run("engine="+engine, func(t *testing.T) {
			tbl := rtable.Small(1200, 37)
			inc, err := New(tbl, WithLCs(4), WithDefaultCache(), WithEngineName(engine))
			if err != nil {
				t.Fatal(err)
			}
			defer inc.Stop()
			oracle, err := New(tbl, WithLCs(4), WithDefaultCache(), WithEngineName(engine))
			if err != nil {
				t.Fatal(err)
			}
			defer oracle.Stop()

			rng := stats.NewRNG(5)
			cur := tbl
			for round := 0; round < 6; round++ {
				stream := churnStream(cur, rng.Uint64())
				if len(stream) == 0 {
					t.Fatal("empty update stream")
				}
				if err := inc.ApplyUpdates(stream); err != nil {
					t.Fatal(err)
				}
				// The oracle applies the same batch one event at a time,
				// with a full two-phase swap + flush per event.
				for _, u := range stream {
					cur = cur.Apply(u)
					if err := oracle.UpdateTable(cur); err != nil {
						t.Fatal(err)
					}
				}
				ref := lpm.NewReference(cur)
				for lc := 0; lc < 4; lc++ {
					for i := 0; i < 60; i++ {
						var a ip.Addr
						if i%3 == 0 {
							a = rng.Uint32()
						} else {
							a = cur.RandomMatchedAddr(rng)
						}
						vi, err := inc.Lookup(lc, a)
						if err != nil {
							t.Fatal(err)
						}
						vo, err := oracle.Lookup(lc, a)
						if err != nil {
							t.Fatal(err)
						}
						if vi.OK != vo.OK || (vi.OK && vi.NextHop != vo.NextHop) {
							t.Fatalf("round %d lc %d addr %s: incremental %v/%d, oracle %v/%d",
								round, lc, ip.FormatAddr(a), vi.OK, vi.NextHop, vo.OK, vo.NextHop)
						}
						if !verdictMatches(vi, ref, a) {
							t.Fatalf("round %d lc %d addr %s: verdict %v/%d disagrees with reference",
								round, lc, ip.FormatAddr(a), vi.OK, vi.NextHop)
						}
					}
				}
			}
			s := inc.Metrics()
			if got := s.Sum(MetricUpdateBatches); got != 6 {
				t.Fatalf("update batches = %v, want 6", got)
			}
			if s.Sum(MetricUpdatesApplied) == 0 {
				t.Fatal("no per-LC updates applied")
			}
			if got := s.Sum("spal_lrcache_flushes_total"); got != 0 {
				t.Fatalf("incremental plane flushed caches %v times; targeted invalidation must not flush", got)
			}
		})
	}
}

// TestApplyUpdatesEdgeCases: an empty batch is a no-op, and a batch that
// would empty the table is rejected without touching the plane.
func TestApplyUpdatesEdgeCases(t *testing.T) {
	routes := []rtable.Route{
		{Prefix: mustPfx(t, "10.0.0.0/8"), NextHop: 1},
		{Prefix: mustPfx(t, "192.168.0.0/16"), NextHop: 2},
	}
	tbl := rtable.New(routes)
	r, err := New(tbl, WithLCs(2), WithDefaultCache(), WithEngineName("bintrie"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.ApplyUpdates(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	kill := []rtable.Update{
		{Kind: rtable.Withdraw, Route: routes[0]},
		{Kind: rtable.Withdraw, Route: routes[1]},
	}
	if err := r.ApplyUpdates(kill); err == nil {
		t.Fatal("batch emptying the table was accepted")
	}
	if v, err := r.Lookup(0, mustAddr(t, "10.1.2.3")); err != nil || !v.OK || v.NextHop != 1 {
		t.Fatalf("table damaged by rejected batch: %+v, %v", v, err)
	}

	// Duplicate prefixes inside one batch apply in order: the last event
	// for a prefix wins, exactly as if the events had arrived in separate
	// batches.
	p := mustPfx(t, "172.16.0.0/12")
	dup := []rtable.Update{
		{Kind: rtable.Announce, Route: rtable.Route{Prefix: p, NextHop: 7}},
		{Kind: rtable.Announce, Route: rtable.Route{Prefix: p, NextHop: 9}},
	}
	if err := r.ApplyUpdates(dup); err != nil {
		t.Fatalf("duplicate-announce batch: %v", err)
	}
	if v, err := r.Lookup(0, mustAddr(t, "172.16.1.1")); err != nil || !v.OK || v.NextHop != 9 {
		t.Fatalf("duplicate announce: got %+v, %v; want the later next hop 9", v, err)
	}

	// Announce then withdraw of the same prefix in one batch nets out to
	// absence.
	q := mustPfx(t, "172.31.0.0/16")
	upDown := []rtable.Update{
		{Kind: rtable.Announce, Route: rtable.Route{Prefix: q, NextHop: 5}},
		{Kind: rtable.Withdraw, Route: rtable.Route{Prefix: q}},
	}
	if err := r.ApplyUpdates(upDown); err != nil {
		t.Fatalf("announce+withdraw batch: %v", err)
	}
	// 172.31.x falls back to the /12 announced above (now next hop 9).
	if v, err := r.Lookup(1, mustAddr(t, "172.31.2.2")); err != nil || !v.OK || v.NextHop != 9 {
		t.Fatalf("announce+withdraw: got %+v, %v; want the covering /12's 9", v, err)
	}
}

func mustPfx(t *testing.T, s string) ip.Prefix {
	t.Helper()
	p, err := ip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustAddr(t *testing.T, s string) ip.Addr {
	t.Helper()
	a, err := ip.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestTargetedInvalidationAccounting reconciles the invalidation counters
// exactly — every LC cache must see one InvalidateRange call per coalesced
// range per batch, and nothing else — and proves the headline claim:
// across a churn workload, targeted invalidation evicts strictly fewer
// cache entries than the full-flush oracle loses to its flushes.
func TestTargetedInvalidationAccounting(t *testing.T) {
	const numLCs = 4
	tbl := rtable.Small(1500, 53)
	inc, err := New(tbl, WithLCs(numLCs), WithDefaultCache(), WithEngineName("bintrie"))
	if err != nil {
		t.Fatal(err)
	}
	defer inc.Stop()
	fl, err := New(tbl, WithLCs(numLCs), WithDefaultCache(), WithEngineName("bintrie"))
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Stop()

	occupancy := func(r *Router) float64 {
		s := r.Metrics()
		return s.Sum("spal_lrcache_occupancy_blocks")
	}

	rng := stats.NewRNG(99)
	cur := tbl
	var rangeCalls, flushLost float64
	for round := 0; round < 8; round++ {
		// Warm both planes with the identical workload.
		for lc := 0; lc < numLCs; lc++ {
			for i := 0; i < 300; i++ {
				a := cur.RandomMatchedAddr(rng)
				if _, err := inc.Lookup(lc, a); err != nil {
					t.Fatal(err)
				}
				if _, err := fl.Lookup(lc, a); err != nil {
					t.Fatal(err)
				}
			}
		}
		stream := churnStream(cur, rng.Uint64())
		cur = cur.ApplyAll(stream)
		rangeCalls += float64(numLCs * len(rtable.UpdateRanges(stream)))
		// Everything the flush plane holds right now is lost to the flush
		// below (quiescent: no waiting blocks in flight).
		flushLost += occupancy(fl)
		if err := inc.ApplyUpdates(stream); err != nil {
			t.Fatal(err)
		}
		if err := fl.UpdateTable(cur); err != nil {
			t.Fatal(err)
		}
	}

	s := inc.Metrics()
	if got := s.Sum("spal_lrcache_range_invalidations_total"); got != rangeCalls {
		t.Fatalf("range invalidation calls = %v, want exactly %v", got, rangeCalls)
	}
	if got := s.Sum(MetricStaleGen); got != 0 {
		t.Fatalf("quiescent churn produced %v stale-gen replies", got)
	}
	invalidated := s.Sum("spal_lrcache_invalidated_total")
	if flushLost == 0 {
		t.Fatal("flush oracle never held cache entries; test is vacuous")
	}
	if invalidated >= flushLost {
		t.Fatalf("targeted invalidation evicted %v entries, full flush lost %v; want strictly fewer", invalidated, flushLost)
	}
	t.Logf("targeted: %v entries invalidated vs %v lost to flushes (%.1f%%)",
		invalidated, flushLost, 100*invalidated/flushLost)
}

// TestLateReplyKeepsStaleGuard: a requester runs every update batch's
// invalidations, so its stale-reply guard has to move with them. A reply
// computed before a batch and delivered after the requester invalidated for
// it may answer the lookups that were in flight, and must not stay behind
// as a cache entry.
func TestLateReplyKeepsStaleGuard(t *testing.T) {
	tbl := rtable.Small(400, 7)
	dropReplies := func(m fabric.Message) fabric.Decision { return fabric.Decision{Drop: m.Kind == fabric.Reply} }
	r, err := New(tbl, WithLCs(2), WithDefaultCache(), WithEngineName("bintrie"),
		WithFaultInjector(dropReplies), WithRequestTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	addr := remoteAddrs(t, r, tbl, stats.NewRNG(21), 1, 1)[0]
	route, ok := tbl.LongestMatch(addr)
	if !ok {
		t.Fatal("picked an unmatched address")
	}

	// The lookup parks at LC 0; the home's reply is lost.
	parked, err := lookupAsync(r, 0, addr)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "home LC to answer the request", func() bool { return r.Stats()[1].RepliesSent.Load() == 1 })

	r.mu.Lock()
	oldGen := r.gen
	r.mu.Unlock()
	changed := route
	changed.NextHop++
	if err := r.ApplyUpdates([]rtable.Update{{Kind: rtable.Announce, Route: changed}}); err != nil {
		t.Fatal(err)
	}

	// The lost reply, arriving late with the pre-batch value.
	r.push(0, message{kind: mBatchReply, addr: addr, nextHop: route.NextHop, ok: true, from: 1, gen: oldGen})
	if v := <-parked; v.NextHop != route.NextHop && v.NextHop != changed.NextHop {
		t.Fatalf("in-flight lookup resolved %+v, want next hop %d or %d", v, route.NextHop, changed.NextHop)
	}
	if got := r.Stats()[0].StaleGenReplies.Load(); got != 1 {
		t.Errorf("the requester classified %d replies as generationally stale, want 1", got)
	}
	r.own(0, func(lc *lineCard) {
		if res := lc.cache.Probe(addr); res.Kind == cache.Hit && res.NextHop == route.NextHop {
			t.Fatalf("pre-batch next hop %d survived the batch's invalidation in the requester's cache", route.NextHop)
		}
	})
}

// TestCacheConfigErrors: a broken cache geometry (an operator's -beta)
// must surface as a construction error, never a panic.
func TestCacheConfigErrors(t *testing.T) {
	tbl := rtable.Small(100, 3)
	for name, opts := range map[string][]Option{
		"bad geometry": {WithCache(cache.Config{Blocks: 1000, Assoc: 3, MixPercent: 50})},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("construction panicked: %v", p)
				}
			}()
			r, err := New(tbl, append([]Option{WithLCs(2)}, opts...)...)
			if err == nil {
				r.Stop()
				t.Fatal("bad cache config accepted")
			}
		})
	}
}

// versionedOracle is the batch-granular table history the churn tests
// check verdicts against: a verdict is correct if it matches any version
// that was current or in flight during the lookup's lifetime.
type versionedOracle struct {
	mu      sync.Mutex
	refs    []*lpm.Reference
	applied int // batches whose ApplyUpdates has returned
}

func newVersionedOracle(tbl *rtable.Table) *versionedOracle {
	return &versionedOracle{refs: []*lpm.Reference{lpm.NewReference(tbl)}}
}

// announce registers the next version; call before ApplyUpdates.
func (o *versionedOracle) announce(tbl *rtable.Table) {
	o.mu.Lock()
	o.refs = append(o.refs, lpm.NewReference(tbl))
	o.mu.Unlock()
}

// settle marks the newest version fully applied; call after ApplyUpdates
// returns.
func (o *versionedOracle) settle() {
	o.mu.Lock()
	o.applied = len(o.refs) - 1
	o.mu.Unlock()
}

// window returns the validity bounds for a lookup submitted now: the
// newest fully-applied version (older values for changed addresses have
// been invalidated everywhere) and the newest announced version.
func (o *versionedOracle) window() (lo, hi int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.applied, len(o.refs) - 1
}

// matches reports whether the verdict agrees with any version in
// [lo, hi] (hi re-read internally: versions announced while the lookup
// was in flight are valid too, capped by the caller's post-completion
// read).
func (o *versionedOracle) matches(v Verdict, a ip.Addr, lo, hi int) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	for i := lo; i <= hi && i < len(o.refs); i++ {
		nh, _, ok := o.refs[i].Lookup(a)
		if v.OK == ok && (!ok || v.NextHop == nh) {
			return true
		}
	}
	return false
}

// TestChaosChurn is the churn acceptance scenario: a seeded
// announce/withdraw stream racing a KillLC/RestoreLC cycle, overload
// shedding, and the coalesced batch data plane. Every non-shed verdict
// must match a table version that was live during its lookup's window —
// zero wrong verdicts — and the stale-generation guard must be the only
// thing keeping cross-window values out of the caches (no flushes on the
// incremental path).
func TestChaosChurn(t *testing.T) {
	tbl := rtable.Small(1500, 71)
	for _, seed := range chaosSeeds(t) {
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			r, err := New(tbl, WithLCs(4), WithDefaultCache(), WithEngineName("bintrie"),
				WithRequestTimeout(5*time.Millisecond),
				WithOverload(512))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()

			oracle := newVersionedOracle(tbl)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var wrong, served, shed atomic.Int64

			// Churn: seeded batches applied incrementally, as fast as the
			// control plane absorbs them.
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := stats.NewRNG(seed * 31)
				cur := tbl
				for {
					select {
					case <-stop:
						return
					default:
					}
					stream := churnStream(cur, rng.Uint64())
					if len(stream) == 0 {
						continue
					}
					next := cur.ApplyAll(stream)
					if next.Len() == 0 {
						continue
					}
					oracle.announce(next)
					if err := r.ApplyUpdates(stream); err != nil {
						return // stopping
					}
					oracle.settle()
					cur = next
				}
			}()

			// Chaos: kill LC 3 mid-churn, wait for the re-home, restore it.
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(30 * time.Millisecond)
				if err := r.KillLC(3); err != nil {
					return
				}
				deadline := time.Now().Add(5 * time.Second)
				for time.Now().Before(deadline) {
					if r.LCStates()[3] == LCDown {
						_ = r.RestoreLC(3)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}()

			// Lookups: the coalesced batch plane at every LC.
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := stats.NewRNG(seed + 1000 + uint64(w)*17)
					addrs := make([]ip.Addr, 64)
					out := make([]Verdict, 64)
					for {
						select {
						case <-stop:
							return
						default:
						}
						for i := range addrs {
							if rng.Intn(4) == 0 {
								addrs[i] = rng.Uint32()
							} else {
								addrs[i] = tbl.RandomMatchedAddr(rng)
							}
						}
						lo, _ := oracle.window()
						err := r.LookupBatchInto(context.Background(), w, addrs, out)
						if err == ErrOverloaded {
							shed.Add(int64(len(addrs)))
							continue
						}
						if err != nil {
							return // stopping
						}
						_, hi := oracle.window()
						for i, v := range out {
							if v.ServedBy == ServedByShed {
								shed.Add(1)
								continue
							}
							served.Add(1)
							if !oracle.matches(v, addrs[i], lo, hi) {
								wrong.Add(1)
							}
						}
					}
				}(w)
			}

			time.Sleep(400 * time.Millisecond)
			close(stop)
			wg.Wait()

			if w := wrong.Load(); w != 0 {
				t.Fatalf("%d wrong verdicts among %d served", w, served.Load())
			}
			if served.Load() == 0 {
				t.Fatal("no lookups served")
			}
			s := r.Metrics()
			if got := s.Sum(MetricUpdateBatches); got == 0 {
				t.Fatal("no update batches applied during the chaos window")
			}
			// The incremental plane must never have flushed a cache itself;
			// the only flushes allowed are the re-home/restore swaps of the
			// KillLC cycle: two swaps × 4 LC caches × two flushes each (one
			// with the engine in installTable, one with the epoch in rekey),
			// plus the adopted corpse's flush.
			if got := s.Sum("spal_lrcache_flushes_total"); got > 2*4*2+1 {
				t.Fatalf("%v cache flushes; incremental churn must not flush", got)
			}
			t.Logf("served=%d shed=%d batches=%v staleGen=%v rangeInv=%v",
				served.Load(), shed.Load(), s.Sum(MetricUpdateBatches),
				s.Sum(MetricStaleGen), s.Sum("spal_lrcache_range_invalidations_total"))
			checkCleanState(t, r)
		})
	}
}

// checkCleanState holds every live LC's state to the tables the router
// holds once nothing is in flight: each resident LR-cache entry to the full
// table's verdict, and its engine's verdict at the first address of each
// prefix of its partition to that partition's.
func checkCleanState(t *testing.T, r *Router) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	verdict := func(e lpm.Engine, a ip.Addr) rtable.NextHop {
		if nh, _, ok := e.Lookup(a); ok {
			return nh
		}
		return rtable.NoNextHop
	}
	full := lpm.NewReference(r.part.Full())
	checked := 0
	for i := range r.lcs {
		tbl := r.part.Table(i)
		part := lpm.NewReference(tbl)
		entries, cacheWrong, engineWrong := 0, 0, 0
		r.install(i, func(lc *lineCard) {
			lc.cache.AuditEntries(func(a ip.Addr, nh rtable.NextHop) bool {
				entries++
				if want := verdict(full, a); nh != want {
					if cacheWrong++; cacheWrong <= 3 {
						t.Logf("LC %d caches %s -> %d, the table says %d", i, ip.FormatAddr(a), nh, want)
					}
				}
				return true
			})
			for _, rt := range tbl.Routes() {
				a := rt.Prefix.FirstAddr()
				if got, want := verdict(lc.engine, a), verdict(part, a); got != want {
					if engineWrong++; engineWrong <= 3 {
						t.Logf("LC %d's engine answers %s -> %d, its partition says %d", i, ip.FormatAddr(a), got, want)
					}
				}
			}
		})
		if cacheWrong != 0 || engineWrong != 0 {
			t.Errorf("LC %d: %d of %d cache entries and %d of %d engine verdicts disagree with the tables",
				i, cacheWrong, entries, engineWrong, tbl.Len())
		}
		checked += entries
	}
	if checked == 0 {
		t.Error("no LR-cache entry resident: the cache check saw nothing")
	}
}

// TestUpdateSoak is the update soak CI runs under -race (job test) and at
// GOMAXPROCS 1, 2 and 8 (job chaos-procs): a 30-second sim-time
// stream at 1000 updates/s (30k events) pushed through ApplyUpdates in
// batches while the batch data plane keeps serving, with a flat heap and
// zero wrong verdicts.
func TestUpdateSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	tbl := rtable.Small(2000, 7)
	r, err := New(tbl, WithLCs(4), WithDefaultCache(), WithEngineName("bintrie"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	// 30 s of simulated time at 1000 updates/s and 5 ns cycles.
	stream := rtable.GenerateUpdates(tbl, rtable.UpdateStreamConfig{
		RatePerSecond: 1000, CycleNS: 5, Duration: 6_000_000_000,
		WithdrawProb: 0.35, NewPrefixProb: 0.2, Seed: 4242,
	})
	if len(stream) < 25_000 {
		t.Fatalf("stream too short for a 30s/1000ups soak: %d events", len(stream))
	}

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	oracle := newVersionedOracle(tbl)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var wrong, served atomic.Int64
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := stats.NewRNG(7 + uint64(w)*13)
			addrs := make([]ip.Addr, 64)
			out := make([]Verdict, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range addrs {
					if rng.Intn(4) == 0 {
						addrs[i] = rng.Uint32()
					} else {
						addrs[i] = tbl.RandomMatchedAddr(rng)
					}
				}
				lo, _ := oracle.window()
				if err := r.LookupBatchInto(context.Background(), w%4, addrs, out); err != nil {
					return
				}
				_, hi := oracle.window()
				for i, v := range out {
					served.Add(1)
					if !oracle.matches(v, addrs[i], lo, hi) {
						wrong.Add(1)
					}
				}
			}
		}(w)
	}

	cur := tbl
	var batches int
	var mid uint64
	for off := 0; off < len(stream); off += 100 {
		end := off + 100
		if end > len(stream) {
			end = len(stream)
		}
		batch := stream[off:end]
		next := cur.ApplyAll(batch)
		if next.Len() == 0 {
			continue
		}
		oracle.announce(next)
		if err := r.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
		oracle.settle()
		cur = next
		batches++
		if batches == len(stream)/300 {
			mid = heap()
		}
	}
	close(stop)
	wg.Wait()
	end := heap()

	if w := wrong.Load(); w != 0 {
		t.Fatalf("%d wrong verdicts among %d served", w, served.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no lookups served during the soak")
	}
	if end > mid && end-mid > 16<<20 {
		t.Fatalf("heap grew %d bytes across the soak; incremental updates must not accumulate", end-mid)
	}
	s := r.Metrics()
	if got := s.Sum(MetricUpdateEvents); got < 25_000 {
		t.Fatalf("only %v update events applied", got)
	}
	if got := s.Sum("spal_lrcache_flushes_total"); got != 0 {
		t.Fatalf("%v cache flushes during incremental soak", got)
	}
	t.Logf("soak: %d batches / %v events, served=%d, heap mid=%dKB end=%dKB, staleGen=%v",
		batches, s.Sum(MetricUpdateEvents), served.Load(), mid>>10, end>>10, s.Sum(MetricStaleGen))
}

// TestApplyUpdatesInvalidatesOncePerLC: whatever the number of ranges in a
// batch, every LC's cache — the LC whose sub-batch is empty included — is
// asked to invalidate the batch's whole range list per ApplyUpdates, and
// flushes nothing.
func TestApplyUpdatesInvalidatesOncePerLC(t *testing.T) {
	const numLCs = 4
	tbl := rtable.Small(1500, 53)
	r, err := New(tbl, WithLCs(numLCs), WithDefaultCache(), WithEngineName("bintrie"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	// A /32 has every control bit concrete, so it lands in one partition
	// and leaves the other three LCs an empty sub-batch.
	one := []rtable.Update{{Kind: rtable.Announce, Route: rtable.Route{Prefix: mustPfx(t, "10.9.8.7/32"), NextHop: 3}}}
	if _, sub := r.part.ApplyUpdates(one); len(sub[0])+len(sub[1])+len(sub[2])+len(sub[3]) != 1 {
		t.Fatalf("the /32 reaches %v: no LC with an empty sub-batch would be exercised", sub)
	}
	batches := [][]rtable.Update{one}
	rng := stats.NewRNG(11)
	for cur := tbl; len(batches) < 6; {
		stream := churnStream(cur, rng.Uint64())
		if len(rtable.UpdateRanges(stream)) < 2 {
			t.Fatalf("churn batch of %d events coalesced to under 2 ranges; the test would not tell the whole list from part of it", len(stream))
		}
		cur = cur.ApplyAll(stream)
		batches = append(batches, stream)
	}
	cacheStats := func(i int) (st cache.Stats) {
		r.own(i, func(lc *lineCard) { st = lc.cache.Stats() })
		return st
	}
	for n, b := range batches {
		var before [numLCs]cache.Stats
		for i := range before {
			before[i] = cacheStats(i)
		}
		if err := r.ApplyUpdates(b); err != nil {
			t.Fatal(err)
		}
		want := int64(len(rtable.UpdateRanges(b)))
		for i := range before {
			after := cacheStats(i)
			if got := after.RangeInvalidations - before[i].RangeInvalidations; got != want {
				t.Errorf("batch %d, LC %d: %d ranges invalidated, want the batch's %d", n, i, got, want)
			}
			if after.Flushes != before[i].Flushes {
				t.Errorf("batch %d, LC %d: the cache flushed", n, i)
			}
		}
	}
}

// dropAll is a fabric that loses every message: with retries off, a lookup
// homed on another LC waits one request timeout and is answered by the
// fallback.
func dropAll() []Option {
	return []Option{
		WithFaultInjector(fabric.NewFaults(1, fabric.LinkConfig{DropRate: 1}).Decide),
		WithRequestTimeout(2 * time.Millisecond), WithMaxRetries(-1),
	}
}

// TestFallbackFollowsUpdates: after a run of ApplyUpdates calls the fallback
// answers every address as lpm.Reference of the final table does — a hash
// per length, sharing no code with the fallback's index or with LongestMatch
// — directly and through the router's own degraded path, whatever the LCs'
// engine; and a batch the router rejects because it would empty the table
// has not reached it.
func TestFallbackFollowsUpdates(t *testing.T) {
	for _, engine := range []string{"dptrie", "bintrie", "lulea"} {
		t.Run("engine="+engine, func(t *testing.T) {
			tbl := rtable.Small(1200, 37)
			r, err := New(tbl, append(dropAll(), WithLCs(4), WithEngineName(engine))...)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()
			rng := stats.NewRNG(5)
			cur := tbl
			var addrs []ip.Addr
			remote := func(a ip.Addr) {
				if r.HomeLC(a) != 0 {
					addrs = append(addrs, a)
				}
			}
			for round := 0; round < 20; round++ {
				stream := churnStream(cur, rng.Uint64())
				if err := r.ApplyUpdates(stream); err != nil {
					t.Fatal(err)
				}
				cur = cur.ApplyAll(stream)
				for _, u := range stream {
					remote(u.Route.Prefix.FirstAddr())
					remote(u.Route.Prefix.LastAddr())
				}
			}
			for i := 0; i < 400; i++ {
				remote(cur.RandomMatchedAddr(rng))
				remote(rng.Uint32())
			}
			oracle := lpm.NewReference(cur)
			want := func(a ip.Addr) (rtable.NextHop, bool) {
				nh, _, ok := oracle.Lookup(a)
				if !ok {
					nh = rtable.NoNextHop
				}
				return nh, ok
			}
			check := func(when string) {
				t.Helper()
				for _, a := range addrs {
					wantNH, wantOK := want(a)
					if nh, ok := r.fallbackLookup(a); ok != wantOK || nh != wantNH {
						t.Fatalf("%s: fallback answers %s with %v/%d, the table with %v/%d",
							when, ip.FormatAddr(a), ok, nh, wantOK, wantNH)
					}
				}
			}
			check("after churn")
			out, err := r.LookupBatch(0, addrs)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				wantNH, wantOK := want(addrs[i])
				if v.ServedBy != ServedByFallback || v.OK != wantOK || v.NextHop != wantNH {
					t.Fatalf("%s served by %s with %v/%d, want fallback with %v/%d",
						ip.FormatAddr(addrs[i]), v.ServedBy, v.OK, v.NextHop, wantOK, wantNH)
				}
			}

			var kill []rtable.Update
			for _, rt := range cur.Routes() {
				kill = append(kill, rtable.Update{Kind: rtable.Withdraw, Route: rt})
			}
			if err := r.ApplyUpdates(kill); err == nil {
				t.Fatal("batch emptying the table was accepted")
			}
			check("after the rejected batch")
		})
	}
}

// TestFallbackBatchAtomic: a batch that moves P/24's addresses between one
// /24 and its two /25 halves, same next hop A, passes through a state in
// which neither is present and the covering /16's next hop B shows. The
// batch reaches the fallback as a new snapshot's index, published by one
// pointer store, and an LC's engine under that LC's lock, so no lookup,
// degraded or not, may ever return B. CI runs this under -race.
func TestFallbackBatchAtomic(t *testing.T) {
	const A, B = 1, 2
	whole := mustPfx(t, "10.1.2.0/24")
	lo, hi := mustPfx(t, "10.1.2.0/25"), mustPfx(t, "10.1.2.128/25")
	ann := func(p ip.Prefix) rtable.Update {
		return rtable.Update{Kind: rtable.Announce, Route: rtable.Route{Prefix: p, NextHop: A}}
	}
	wd := func(p ip.Prefix) rtable.Update {
		return rtable.Update{Kind: rtable.Withdraw, Route: rtable.Route{Prefix: p}}
	}
	split := []rtable.Update{wd(whole), ann(lo), ann(hi)}
	join := []rtable.Update{wd(lo), wd(hi), ann(whole)}
	tbl := rtable.New([]rtable.Route{
		{Prefix: mustPfx(t, "10.1.0.0/16"), NextHop: B},
		{Prefix: whole, NextHop: A},
		{Prefix: mustPfx(t, "192.168.0.0/16"), NextHop: 3},
		{Prefix: mustPfx(t, "172.16.0.0/12"), NextHop: 4},
	})
	for _, engine := range []string{"dptrie", "bintrie", "lulea"} {
		t.Run("engine="+engine, func(t *testing.T) {
			r, err := New(tbl, append(dropAll(), WithLCs(2), WithEngineName(engine))...)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()
			stop := make(chan struct{})
			var wg, warm sync.WaitGroup
			var reads [4]atomic.Int64
			reader := func(id int, lookup func(a ip.Addr) (rtable.NextHop, bool)) {
				defer wg.Done()
				var first sync.Once // a reader that fails must not strand the writer
				defer first.Do(warm.Done)
				for a := whole.FirstAddr() + ip.Addr(id); ; a = whole.FirstAddr() + (a+7)%256 {
					select {
					case <-stop:
						return
					default:
					}
					if nh, ok := lookup(a); !ok || nh != A {
						t.Errorf("reader %d: %s answered %v/%d mid-batch, want %d", id, ip.FormatAddr(a), ok, nh, A)
						return
					}
					reads[id].Add(1)
					first.Do(warm.Done)
					runtime.Gosched() // let the writer have the P
				}
			}
			wg.Add(4)
			warm.Add(4)
			go reader(0, r.fallbackLookup)
			go reader(1, r.fallbackLookup)
			for lc := 0; lc < 2; lc++ {
				go reader(2+lc, func(a ip.Addr) (rtable.NextHop, bool) {
					v, err := r.Lookup(lc, a)
					if err != nil {
						return 0, false
					}
					return v.NextHop, v.OK
				})
			}
			// The writer starts once every reader is looking up, and writes on
			// past its 400 batches until each has completed a lookup beside
			// it: 400 batches can take less time than the scheduler takes to
			// run four readers.
			warm.Wait()
			for id := range reads {
				reads[id].Store(0)
			}
			starved := func() int {
				for id := range reads {
					if reads[id].Load() == 0 {
						return id
					}
				}
				return -1
			}
			for i := 0; (i < 400 || starved() >= 0) && !t.Failed(); i++ {
				if i == 100*400 {
					t.Errorf("reader %d completed no lookup beside %d batches", starved(), i)
					break
				}
				batch := split
				if i%2 == 1 {
					batch = join
				}
				if err := r.ApplyUpdates(batch); err != nil {
					t.Error(err)
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestApplyUpdatesEngineBuilds counts calls of the engine builder: ψ at
// construction, one per LC — the fallback answers from the table itself and
// builds nothing — and then none however many batches a dynamic engine
// absorbs; an engine that cannot be written in place is rebuilt for exactly
// the LCs whose table changed, and under no LC's lock: every build of an
// ApplyUpdates call waits, mid-build, for a lookup at each LC to return, the
// LC it is for included.
func TestApplyUpdatesEngineBuilds(t *testing.T) {
	const numLCs = 4
	for _, tc := range []struct {
		engine  string
		dynamic bool
	}{{"dptrie", true}, {"bintrie", true}, {"lulea", false}} {
		t.Run("engine="+tc.engine, func(t *testing.T) {
			build, err := engines.Lookup(tc.engine)
			if err != nil {
				t.Fatal(err)
			}
			var builds atomic.Int64
			var midBuild func() // what a build stops to do, once the router runs
			tbl := rtable.Small(1200, 37)
			r, err := New(tbl, WithLCs(numLCs), WithDefaultCache(), WithEngine(func(t *rtable.Table) lpm.Engine {
				builds.Add(1)
				if midBuild != nil {
					midBuild()
				}
				return build(t)
			}))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()
			if got := builds.Load(); got != numLCs {
				t.Fatalf("New built %d engines, want %d", got, numLCs)
			}
			midBuild = func() {
				if t.Failed() {
					return // said once
				}
				served := make(chan struct{})
				go func() {
					defer close(served)
					for lc := 0; lc < numLCs; lc++ {
						r.Lookup(lc, tbl.Routes()[0].Prefix.FirstAddr()) // answered at all is the point
					}
				}()
				select {
				case <-served:
				case <-time.After(5 * time.Second):
					t.Error("an LC answered nothing while an engine was being built: the build holds its lock")
				}
			}
			rng := stats.NewRNG(5)
			cur := tbl
			partial := false // some call touched fewer LCs than there are
			for call := 0; call < 10; call++ {
				stream := churnStream(cur, rng.Uint64())
				if call%2 == 1 {
					stream = stream[:min(1, len(stream))]
				}
				cur = cur.ApplyAll(stream)
				want := int64(0)
				if !tc.dynamic {
					_, sub := r.part.ApplyUpdates(stream)
					for _, s := range sub {
						if len(s) > 0 {
							want++
						}
					}
					partial = partial || want < numLCs
				}
				before := builds.Load()
				if err := r.ApplyUpdates(stream); err != nil {
					t.Fatal(err)
				}
				if got := builds.Load() - before; got != want {
					t.Fatalf("call %d: ApplyUpdates built %d engines, want %d", call, got, want)
				}
			}
			if !tc.dynamic && !partial {
				t.Fatal("every call touched every LC: the count cannot tell touched LCs from all")
			}
		})
	}
}

// TestApplyUpdatesAllocCeiling holds the update plane's memory to what the
// design says it is: one copy of the route slice the batch rewrites — the
// full table, the only one the router keeps — and small change per update
// (trie nodes, sub-batches, the sorted copies of the batch), with no
// per-LC route list, table-sized map or engine beside it. No clock is
// read.
func TestApplyUpdatesAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	tbl := rtable.RT2()
	r, err := New(tbl, WithLCs(4), WithDefaultCache(), WithEngineName("dptrie"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	stream := rtable.GenerateUpdates(tbl, rtable.UpdateStreamConfig{
		RatePerSecond: 1000, CycleNS: 5, Duration: 250_000_000,
		WithdrawProb: 0.35, NewPrefixProb: 0.25, Seed: 17,
	})
	if len(stream) < 1000 {
		t.Fatalf("update stream has %d events, want 1000", len(stream))
	}
	batch := stream[:1000]
	routes := tbl.ApplyAll(batch).Len()
	ceiling := uint64(routes) * uint64(unsafe.Sizeof(rtable.Route{})) * 3 / 2

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := r.ApplyUpdates(batch); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("1000 updates over %d routes: %d bytes in %d allocations, ceiling %d bytes",
		tbl.Len(), bytes, mallocs, ceiling)
	if bytes > ceiling {
		t.Errorf("ApplyUpdates allocated %d bytes, more than 1.5 copies of the %d-route full table (%d bytes)", bytes, routes, ceiling)
	}
	if mallocs > 250 {
		t.Errorf("ApplyUpdates made %d allocations for 1000 updates, want at most 250", mallocs)
	}
}
