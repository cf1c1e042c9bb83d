// Integrity-plane tests: the scrubber's detection bound, on-the-spot
// replacement and self-healing rebuild of a damaged engine, and
// the headline chaos scenario — corruption × route churn × overload —
// ending in a provably clean steady state. CI runs the chaos test under
// -race across a seed matrix (scrub-chaos job).
package router

import (
	"context"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spal/internal/cache"
	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/rtable"
	"spal/internal/stats"
)

// waitFullSweep waits until the scrubber has re-verified every partition
// prefix of every LC since the call: ceil(P/scrubSamples) cycles for the
// largest partition P, plus the cycle that may be under way and one more,
// which audits every cache after the sweep's last repair.
func waitFullSweep(t *testing.T, r *Router) {
	t.Helper()
	r.mu.Lock()
	p := slices.Max(r.part.Stats().Sizes)
	r.mu.Unlock()
	want := r.scrubCycles.Load() + int64((p+scrubSamples-1)/scrubSamples) + 2
	waitFor(t, "a full scrub sweep", func() bool { return r.scrubCycles.Load() >= want })
}

// TestScrubCleanNoFalsePositives: with the scrubber on but no injector,
// nothing may ever be flagged — not even under route churn, because churn
// invalidation and the stale-fill guard keep every resident entry
// consistent with the current table. A false positive here would mean
// needless quarantines in production.
func TestScrubCleanNoFalsePositives(t *testing.T) {
	tbl := rtable.Small(1000, 7)
	r, err := New(tbl, WithLCs(4), WithDefaultCache(), WithEngineName("bintrie"),
		WithRequestTimeout(2*time.Millisecond),
		WithScrub(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // mild churn in the background
		defer wg.Done()
		rng := stats.NewRNG(11)
		cur := tbl
		for {
			select {
			case <-stop:
				return
			default:
			}
			batch := churnStream(cur, rng.Uint64())
			next := cur.ApplyAll(batch)
			if len(batch) == 0 || next.Len() == 0 {
				continue
			}
			if err := r.ApplyUpdates(batch); err != nil {
				return
			}
			cur = next
			time.Sleep(time.Millisecond)
		}
	}()
	rng := stats.NewRNG(7)
	for i := 0; i < 4000; i++ {
		if _, err := r.Lookup(i%4, tbl.RandomMatchedAddr(rng)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ { // every prefix re-verified ten times under churn
		waitFullSweep(t, r)
	}
	close(stop)
	wg.Wait()

	rep := r.Integrity()
	if rep.Quarantines != 0 || rep.Rebuilds != 0 {
		t.Fatalf("clean router quarantined: %+v", rep)
	}
	for _, l := range rep.LCs {
		if l.EngineMismatches != 0 || l.CacheMismatches != 0 {
			t.Fatalf("false positive on LC %d: %+v", l.LC, l)
		}
		if l.Samples == 0 {
			t.Fatalf("LC %d never sampled", l.LC)
		}
		if l.Score != 1 {
			t.Fatalf("LC %d score %v with no mismatches", l.LC, l.Score)
		}
	}
}

// TestScrubDetectsAndRepairsEngineCorruption: every injected engine flip
// is detected within the sweep bound, replaced, and healed by a
// rebuild; afterwards every verdict matches the oracle again.
func TestScrubDetectsAndRepairsEngineCorruption(t *testing.T) {
	tbl := rtable.Small(400, 7)
	oracle := lpm.NewReference(tbl)
	r, err := New(tbl, WithLCs(2), WithDefaultCache(), WithEngineName("bintrie"),
		WithRequestTimeout(2*time.Millisecond),
		WithScrub(time.Millisecond),
		WithCorruption(CorruptionPolicy{
			Enabled: true, Seed: 5, EngineFlipRate: 1, MaxCorruptions: 2,
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	waitFor(t, "engine flips to reach the cap", func() bool {
		return r.Integrity().EngineFlips >= 2
	})
	waitFullSweep(t, r) // every flip sampled, so detected
	waitFor(t, "detection and rebuild", func() bool {
		rep := r.Integrity()
		return rep.Rebuilds >= 1 && rep.Quarantines >= 1
	})
	// Steady state: no further corruption can appear (cap), so after the
	// repairs the whole plane must be clean and serving oracle verdicts.
	waitFor(t, "all LCs healthy again", func() bool {
		for _, s := range r.LCStates() {
			if s != LCHealthy {
				return false
			}
		}
		return true
	})
	rng := stats.NewRNG(99)
	for i := 0; i < 2000; i++ {
		a := tbl.RandomMatchedAddr(rng)
		v, err := r.Lookup(i%2, a)
		if err != nil {
			t.Fatal(err)
		}
		if !verdictMatches(v, oracle, a) {
			t.Fatalf("wrong verdict for %s after repair", ip.FormatAddr(a))
		}
	}
	rep := r.Integrity()
	if rep.EngineFlips != 2 {
		t.Fatalf("EngineFlips = %d, want the cap 2", rep.EngineFlips)
	}
	var mism int64
	for _, l := range rep.LCs {
		mism += l.EngineMismatches
	}
	if mism == 0 {
		t.Fatal("flips injected but no engine mismatch recorded")
	}
}

// TestScrubRepairsCacheCorruption: wrong fills and dropped invalidations
// poison only cache entries; the audit finds and evicts every one, with
// no quarantine (the engine is intact).
func TestScrubRepairsCacheCorruption(t *testing.T) {
	tbl := rtable.Small(400, 7)
	oracle := lpm.NewReference(tbl)
	r, err := New(tbl, WithLCs(2), WithDefaultCache(), WithEngineName("bintrie"),
		WithRequestTimeout(2*time.Millisecond),
		WithScrub(time.Millisecond),
		WithCorruption(CorruptionPolicy{
			Enabled: true, Seed: 5, WrongFillRate: 0.5, MaxCorruptions: 4,
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	rng := stats.NewRNG(123)
	waitFor(t, "every cache store to exhaust its corruption cap", func() bool {
		for i := 0; i < 200; i++ {
			if _, err := r.Lookup(i%2, tbl.RandomMatchedAddr(rng)); err != nil {
				t.Fatal(err)
			}
		}
		return r.CorruptionExhausted()
	})
	waitFor(t, "the audit to repair every corrupted entry", func() bool {
		rep := r.Integrity()
		var mism, rep2 int64
		for _, l := range rep.LCs {
			mism += l.CacheMismatches
			rep2 += l.CacheRepairs
		}
		return mism > 0 && rep2 == mism
	})
	// Two more full audit cycles with the injector dry: the caches are
	// clean, so fresh verdicts must match the oracle everywhere.
	c0 := r.Integrity().ScrubCycles
	waitFor(t, "two post-exhaustion scrub cycles", func() bool {
		return r.Integrity().ScrubCycles >= c0+2
	})
	for i := 0; i < 2000; i++ {
		a := tbl.RandomMatchedAddr(rng)
		v, err := r.Lookup(i%2, a)
		if err != nil {
			t.Fatal(err)
		}
		if !verdictMatches(v, oracle, a) {
			t.Fatalf("wrong verdict for %s after cache repair", ip.FormatAddr(a))
		}
	}
	if q := r.Integrity().Quarantines; q != 0 {
		t.Fatalf("cache-only corruption caused %d quarantines; only engine damage may quarantine", q)
	}
}

// TestScrubDamagedEngineAnswersRightDuringRebuild: the cycle that finds a
// damaged engine replaces it on the spot, so from then on its LC answers
// right, while the rebuild is still under way. The builder is slowed to
// make a rebuild take 100 ms; every lookup of the poisoned prefix made
// meanwhile, at every LC, must match the oracle, and once the rebuild is in
// no cache may hold the poisoned next hop. The hour-long timeout and scrub
// interval keep the monitor out: the test runs the one cycle itself.
func TestScrubDamagedEngineAnswersRightDuringRebuild(t *testing.T) {
	tbl := rtable.Small(400, 7)
	oracle := lpm.NewReference(tbl)
	var slow atomic.Bool
	build := func(tbl *rtable.Table) lpm.Engine {
		if slow.Load() {
			time.Sleep(100 * time.Millisecond)
		}
		return lpm.NewReferenceEngine(tbl)
	}
	const psi, damaged = 4, 1
	r, err := New(tbl, WithLCs(psi), WithDefaultCache(), WithEngine(build),
		WithRequestTimeout(time.Hour), WithScrub(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	// A partition prefix whose first address the damaged LC is home to,
	// poisoned there with the wrong next hop, and the addresses of it homed
	// there that the poison gets wrong.
	part := r.part.Table(damaged)
	k := 0
	for r.HomeLC(part.Routes()[k].Prefix.FirstAddr()) != damaged {
		k++
	}
	pfx := part.Routes()[k].Prefix
	lo, hi := pfx.FirstAddr(), pfx.LastAddr()
	good, _ := part.LongestMatch(lo)
	bad := good.NextHop ^ 1
	addrs := []ip.Addr{lo}
	for rng := stats.NewRNG(3); len(addrs) < 8 && hi > lo; {
		a := lo + ip.Addr(rng.Uint64()%uint64(hi-lo+1))
		if nh, _, _ := oracle.Lookup(a); r.HomeLC(a) == damaged && nh != bad {
			addrs = append(addrs, a)
		}
	}
	r.mu.Lock()
	// The cycle below samples pfx: the cursor runs over the full table.
	r.health[damaged].cursor = slices.IndexFunc(tbl.Routes(), func(rt rtable.Route) bool { return rt.Prefix == pfx })
	r.mu.Unlock()
	r.own(damaged, func(lc *lineCard) {
		lc.engine = lpm.NewCorrupt(lc.engine)
		lpm.AsCorrupt(lc.engine).Poison(lo, hi, bad)
	})

	slow.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.mu.Lock()
		defer r.mu.Unlock()
		r.maybeScrubLocked(r.now())
	}()
	waitFor(t, "the scrubber to find the damage", func() bool { return r.quarantines.Load() == 1 })
	rounds := 0
	for ; r.rebuilds.Load() == 0; rounds++ {
		for lc := 0; lc < psi; lc++ {
			for _, a := range addrs {
				if v, err := r.Lookup(lc, a); err != nil || !verdictMatches(v, oracle, a) {
					t.Fatalf("lookup of %s at LC %d during the rebuild: %+v, %v", ip.FormatAddr(a), lc, v, err)
				}
			}
		}
	}
	<-done
	if rounds == 0 {
		t.Fatal("no lookup ran during the rebuild")
	}
	for lc := 0; lc < psi; lc++ {
		r.own(lc, func(lc *lineCard) {
			for _, a := range addrs {
				if res := lc.cache.Probe(a); res.Kind == cache.Hit && res.NextHop == bad {
					t.Errorf("LC %d caches the poisoned next hop %d for %s after the rebuild", lc.id, bad, ip.FormatAddr(a))
				}
			}
		})
	}
	if st := r.LCStates(); st[damaged] != LCHealthy {
		t.Errorf("states %v after the rebuild, want LC %d healthy", st, damaged)
	}
}

// TestLateReplyKeepsStaleGuard: a requester runs every update batch's
// invalidations, so its stale-reply guard has to move with them. A reply
// computed before a batch and delivered after the requester invalidated for
// it may answer the lookups that were in flight, and must not stay behind
// as a cache entry.
func TestLateReplyKeepsStaleGuard(t *testing.T) {
	tbl := rtable.Small(400, 7)
	dropReplies := func(m FabricMessage) FaultDecision { return FaultDecision{Drop: m.Reply} }
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

// TestScrubChecksEjectedLC: an ejected LC keeps serving and stays in the
// scrub set, so it is still checked: one cycle samples min(scrubSamples,
// partition) of its prefixes and finds a poisoned one among them.
func TestScrubChecksEjectedLC(t *testing.T) {
	tbl := rtable.Small(400, 7)
	// One cycle at the monitor's first tick, the next by hand.
	r, err := New(tbl, WithLCs(2), WithDefaultCache(), WithEngineName("bintrie"), WithScrub(time.Hour), WithGray())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	waitFor(t, "the monitor's own scrub cycle", func() bool { return r.scrubCycles.Load() == 1 })

	r.mu.Lock()
	defer r.mu.Unlock()
	r.gray[1].degraded.Store(true)
	part := r.part.Table(1)
	sc := r.health[1]
	// The last prefix of the window the next cycle samples: the want-th
	// prefix of LC 1's partition from the cursor's full-table index on.
	want := min(scrubSamples, part.Len())
	full := r.part.Full().Routes()
	held := make(map[ip.Prefix]bool, part.Len())
	for _, rt := range part.Routes() {
		held[rt.Prefix] = true
	}
	var pfx ip.Prefix
	for j, seen := sc.cursor%len(full), 0; seen < want; j = (j + 1) % len(full) {
		if held[full[j].Prefix] {
			pfx, seen = full[j].Prefix, seen+1
		}
	}
	good, _ := part.LongestMatch(pfx.FirstAddr())
	r.own(1, func(lc *lineCard) {
		lc.engine = lpm.NewCorrupt(lc.engine)
		lpm.AsCorrupt(lc.engine).Poison(pfx.FirstAddr(), pfx.LastAddr(), good.NextHop^1)
	})
	samples, mism := sc.samples.Load(), sc.engineMism.Load()
	r.lastScrub = 0
	r.maybeScrubLocked(r.now())
	if got := sc.samples.Load() - samples; got != int64(want) {
		t.Errorf("a scrub cycle took %d samples of the ejected LC, want min(%d, partition %d) = %d", got, scrubSamples, part.Len(), want)
	}
	if got := sc.engineMism.Load() - mism; got < 1 {
		t.Errorf("the ejected LC's poisoned prefix %s went unnoticed (%d engine mismatches)", pfx, got)
	}
}

// TestChaosScrubCorruption is the headline integrity scenario: seeded
// state corruption (engine flips, wrong fills, dropped invalidations) ×
// 1000-updates/s-class route churn × bounded-inbox overload, with the
// scrubber on. During the corruption window wrong verdicts are expected —
// that is the failure being injected — but every corruption is capped, so
// once the injector runs dry the scrubber must converge the plane back to
// a provably clean steady state: zero wrong verdicts against the final
// table, every LC healthy.
func TestChaosScrubCorruption(t *testing.T) {
	tbl := rtable.Small(1500, 71)
	for _, seed := range chaosSeeds(t) {
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			r, err := New(tbl, WithLCs(4), WithDefaultCache(), WithEngineName("bintrie"),
				WithRequestTimeout(5*time.Millisecond),
				WithOverload(512, ShedDropNewest),
				WithScrub(time.Millisecond),
				WithCorruption(CorruptionPolicy{
					Enabled:            true,
					Seed:               seed,
					EngineFlipRate:     1,
					WrongFillRate:      0.2,
					DropInvalidateRate: 0.2,
					MaxCorruptions:     8,
				}))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()

			oracle := newVersionedOracle(tbl)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var served, shed, wrongDuring atomic.Int64
			var finalTbl atomic.Pointer[rtable.Table]
			finalTbl.Store(tbl)

			// Churn: incremental batches as fast as the control plane
			// absorbs them.
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
					next := cur.ApplyAll(stream)
					if len(stream) == 0 || next.Len() == 0 {
						continue
					}
					oracle.announce(next)
					if err := r.ApplyUpdates(stream); err != nil {
						return
					}
					oracle.settle()
					cur = next
					finalTbl.Store(cur)
				}
			}()

			// Load: the batch plane at every LC. Wrong verdicts are
			// counted, not failed — the corruption window serves them by
			// design; the test's claim is about the steady state after.
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
							addrs[i] = tbl.RandomMatchedAddr(rng)
						}
						lo, _ := oracle.window()
						err := r.LookupBatchInto(context.Background(), w, addrs, out)
						if err == ErrOverloaded {
							shed.Add(int64(len(addrs)))
							continue
						}
						if err != nil {
							return
						}
						_, hi := oracle.window()
						for i, v := range out {
							if v.ServedBy == ServedByShed {
								shed.Add(1)
								continue
							}
							served.Add(1)
							if !oracle.matches(v, addrs[i], lo, hi) {
								wrongDuring.Add(1)
							}
						}
					}
				}(w)
			}

			// Phase 1: run the full chaos mix until every injection site
			// is dry (the load keeps drawing the fill/invalidate sites).
			waitFor(t, "corruption exhaustion", func() bool { return r.CorruptionExhausted() })
			// Phase 2: stop churn and load, let the scrubber finish: a full
			// sweep over every prefix and cache entry, every LC healthy.
			close(stop)
			wg.Wait()
			waitFullSweep(t, r) // every prefix re-verified, every cache audited
			waitFor(t, "post-exhaustion repair convergence", func() bool {
				for _, s := range r.LCStates() {
					if s != LCHealthy {
						return false
					}
				}
				return true
			})

			// Steady state: every verdict matches the final table exactly.
			final := lpm.NewReference(finalTbl.Load())
			rng := stats.NewRNG(seed ^ 0xfeed)
			wrongAfter := 0
			for i := 0; i < 4000; i++ {
				a := finalTbl.Load().RandomMatchedAddr(rng)
				v, err := r.Lookup(i%4, a)
				if err != nil {
					t.Fatal(err)
				}
				if !verdictMatches(v, final, a) {
					wrongAfter++
				}
			}
			if wrongAfter != 0 {
				t.Fatalf("%d wrong verdicts after repair completed; corruption outlived the scrubber", wrongAfter)
			}

			rep := r.Integrity()
			if rep.EngineFlips == 0 || rep.WrongFills == 0 || rep.DroppedInvalidations == 0 {
				t.Fatalf("injector did not exercise all three corruption kinds: %+v", rep)
			}
			if rep.Quarantines == 0 || rep.Rebuilds == 0 {
				t.Fatalf("engine corruption injected but never quarantined/rebuilt: %+v", rep)
			}
			var mism int64
			for _, l := range rep.LCs {
				mism += l.EngineMismatches + l.CacheMismatches
			}
			if mism == 0 {
				t.Fatal("corruption injected but the scrubber detected nothing")
			}
			if served.Load() == 0 {
				t.Fatal("no lookups served during the chaos window")
			}
			t.Logf("served=%d shed=%d wrongDuringWindow=%d flips=%d wrongFills=%d droppedInv=%d mismatches=%d quarantines=%d rebuilds=%d cycles=%d",
				served.Load(), shed.Load(), wrongDuring.Load(), rep.EngineFlips, rep.WrongFills,
				rep.DroppedInvalidations, mism, rep.Quarantines, rep.Rebuilds, rep.ScrubCycles)
		})
	}
}

// TestScrubDisabledZeroAlloc pins the acceptance bound: with the
// integrity plane left at its zero value (the default), the batch hot
// path must stay allocation-free — the scrubber and injector may cost
// nothing when off.
func TestScrubDisabledZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; the batch descriptor is pooled")
	}
	tbl := rtable.Small(2000, 7)
	rng := stats.NewRNG(3)
	addrs := make([]ip.Addr, 64)
	for i := range addrs {
		addrs[i] = tbl.RandomMatchedAddr(rng)
	}
	out := make([]Verdict, len(addrs))
	r, err := New(tbl, WithLCs(1), WithRequestTimeout(time.Second), WithDefaultCache(),
		WithCorruption(CorruptionPolicy{}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	for i := 0; i < 5; i++ {
		if err := r.LookupBatchInto(context.Background(), 0, addrs, out); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(200, func() {
		if err := r.LookupBatchInto(context.Background(), 0, addrs, out); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("disabled integrity plane allocates %.2f/op on the batch path, want 0", n)
	}
}
