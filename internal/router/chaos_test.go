// Chaos tests: the forwarding plane must produce a correct verdict for
// every lookup even when the fabric drops, delays, or duplicates
// messages, and even while the routing table is being swapped under
// load. CI runs this file under -race with several SPAL_CHAOS_SEED
// values; locally the seed list below is used.
package router

import (
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"spal/internal/cache"
	"spal/internal/fabric"
	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/metrics"
	"spal/internal/partition"
	"spal/internal/rtable"
	"spal/internal/stats"
)

// chaosSeeds returns the injector seeds to exercise: the single seed in
// SPAL_CHAOS_SEED when set (the CI chaos job runs a matrix of them), a
// fixed local list otherwise.
func chaosSeeds(t *testing.T) []uint64 {
	if s := os.Getenv("SPAL_CHAOS_SEED"); s != "" {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SPAL_CHAOS_SEED %q: %v", s, err)
		}
		return []uint64{n}
	}
	return []uint64{1, 7, 1337}
}

func verdictMatches(v Verdict, o *lpm.Reference, a ip.Addr) bool {
	nh, _, ok := o.Lookup(a)
	return v.OK == ok && (!ok || v.NextHop == nh)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestChaosDroppedMessagesStillResolve is the headline acceptance check:
// with a seeded injector dropping 10% of fabric messages, every lookup
// still returns the reference-LPM verdict, and the retry/fallback
// counters show the robustness layer actually fired.
func TestChaosDroppedMessagesStillResolve(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	oracle := lpm.NewReference(tbl)
	for _, seed := range chaosSeeds(t) {
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			r, err := New(tbl, WithLCs(4),
				WithFaultInjector(fabric.NewFaults(seed, fabric.LinkConfig{DropRate: 0.10}).Decide),
				WithRequestTimeout(2*time.Millisecond), WithMaxRetries(2))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()

			var wg sync.WaitGroup
			errs := make(chan string, 64)
			for lc := 0; lc < 4; lc++ {
				wg.Add(1)
				go func(lc int) {
					defer wg.Done()
					rng := stats.NewRNG(seed + uint64(lc)*101)
					for i := 0; i < 400; i++ {
						var a ip.Addr
						if i%3 == 0 {
							a = rng.Uint32() // may be unmatched
						} else {
							a = tbl.RandomMatchedAddr(rng)
						}
						v, err := r.Lookup(lc, a)
						if err != nil {
							errs <- err.Error()
							return
						}
						if !verdictMatches(v, oracle, a) {
							errs <- "wrong verdict for " + ip.FormatAddr(a) + " served by " + v.ServedBy.String()
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
			if s.Sum(MetricRetries)+s.Sum(MetricFallbacks) == 0 {
				t.Error("10% drops produced neither retries nor fallbacks")
			}
		})
	}
}

// TestChaosDelayDupDrop mixes all three fault modes over a cached router:
// correctness must survive duplicated replies (duplicate cache fills) and
// reordered delayed messages.
func TestChaosDelayDupDrop(t *testing.T) {
	tbl := rtable.Small(2000, 11)
	oracle := lpm.NewReference(tbl)
	for _, seed := range chaosSeeds(t) {
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			r, err := New(tbl, WithLCs(4), WithDefaultCache(),
				WithFaultInjector(fabric.NewFaults(seed, fabric.LinkConfig{
					DropRate: 0.05, DupRate: 0.10,
					DelayRate: 0.20, Jitter: 2 * time.Millisecond,
				}).Decide),
				WithRequestTimeout(3*time.Millisecond), WithMaxRetries(2))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()

			var wg sync.WaitGroup
			errs := make(chan string, 64)
			for lc := 0; lc < 4; lc++ {
				wg.Add(1)
				go func(lc int) {
					defer wg.Done()
					rng := stats.NewRNG(seed ^ (uint64(lc) + 29))
					for i := 0; i < 300; i++ {
						a := tbl.RandomMatchedAddr(rng)
						v, err := r.Lookup(lc, a)
						if err != nil {
							errs <- err.Error()
							return
						}
						if !verdictMatches(v, oracle, a) {
							errs <- "wrong verdict for " + ip.FormatAddr(a)
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
		})
	}
}

// TestChaosDeadFabricFallback kills every request outright: the home LC
// is unreachable, so after the retry budget each lookup must degrade to
// the full-table fallback — still correct, marked
// ServedByFallback, and visible in the metrics.
func TestChaosDeadFabricFallback(t *testing.T) {
	tbl := rtable.Small(2000, 13)
	oracle := lpm.NewReference(tbl)
	dropRequests := func(m fabric.Message) fabric.Decision {
		return fabric.Decision{Drop: m.Kind == fabric.Request}
	}
	r, err := New(tbl, WithLCs(2), WithDefaultCache(),
		WithFaultInjector(dropRequests),
		WithRequestTimeout(time.Millisecond), WithMaxRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	rng := stats.NewRNG(17)
	var remote []ip.Addr
	seen := map[ip.Addr]bool{}
	for len(remote) < 20 {
		a := tbl.RandomMatchedAddr(rng)
		if r.HomeLC(a) == 1 && !seen[a] {
			seen[a] = true
			remote = append(remote, a)
		}
	}
	for _, a := range remote {
		v, err := r.Lookup(0, a)
		if err != nil {
			t.Fatal(err)
		}
		if v.ServedBy != ServedByFallback {
			t.Fatalf("dead fabric: ServedBy = %s, want fallback", v.ServedBy)
		}
		if !verdictMatches(v, oracle, a) {
			t.Fatalf("fallback verdict wrong for %s", ip.FormatAddr(a))
		}
	}
	// Fallback results are cached: a repeat lookup is a plain cache hit.
	if v, _ := r.Lookup(0, remote[0]); v.ServedBy != ServedByCache {
		t.Errorf("repeat after fallback ServedBy = %s, want cache", v.ServedBy)
	}

	s := r.Metrics()
	lbl := metrics.L("lc", "0")
	if got := s.Sum(MetricFallbacks); got != 20 {
		t.Errorf("fallbacks = %v, want 20", got)
	}
	if got := s.Sum(MetricDeadlineExpired); got != 20 {
		t.Errorf("deadline expiries = %v, want 20", got)
	}
	if got := s.Sum(MetricRetries); got != 20 {
		t.Errorf("retries = %v, want 20 (one per lookup)", got)
	}
	if h, ok := s.HistValue(MetricLatency, lbl, metrics.L("served_by", "fallback")); !ok || h.Count != 20 {
		t.Errorf("fallback latency histogram count = %+v (ok=%v), want 20", h.Count, ok)
	}
}

// TestChaosUpdateHammer swaps between two tables while every LC serves
// lookups; each verdict must equal one of the two tables' reference-LPM
// answers (the update-window contract). This catches the whole
// wrong-partition poisoning bug class, not just a single interleaving —
// and the faulty variant stretches the in-flight windows with delayed,
// duplicated and dropped messages.
func TestChaosUpdateHammer(t *testing.T) {
	t1 := rtable.Small(1500, 7)
	t2 := rtable.Small(1500, 8)
	o1, o2 := lpm.NewReference(t1), lpm.NewReference(t2)

	run := func(t *testing.T, extra ...Option) {
		opts := append([]Option{WithLCs(4), WithDefaultCache()}, extra...)
		r, err := New(t1, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Stop()

		// An address pool matched in one table may miss in the other:
		// both outcomes must still agree with that table's oracle.
		rng := stats.NewRNG(23)
		pool := make([]ip.Addr, 0, 200)
		for i := 0; i < 100; i++ {
			pool = append(pool, t1.RandomMatchedAddr(rng), t2.RandomMatchedAddr(rng))
		}

		stop := make(chan struct{})
		errs := make(chan string, 64)
		var wg sync.WaitGroup
		for lc := 0; lc < 4; lc++ {
			wg.Add(1)
			go func(lc int) {
				defer wg.Done()
				rng := stats.NewRNG(uint64(lc)*31 + 5)
				for {
					select {
					case <-stop:
						return
					default:
					}
					a := pool[rng.Intn(len(pool))]
					v, err := r.Lookup(lc, a)
					if err != nil {
						return
					}
					if !verdictMatches(v, o1, a) && !verdictMatches(v, o2, a) {
						select {
						case errs <- "verdict for " + ip.FormatAddr(a) + " matches neither table (served by " + v.ServedBy.String() + ")":
						default:
						}
						return
					}
				}
			}(lc)
		}
		for i := 0; i < 20; i++ {
			next := t2
			if i%2 == 1 {
				next = t1
			}
			if err := r.UpdateTable(next); err != nil {
				t.Fatal(err)
			}
			time.Sleep(time.Millisecond)
		}
		close(stop)
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
		// 20 swaps end on t1; once the dust settles every verdict must
		// reflect it.
		for i := 0; i < 200; i++ {
			a := pool[i%len(pool)]
			v, err := r.Lookup(i%4, a)
			if err != nil {
				t.Fatal(err)
			}
			if !verdictMatches(v, o1, a) {
				t.Fatalf("post-churn verdict for %s does not match the final table", ip.FormatAddr(a))
			}
		}
	}

	t.Run("clean", func(t *testing.T) { run(t) })
	t.Run("faulty", func(t *testing.T) {
		run(t,
			WithFaultInjector(fabric.NewFaults(chaosSeeds(t)[0], fabric.LinkConfig{
				DropRate: 0.05, DupRate: 0.05,
				DelayRate: 0.15, Jitter: time.Millisecond,
			}).Decide),
			WithRequestTimeout(2*time.Millisecond), WithMaxRetries(1))
	})
}

// TestStaleHomeCacheAcrossSwap is the deterministic form of the failure
// TestChaosUpdateHammer hit a few times in a hundred: between the two
// phases of UpdateTable a home LC that has installed the new engine (and
// stamps its replies with the new generation) must not still answer from
// LR-cache entries of the old table, or a requester that has already
// rekeyed accepts the old value past both its epoch and its generation
// guard and keeps it as a REM entry after UpdateTable has returned. The
// phases are driven by hand: swap both LCs, rekey the requester only,
// look up an address the home had cached, rekey the home.
func TestStaleHomeCacheAcrossSwap(t *testing.T) {
	t1 := rtable.Small(1500, 7)
	t2 := rtable.Small(1500, 8)
	o1, o2 := lpm.NewReference(t1), lpm.NewReference(t2)
	p2 := partition.Partition(t2, 2)
	r, err := New(t1, WithLCs(2), WithDefaultCache())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	// An address both tables route, to different next hops, with the same
	// home under both partitionings.
	const home, req = 1, 0
	var addr ip.Addr
	found := false
	rng := stats.NewRNG(23)
	for i := 0; i < 100000 && !found; i++ {
		a := t1.RandomMatchedAddr(rng)
		nh1, _, _ := o1.Lookup(a)
		nh2, _, ok2 := o2.Lookup(a)
		if ok2 && nh1 != nh2 && r.HomeLC(a) == home && p2.HomeLC(a) == home {
			addr, found = a, true
		}
	}
	if !found {
		t.Fatal("no address routed differently by both tables at a stable home")
	}
	// The home caches the old table's verdict as a LOC entry.
	if v, err := r.Lookup(home, addr); err != nil || !verdictMatches(v, o1, addr) {
		t.Fatalf("warm-up lookup: %+v, %v", v, err)
	}

	r.mu.Lock()
	r.fallback.Store(rtable.NewIndex(t2))
	r.gen++
	tables := p2.Tables()
	for i := 0; i < 2; i++ {
		engine := r.cfg.Engine(tables[i])
		r.install(i, func(lc *lineCard) { lc.installTable(engine, p2.HomeLC, r.gen) })
	}
	r.install(req, r.rekey)
	v, err := r.Lookup(req, addr)
	r.install(home, r.rekey)
	r.part = p2
	r.mu.Unlock()

	if err != nil {
		t.Fatal(err)
	}
	if !verdictMatches(v, o2, addr) {
		t.Fatalf("requester rekeyed, home only swapped: verdict %+v (served by %s) is the old table's", v, v.ServedBy)
	}
	// And nothing of the old table survived in the requester's cache.
	v, err = r.Lookup(req, addr)
	if err != nil || !verdictMatches(v, o2, addr) {
		t.Fatalf("after the swap completed: verdict %+v (served by %s), %v; want the new table's", v, v.ServedBy, err)
	}
}

// TestStaleRequestAfterRehomeForwarded is the update-window poisoning
// regression: a request still in flight when UpdateTable re-homes its
// address must be forwarded to the new home, not resolved (and cached)
// at the old one — the old home would run LPM over the wrong partition
// and install the bogus result as a fresh LOC/REM entry that later local
// lookups hit.
func TestStaleRequestAfterRehomeForwarded(t *testing.T) {
	t1 := rtable.Small(2000, 7)
	t2 := rtable.New([]rtable.Route{
		{Prefix: ip.MustPrefix("10.0.0.0/8"), NextHop: 42},
		{Prefix: ip.MustPrefix("10.64.0.0/10"), NextHop: 43},
		{Prefix: ip.MustPrefix("192.168.0.0/16"), NextHop: 44},
		{Prefix: ip.MustPrefix("172.16.0.0/12"), NextHop: 45},
	})
	p1 := partition.Partition(t1, 2)
	p2 := partition.Partition(t2, 2)

	// An address homed at LC 1 under t1 but at LC 0 under t2.
	var addr ip.Addr
	found := false
	rng := stats.NewRNG(3)
	for i := 0; i < 100000 && !found; i++ {
		a := rng.Uint32()
		if p1.HomeLC(a) == 1 && p2.HomeLC(a) == 0 {
			addr, found = a, true
		}
	}
	if !found {
		t.Fatal("no re-homed address between the two partitionings; adjust tables")
	}

	r, err := New(t1, WithLCs(2), WithDefaultCache(), WithRequestTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.UpdateTable(t2); err != nil {
		t.Fatal(err)
	}

	// Replay the in-flight request: sent to the old home (LC 1) by LC 0
	// before the update, i.e. with the pre-update epoch 0.
	r.push(1, message{kind: mBatchRequest, addr: addr, from: 0, epoch: 0})

	// LC 1 must forward it to the new home (LC 0), which executes the FE
	// and replies to the original requester; the requester drops the
	// reply as stale (epoch 0 < 1).
	st := r.Stats()
	waitFor(t, "stale reply at LC 0", func() bool { return st[0].StaleReplies.Load() == 1 })
	if got := st[1].ForwardedRequests.Load(); got != 1 {
		t.Errorf("LC 1 forwarded %d requests, want 1", got)
	}
	if got := st[1].FEExecs.Load(); got != 0 {
		t.Errorf("LC 1 ran %d FE executions over the wrong partition, want 0", got)
	}
	if got := st[1].RequestsSent.Load(); got != 0 {
		t.Errorf("LC 1 sent %d requests of its own, want 0 (pure forward)", got)
	}

	// The old home's cache must not hold the address at all.
	r.own(1, func(lc *lineCard) {
		if k := lc.cache.Probe(addr).Kind; k != cache.Miss {
			t.Errorf("old home cached the re-homed address (probe = %d), want miss", k)
		}
	})

	// And a local lookup at the old home agrees with the new table.
	v, err := r.Lookup(1, addr)
	if err != nil {
		t.Fatal(err)
	}
	if !verdictMatches(v, lpm.NewReference(t2), addr) {
		t.Errorf("post-update lookup at old home wrong: %+v", v)
	}
}

// TestCacheBypassCoalescesSecondLookup is the duplicate-dispatch
// regression: when a miss bypasses a fully waiting set (RecordMiss
// returns false), a second lookup for the same address misses again and
// must coalesce onto the pending dispatch instead of launching a second
// FE execution and fabric request.
func TestCacheBypassCoalescesSecondLookup(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	oracle := lpm.NewReference(tbl)
	// One 4-block set, all of it REM quota: four in-flight remote misses
	// make every block wait, so a fifth address bypasses the cache. The
	// home LC's LOC quota is zero, so its FE results are never cached
	// and each request it receives costs one FE execution.
	cc := cache.Config{Blocks: 4, Assoc: 4, VictimBlocks: 0, MixPercent: 100, Policy: cache.LRU}
	r, err := New(tbl, WithLCs(2), WithCache(cc), WithRequestTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	rng := stats.NewRNG(5)
	var addrs []ip.Addr
	seen := map[ip.Addr]bool{}
	for len(addrs) < 5 {
		a := tbl.RandomMatchedAddr(rng)
		if r.HomeLC(a) == 1 && !seen[a] {
			seen[a] = true
			addrs = append(addrs, a)
		}
	}
	fill, bypass := addrs[:4], addrs[4]

	// Stall the home LC so the waiting blocks stay waiting.
	unstall := gateLC(t, r, 1)
	defer unstall()

	syncLC0 := func() {
		waitFor(t, "LC 0 to handle what it was sent", func() bool { return r.lcs[0].backlog.Load() == 0 })
	}

	var chans []<-chan Verdict
	lookup := func(a ip.Addr) {
		ch, err := lookupAsync(r, 0, a)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for _, a := range fill {
		lookup(a)
	}
	lookup(bypass)
	syncLC0()
	st := r.Stats()
	if got := st[0].RequestsSent.Load(); got != 5 {
		t.Fatalf("after 5 distinct misses, requests sent = %d, want 5", got)
	}

	lookup(bypass) // second miss for the bypassed address
	syncLC0()
	if got := st[0].RequestsSent.Load(); got != 5 {
		t.Errorf("second bypass miss re-dispatched: requests sent = %d, want 5", got)
	}
	if got := st[0].Coalesced.Load(); got != 1 {
		t.Errorf("coalesced = %d, want 1", got)
	}

	unstall()
	for i, ch := range chans {
		v := <-ch
		a := fill[0]
		if i >= 4 {
			a = bypass
		} else {
			a = fill[i]
		}
		if !verdictMatches(v, oracle, a) {
			t.Errorf("verdict %d wrong for %s", i, ip.FormatAddr(a))
		}
	}
	if got := st[1].FEExecs.Load(); got != 5 {
		t.Errorf("home LC FE executions = %d, want 5 (one per distinct address)", got)
	}
}
