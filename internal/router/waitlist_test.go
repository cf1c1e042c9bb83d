// Waitlist lifetime tests: a miss answered at dispatch because its home is
// ejected leaves no waitlist, one on the free list after its release must
// reference nothing it answered, a recycled one must be indistinguishable
// from a new one, and a miss the home LC resolves itself must leave no
// waitlist at all — whatever the fabric duplicates. The first two drive the
// scorer (or the deadline sweep) by hand, with a request timeout far beyond
// the test's length, so that nothing in them depends on when a ticker fires.
package router

import (
	"context"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"spal/internal/cache"
	"spal/internal/fabric"
	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/metrics"
	"spal/internal/rtable"
	"spal/internal/stats"
)

// parkOne submits a lookup of addr at LC 0 and waits until it is parked.
func parkOne(t *testing.T, r *Router, addr ip.Addr) <-chan Verdict {
	t.Helper()
	ch, err := lookupAsync(r, 0, addr)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the lookup to park", func() bool { return r.lcs[0].pendingDepth.Load() == 1 })
	return ch
}

// checkUnpinned asserts that wl keeps no local waiter reachable, within
// its length or beyond it.
func checkUnpinned(t *testing.T, wl *waitlist) {
	t.Helper()
	for i, w := range wl.locals[:cap(wl.locals)] {
		if w != (localWaiter{}) {
			t.Errorf("locals[%d] of %d still holds %+v", i, cap(wl.locals), w)
		}
	}
}

// checkBlank asserts that wl differs from a new waitlist in nothing but
// the capacity of its slices, and that the capacity references nothing.
func checkBlank(t *testing.T, wl *waitlist) {
	t.Helper()
	checkUnpinned(t, wl)
	rest := *wl
	rest.locals, rest.remotes = nil, nil
	if len(wl.locals) != 0 || len(wl.remotes) != 0 || !reflect.DeepEqual(rest, waitlist{}) {
		t.Errorf("waitlist is not blank: %+v", *wl)
	}
}

// dropRequests is an injector losing every request (replies pass) while
// *on is non-zero.
func dropRequests(on *atomic.Int32) fabric.Injector {
	return func(m fabric.Message) fabric.Decision {
		return fabric.Decision{Drop: m.Kind == fabric.Request && on.Load() != 0}
	}
}

// TestEjectProbe: a miss homed on an ejected LC is answered from the
// fallback at dispatch and leaves no waitlist behind. Its address still goes
// to the home, once, as a probe whose reply fills the requester's cache,
// answers nobody and is one round-trip sample of the home. The scorer's
// degrade and recover move no generation.
func TestEjectProbe(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	oracle := lpm.NewReference(tbl)
	r, err := New(tbl, WithLCs(2), WithDefaultCache(), WithGray(), WithRequestTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	addr := remoteAddrs(t, r, tbl, stats.NewRNG(3), 1, 1)[0]
	generation := func() uint64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.gen
	}
	gen := generation()
	// score runs the scorer through a transition, LC 0 answering in 100µs
	// and LC 1 in p50.
	score := func(p50 time.Duration) {
		r.mu.Lock()
		defer r.mu.Unlock()
		for i := 0; i < grayWindow; i++ {
			r.gray[0].observe(int64(100 * time.Microsecond))
			r.gray[1].observe(int64(p50))
		}
		for i := 0; i < max(grayDegradeAfter, grayRecoverAfter); i++ {
			r.maybeGrayLocked()
		}
	}
	score(10 * time.Millisecond)
	if !r.ejected(1) {
		t.Fatal("LC 1 answering at 100x the fleet's p50 is not ejected")
	}

	samples := r.gray[1].n.Load()
	bd := getBatchDesc(1, r.now())
	r.own(0, func(lc *lineCard) {
		r.handleLookup(lc, &message{kind: mLookup, addr: addr, bd: bd, start: bd.start})
		if n := lc.pending.len(); n != 0 {
			t.Errorf("%d waitlists pending right after dispatch, want none", n)
		}
		if len(lc.outbox) != 1 || lc.outbox[0].to != 1 || lc.outbox[0].m.kind != mBatchRequest || lc.outbox[0].m.addr != addr {
			t.Errorf("outbox %+v, want the one request for %s to LC 1", lc.outbox, ip.FormatAddr(addr))
		}
	}) // leaving sends the probe
	if err := r.wait(context.Background(), bd); err != nil {
		t.Fatal(err)
	}
	if v := bd.out[0]; v.ServedBy != ServedByFallback || !verdictMatches(v, oracle, addr) {
		t.Errorf("verdict %+v, want a correct one served by the fallback", v)
	}
	putBatchDesc(bd)

	waitFor(t, "the probe's reply", func() bool { return r.gray[1].n.Load() > samples })
	st := r.Stats()
	if sent, answered := st[0].RequestsSent.Load(), st[1].RepliesSent.Load(); sent != 1 || answered != 1 {
		t.Errorf("%d requests sent, %d answered by LC 1; want the one probe", sent, answered)
	}
	r.own(0, func(lc *lineCard) {
		if res := lc.cache.Probe(addr); res.Kind != cache.Hit || res.Origin != cache.REM || !verdictMatches(Verdict{Addr: addr, NextHop: res.NextHop, OK: res.NextHop != rtable.NoNextHop}, oracle, addr) {
			t.Errorf("LC 0 caches %+v for %s, want its REM entry", res, ip.FormatAddr(addr))
		}
		if lc.pending.len() != 0 || lc.nwaiters != 0 {
			t.Errorf("the reply left %d waitlists, %d waiters", lc.pending.len(), lc.nwaiters)
		}
	})
	if got := r.gray[1].n.Load() - samples; got != 1 {
		t.Errorf("the probe added %d round-trip samples to LC 1, want 1", got)
	}
	if got := r.Metrics().Sum(MetricStaleGen); got != 0 {
		t.Errorf("%v replies were generationally stale, want none", got)
	}

	score(100 * time.Microsecond)
	if r.ejected(1) {
		t.Fatal("LC 1 answering with the fleet is still ejected")
	}
	if g := r.Gray(); g.Degrades != 1 || g.Recovers != 1 || g.EjectServed != 1 {
		t.Errorf("%+v, want one degrade, one recover and one eject-served lookup", g)
	}
	if got := generation(); got != gen {
		t.Errorf("the generation moved %d -> %d across a degrade and a recover", gen, got)
	}
}

// TestEjectedMidBatchDuplicates: a batch holds two rows of one address for
// its home, and the home is ejected after the rows were classified (missRow)
// and before the exchange (batchDirect), which finds the home busy. The first
// row is answered at dispatch and its waitlist released, so the duplicate, its
// follower, has nothing to join: it takes the fallback verdict and is counted
// as eject-served too. handleBatch's steps are taken by hand, the ejection
// between them.
func TestEjectedMidBatchDuplicates(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	oracle := lpm.NewReference(tbl)
	r, err := New(tbl, WithLCs(2), WithDefaultCache(), WithGray(), WithRequestTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	addr := remoteAddrs(t, r, tbl, stats.NewRNG(3), 1, 1)[0]
	bd := getBatchDesc(2, r.now())
	bd.addrs = append(bd.addrs[:0], addr, addr)
	func() {
		h := r.lcs[1]
		h.mu.Lock()         // busy: the exchange cannot be a call
		defer r.leave(h, 0) // then serves the probes queued behind the lock
		r.own(0, func(lc *lineCard) {
			for i, a := range bd.addrs {
				r.missRow(lc, localWaiter{bd: bd, slot: int32(i)}, a, lc.cache.Probe(a).Kind, bd.start)
			}
			if n := len(lc.scratch.follow); n != 1 {
				t.Fatalf("%d duplicate rows follow a held row, want 1", n)
			}
			r.gray[1].degraded.Store(true)
			r.bdResolveN(bd, r.settle(lc, bd, bd.start))
			if n := lc.pending.len(); n != 0 {
				t.Errorf("%d waitlists pending after dispatch, want none", n)
			}
		})
	}()
	if err := r.wait(context.Background(), bd); err != nil {
		t.Fatal(err)
	}
	for i, v := range bd.out {
		if v.ServedBy != ServedByFallback || !verdictMatches(v, oracle, addr) {
			t.Errorf("row %d: %+v, want a correct verdict served by the fallback", i, v)
		}
	}
	putBatchDesc(bd)
	if got := r.Gray().EjectServed; got != 2 {
		t.Errorf("%d lookups eject-served, want both rows", got)
	}
	if got := r.Stats()[0].Fallbacks.Load(); got != 2 {
		t.Errorf("%d lookups counted as fallbacks, want both rows", got)
	}
}

// TestParkRecyclesBlankWaitlist drives one address through a dropped
// request, a deadline retry and a late trace, lets it resolve, and demands
// that the next park on that LC reuses its waitlist with every trace of the
// episode gone.
func TestParkRecyclesBlankWaitlist(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	var drop atomic.Int32
	drop.Store(1)
	r, err := New(tbl, WithLCs(2), WithoutCache(), WithTraceSampling(0),
		WithFaultInjector(dropRequests(&drop)), WithRequestTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	addrs := remoteAddrs(t, r, tbl, stats.NewRNG(3), 1, 2)
	ch := parkOne(t, r, addrs[0])
	drop.Store(0)

	var used *waitlist
	r.own(0, func(lc *lineCard) {
		used = lc.pending.get(addrs[0])
		used.feNS = 7 // as a retry re-homed onto this LC would have left it
		r.checkDeadlines(lc, r.now()+int64(2*time.Minute))
		if used.attempts != 2 || used.deadline == 0 || !used.trLate || used.tr == nil || len(used.locals) != 1 {
			t.Fatalf("the retry left the waitlist at %+v", *used)
		}
	}) // leaving delivers the retry
	if v := <-ch; v.ServedBy != ServedByRemote {
		t.Fatalf("verdict %+v, want one served by the remote home", v)
	}
	r.own(0, func(lc *lineCard) {
		got := r.park(lc, addrs[1])
		if got != used {
			t.Fatalf("park allocated %p; the released waitlist %p was not recycled", got, used)
		}
		checkBlank(t, got)
		lc.pending.delete(addrs[1])
		lc.pendingDepth.Store(0)
	})
}

// TestHomeAnswersDuplicatesWithoutParking: over a fabric that delivers
// every request and every reply twice, a miss is still one FE execution —
// the home LC parks nothing for the duplicate to coalesce onto, it finds
// the filled entry — every verdict is the table's, and no waitlist or
// waiter is left anywhere once the calls return.
func TestHomeAnswersDuplicatesWithoutParking(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			r, err := New(tbl, WithLCs(4), WithDefaultCache(),
				WithFaultInjector(fabric.NewFaults(chaosSeeds(t)[0], fabric.LinkConfig{DupRate: 1}).Decide))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()
			addrs := distinctAddrs(tbl, stats.NewRNG(11), 256)
			before := r.Metrics().Sum(MetricFEExecs)
			for i, v := range ep.lookup(t, r, 0, addrs) {
				rt, ok := tbl.LongestMatch(addrs[i])
				if v.Addr != addrs[i] || v.OK != ok || (ok && v.NextHop != rt.NextHop) {
					t.Fatalf("verdict %+v for %s, table says %v %v", v, ip.FormatAddr(addrs[i]), rt, ok)
				}
			}
			sn := r.Metrics()
			if got := sn.Sum(MetricFEExecs) - before; got != float64(len(addrs)) {
				t.Errorf("%v FE executions for %d distinct addresses, want one each", got, len(addrs))
			}
			if sn.Sum(MetricFabricReplies) == 0 {
				t.Error("no fabric reply was sent; the addresses never left LC 0")
			}
			for lc := 0; lc < r.NumLCs(); lc++ {
				l := metrics.L("lc", strconv.Itoa(lc))
				depth, _ := sn.Value(MetricWaitlistDepth, l)
				waiters, _ := sn.Value(MetricWaiters, l)
				if depth != 0 || waiters != 0 {
					t.Errorf("LC %d is left with %v waitlists and %v waiters", lc, depth, waiters)
				}
			}
		})
	}
}
