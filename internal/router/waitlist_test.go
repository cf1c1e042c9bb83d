// Waitlist lifetime tests: a waitlist that lingers in lc.pending after an
// eject dispatch, or sits on the free list after its release, must reference
// nothing it answered, a recycled one must be indistinguishable from a new
// one, and a miss the home LC resolves itself must leave no waitlist at
// all — whatever the fabric duplicates. The first two run the deadline
// sweep (or deliver a reply) by hand, with a request timeout far beyond the
// test's length, so that nothing in them depends on when a ticker fires.
package router

import (
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"spal/internal/ip"
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

// dropRequests is an injector losing every request (replies and
// heartbeats pass) while *on is non-zero.
func dropRequests(on *atomic.Int32) FaultInjector {
	return func(m FabricMessage) FaultDecision {
		return FaultDecision{Drop: !m.Reply && !m.Heartbeat && on.Load() != 0}
	}
}

// TestEjectedWaitlistPinsNothing: the entry an eject dispatch leaves behind
// to recognize the primary reply has answered its waiters, and must not
// keep their descriptors or traces reachable until the primary or its
// deadline turns up; retired either way, it reaches the free list blank.
func TestEjectedWaitlistPinsNothing(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	for _, end := range []string{"late", "lost"} {
		t.Run(end, func(t *testing.T) {
			var drop atomic.Int32
			drop.Store(1)
			r, err := New(tbl, WithLCs(2), WithoutCache(), WithTraceSampling(1),
				WithFaultInjector(dropRequests(&drop)), WithRequestTimeout(time.Minute),
				WithGray(DefaultGrayPolicy()))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()
			addr := remoteAddrs(t, r, tbl, stats.NewRNG(3), 1, 1)[0]
			r.mu.Lock()
			r.ejectLocked(1)
			r.mu.Unlock()
			ch := parkOne(t, r, addr) // answered at dispatch, the entry left pending
			if v := <-ch; v.ServedBy != ServedByFallback {
				t.Fatalf("verdict %+v, want one served by the fallback", v)
			}

			var answered *waitlist
			r.own(0, func(lc *lineCard) {
				answered = lc.pending.get(addr)
				if answered == nil || !answered.answered || answered.deadline == 0 {
					t.Fatalf("no answered entry tracking the primary: %+v", answered)
				}
				checkUnpinned(t, answered)
				if answered.tr != nil {
					t.Error("answered entry pins the answered lookup's trace")
				}
				if end == "late" {
					r.handleBatchReply(lc, message{kind: mBatchReply, addr: addr, ok: true, from: 1, epoch: lc.epoch, gen: lc.gen})
				} else {
					r.checkDeadlines(lc, time.Now().Add(2*time.Minute))
				}
				if lc.pending.len() != 0 || len(lc.free) != 1 || lc.free[0] != answered {
					t.Fatalf("retired answered entry not recycled: %d pending, free list %v", lc.pending.len(), lc.free)
				}
				checkBlank(t, answered)
			})
			if g := r.Gray(); g.EjectServed != 1 || g.PrimaryLate+g.PrimaryLost != 1 || (end == "late") != (g.PrimaryLate == 1) {
				t.Errorf("eject-served %d, primaries %d late + %d lost; want 1 and the primary %s", g.EjectServed, g.PrimaryLate, g.PrimaryLost, end)
			}
		})
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
		r.checkDeadlines(lc, time.Now().Add(2*time.Minute))
		if used.attempts != 2 || used.deadline == 0 || used.sentAt == 0 || !used.trLate || used.tr == nil || len(used.locals) != 1 {
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
				WithFaultInjector(SeededFaults(FaultConfig{Seed: chaosSeeds(t)[0], DupRate: 1})))
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
