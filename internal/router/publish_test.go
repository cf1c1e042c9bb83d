// What a handler run publishes when it ends (see leave) — the two waitlist
// gauges and the batch countdowns — checked where deferring it could go
// wrong: a run that answers slots of two descriptors, gauges read while
// lookups are parked, and gauges read once everything has drained.
package router

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"spal/internal/ip"
	"spal/internal/rtable"
	"spal/internal/stats"
)

// checkDrained waits for every LC's gauges to read no waitlist and no
// waiter — the lookups have all returned, so whatever is still in flight is
// a duplicate or a straggler about to find nothing parked — and then holds
// the counts behind the gauges to the same.
func checkDrained(t *testing.T, r *Router) {
	t.Helper()
	waitFor(t, "every LC's waitlist gauges to read 0 / 0", func() bool {
		for _, lc := range r.lcs {
			if lc.pendingDepth.Load() != 0 || lc.waiters.Load() != 0 {
				return false
			}
		}
		return true
	})
	for i := range r.lcs {
		r.own(i, func(lc *lineCard) {
			if lc.pending.len() != 0 || lc.nwaiters != 0 || lc.resolvedBD != nil || lc.resolved != 0 {
				t.Errorf("LC %d at rest: %d waitlists, %d waiters, %d slots of %p unretired",
					i, lc.pending.len(), lc.nwaiters, lc.resolved, lc.resolvedBD)
			}
		})
	}
}

// TestBatchReplyAnswersTwoDescriptors: one reply batch whose every row
// answers a slot of each of two descriptors — a batch abandoned by its
// caller, and a live one coalesced onto its addresses — retires each
// descriptor exactly once: the live batch completes with every slot written,
// the abandoned one is recycled by whoever retires its last slot. The home
// LC is held busy while the two batches are set up, so the test waits for
// events and never for time.
func TestBatchReplyAnswersTwoDescriptors(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	r, err := New(tbl, WithLCs(2), WithDefaultCache(), WithRequestTimeout(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	const shared, own = 16, 16
	addrs := remoteAddrs(t, r, tbl, stats.NewRNG(3), 1, shared+own)
	recycled := r.batchRecycled.Load()

	home := r.lcs[1]
	home.mu.Lock() // requests queue behind this ownership
	released := false
	release := func() {
		if !released {
			released = true
			r.leave(home, 0)
		}
	}
	defer release()

	// The batch to be abandoned parks the shared addresses; its request
	// waits in the home's inbox.
	ctx, cancel := context.WithCancel(context.Background())
	abandoned := make(chan error, 1)
	go func() { abandoned <- r.LookupBatchInto(ctx, 0, addrs[:shared], make([]Verdict, shared)) }()
	waitFor(t, "the first batch to park", func() bool { return r.lcs[0].waiters.Load() == shared })
	cancel()
	if err := <-abandoned; err != context.Canceled {
		t.Fatalf("abandoned batch returned %v, want context.Canceled", err)
	}

	// The live batch coalesces onto them and parks addresses of its own.
	out := make([]Verdict, shared+own)
	live := make(chan error, 1)
	go func() { live <- r.LookupBatchInto(context.Background(), 0, addrs, out) }()
	waitFor(t, "the second batch to coalesce and park", func() bool {
		return r.lcs[0].waiters.Load() == 2*shared+own && r.lcs[0].pendingDepth.Load() == shared+own
	})

	release()
	if err := <-live; err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		rt, ok := tbl.LongestMatch(addrs[i])
		if v.Addr != addrs[i] || v.ServedBy != ServedByRemote || v.OK != ok || (ok && v.NextHop != rt.NextHop) {
			t.Fatalf("slot %d: verdict %+v for %s, table says %v %v", i, v, ip.FormatAddr(addrs[i]), rt, ok)
		}
	}
	waitFor(t, "the abandoned descriptor to be recycled", func() bool { return r.batchRecycled.Load() == recycled+1 })
	if got := r.Metrics().Sum(MetricFabricReplies); got != 2 {
		t.Errorf("%v reply batches, want 2: one answering both descriptors, one the live batch alone", got)
	}
	checkDrained(t, r)
	if got := r.batchRecycled.Load(); got != recycled+1 {
		t.Errorf("%d descriptors recycled, want exactly one", got-recycled)
	}
}

// TestGaugesWhileParked: with the fabric dead, a blocked 64-address batch
// reads on its arrival LC as what it parked — one waitlist per distinct
// remote address, one waiter per remote slot — and as nothing anywhere else;
// cancelled and degraded to the fallback, it reads as nothing at all.
func TestGaugesWhileParked(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	var drop atomic.Int32
	drop.Store(1)
	r, err := New(tbl, WithLCs(4), WithDefaultCache(), WithFaultInjector(dropRequests(&drop)),
		WithRequestTimeout(time.Hour), WithMaxRetries(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	addrs := batchAddrs(tbl, stats.NewRNG(21), 64) // repeats some addresses
	distinct, slots := map[ip.Addr]bool{}, 0
	for _, a := range addrs {
		if r.HomeLC(a) != 0 {
			distinct[a] = true
			slots++
		}
	}
	if len(distinct) == slots || slots == len(addrs) {
		t.Fatalf("%d remote slots over %d distinct addresses of %d: the batch is to repeat a remote address and hold a local one", slots, len(distinct), len(addrs))
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- r.LookupBatchInto(ctx, 0, addrs, make([]Verdict, len(addrs))) }()
	waitFor(t, "the batch to block", func() bool { return r.lcs[0].waiters.Load() != 0 })
	sn := r.Metrics() // runs a closure on every LC: the gauges are those of completed runs
	for i, lc := range r.lcs {
		wantDepth, wantWaiters := 0, 0
		if i == 0 {
			wantDepth, wantWaiters = len(distinct), slots
		}
		if d, w := lc.pendingDepth.Load(), lc.waiters.Load(); d != int64(wantDepth) || w != int64(wantWaiters) {
			t.Errorf("LC %d reads %d waitlists and %d waiters, want %d and %d", i, d, w, wantDepth, wantWaiters)
		}
	}
	if d, w := sn.Sum(MetricWaitlistDepth), sn.Sum(MetricWaiters); d != float64(len(distinct)) || w != float64(slots) {
		t.Errorf("Metrics reads %v waitlists and %v waiters, want %d and %d", d, w, len(distinct), slots)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("blocked batch returned %v, want context.Canceled", err)
	}
	// Past the deadline with retries disabled, the sweep answers every
	// waitlist from the fallback.
	r.own(0, func(lc *lineCard) { r.tick(lc, r.now()+int64(2*time.Hour)) })
	checkDrained(t, r)
}
