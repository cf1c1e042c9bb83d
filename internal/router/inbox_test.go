// Tests for the one inbox every LC has: a bounded channel, the only one
// into it. overload_test.go covers what WithOverload layers on
// top; these cover the policy-off row — callers block on a full inbox and
// are never shed, LC→LC sends shed instead of blocking and are recovered
// by the deadline machinery — and the properties both rows share.
package router

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/metrics"
	"spal/internal/rtable"
	"spal/internal/stats"
)

// TestPolicyOffPeerInboxFull: with no overload policy and the home LC
// stalled, a producer pushes more remote lookups through the arrival LC
// than the home's inbox holds. The arrival LC must shed the excess fabric
// requests (never block on its peer), count them, and recover every one
// by deadline → retry → fallback; no call may report overload.
func TestPolicyOffPeerInboxFull(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	oracle := lpm.NewReference(tbl)
	r, err := New(tbl, WithLCs(2), WithRequestTimeout(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	depth := cap(r.inboxes[1])
	n := depth + 256
	addrs := remoteAddrs(t, r, tbl, stats.NewRNG(3), 1, n)
	release := gateLC(t, r, 1)
	defer release()

	type result struct {
		ch  <-chan Verdict
		err error
	}
	results := make(chan result, n)
	go func() {
		for _, a := range addrs {
			ch, err := lookupAsync(r, 0, a)
			results <- result{ch, err}
		}
	}()
	// Metrics waits on every LC, so while LC 1 is stalled read the counter
	// the snapshot is built from.
	waitFor(t, "fabric requests shed on LC 1's full inbox", func() bool {
		return r.lcs[1].ov.shed[shedRemoteFull].Load() >= int64(n-depth)
	})
	if got := len(r.inboxes[1]); got != depth {
		t.Errorf("stalled LC's inbox holds %d messages, want it full at %d", got, depth)
	}
	release()

	for i, a := range addrs {
		res := <-results
		if res.err != nil {
			t.Fatalf("lookupAsync %d: %v", i, res.err)
		}
		select {
		case v := <-res.ch:
			if v.ServedBy == ServedByShed {
				t.Fatalf("lookup %d shed on a router without an overload policy", i)
			}
			if !verdictMatches(v, oracle, a) {
				t.Fatalf("lookup %d: wrong verdict %+v", i, v)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("lookup %d never terminated", i)
		}
	}
	s := r.Metrics()
	if got, _ := s.Value(MetricShed, metrics.L("lc", "1"), metrics.L("reason", "remote_inbox_full")); got < float64(n-depth) {
		t.Errorf("%s{lc=1,reason=remote_inbox_full} = %v, want >= %d", MetricShed, got, n-depth)
	}
	if _, ok := s.Value(MetricShed, metrics.L("lc", "0"), metrics.L("reason", "inbox_full")); ok {
		t.Error("policy-off snapshot reports the admission shed reason, which cannot occur")
	}
	if s.Sum(MetricFallbacks)+s.Sum(MetricRetries) == 0 {
		t.Error("shed requests were recovered by neither retry nor fallback")
	}
}

// TestPolicyOffCallerBlocksOnFullInbox: submitting at an LC whose inbox
// is full blocks — until space frees, or until the caller's context ends
// — and never reports overload.
func TestPolicyOffCallerBlocksOnFullInbox(t *testing.T) {
	tbl := rtable.Small(500, 3)
	oracle := lpm.NewReference(tbl)
	r, err := New(tbl, WithLCs(1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	release := gateLC(t, r, 0)
	defer release()

	rng := stats.NewRNG(9)
	for i := 0; i < cap(r.inboxes[0]); i++ {
		if _, err := lookupAsync(r, 0, tbl.RandomMatchedAddr(rng)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := r.LookupCtx(ctx, 0, tbl.RandomMatchedAddr(rng)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("LookupCtx on a full inbox: err = %v, want context.DeadlineExceeded", err)
	}
	out := make([]Verdict, 1)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel2()
	if err := r.LookupBatchInto(ctx2, 0, []ip.Addr{1}, out); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("LookupBatchInto on a full inbox: err = %v, want context.DeadlineExceeded", err)
	}

	addr := tbl.RandomMatchedAddr(rng)
	type res struct {
		v   Verdict
		err error
	}
	got := make(chan res, 1)
	go func() {
		v, err := r.Lookup(0, addr)
		got <- res{v, err}
	}()
	select {
	case g := <-got:
		t.Fatalf("Lookup returned (%+v, %v) while the inbox was full", g.v, g.err)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	select {
	case g := <-got:
		if g.err != nil || !verdictMatches(g.v, oracle, addr) {
			t.Fatalf("blocked lookup resolved (%+v, %v)", g.v, g.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked lookup never completed after release")
	}
}

// TestControlLandsWhileDataInboxFull: FlushCaches, Metrics and
// UpdateTable take effect while the data queue is still full, with or
// without an overload policy: a control caller waits for the LC's lock, not
// for its queue. The queue is packed with lookups whose FE execution
// (steppedEngine) blocks until the test steps it, behind no owner — what a
// flood leaves. The lookup at the queue's head tells that the control action
// was in force before any of them ran: after a flush the warmed address
// misses, after a table swap it has the new table's next hop. And since
// whoever holds the lock is the LC, and an LC serves its queue before it
// goes, the call returns once it has served the queue it found: at most
// QueueDepth handler runs, however fast the queue refills.
func TestControlLandsWhileDataInboxFull(t *testing.T) {
	t1, t2 := rtable.Small(500, 3), rtable.Small(500, 4)
	o1, o2 := lpm.NewReference(t1), lpm.NewReference(t2)
	var addr ip.Addr // routed differently by the two tables
	for rng := stats.NewRNG(5); ; {
		addr = t1.RandomMatchedAddr(rng)
		if nh, _, ok := o1.Lookup(addr); !verdictMatches(Verdict{Addr: addr, NextHop: nh, OK: ok}, o2, addr) {
			break
		}
	}
	for name, opts := range map[string][]Option{
		"policy-on":  {WithOverload(256, ShedDropNewest)},
		"policy-off": nil,
	} {
		t.Run(name, func(t *testing.T) {
			step := make(chan struct{})
			stepped := func(tbl *rtable.Table) lpm.Engine { return steppedEngine{lpm.NewReferenceEngine(tbl), step} }
			// The hour keeps the monitor's sweep from owning the LC first.
			r, err := New(t1, append([]Option{WithLCs(1), WithDefaultCache(), WithEngine(stepped), WithRequestTimeout(time.Hour)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()
			defer close(step)
			lc, depth := r.lcs[0], cap(r.inboxes[0])

			// during runs control while the test steps the handlers it unblocks
			// one at a time, and reports how many it took and what the lookup
			// at the head of the queue came back with.
			during := func(control func() error) (steps int, head Verdict) {
				t.Helper()
				// Distinct addresses behind addr: every one misses and runs the FE.
				hb := getBatchDesc(1, 0)
				r.inboxes[0] <- message{kind: mLookup, addr: addr, bd: hb}
				for i := 1; i < depth; i++ {
					r.inboxes[0] <- message{kind: mLookup, addr: ip.Addr(i), bd: getBatchDesc(1, 0)}
				}
				lc.backlog.Add(int32(depth)) // counted, and every sender lost its TryLock to an owner now gone
				done := make(chan error, 1)
				go func() { done <- control() }()
				for {
					select {
					case err := <-done:
						if err != nil {
							t.Fatalf("control: %v", err)
						}
						if steps > depth {
							t.Errorf("control returned after %d handler runs, want at most the %d queued", steps, depth)
						}
						return steps, head
					case step <- struct{}{}:
						if steps++; steps == 1 {
							<-hb.done
							head = hb.out[0]
							if left := len(r.inboxes[0]); left < depth/2 {
								t.Errorf("the head of the queue was served with %d of %d left", left, depth)
							}
						}
					}
				}
			}

			warm := make(chan Verdict)
			go func() {
				v, _ := r.Lookup(0, addr)
				warm <- v
			}()
			step <- struct{}{}
			if v := <-warm; !verdictMatches(v, o1, addr) {
				t.Fatalf("warm-up: %+v", v)
			}
			if v, err := r.Lookup(0, addr); err != nil || v.ServedBy != ServedByCache {
				t.Fatalf("warmed lookup: %+v, %v; want a cache hit", v, err)
			}
			if _, head := during(func() error { r.FlushCaches(); r.Metrics(); return nil }); head.ServedBy == ServedByCache || !verdictMatches(head, o1, addr) {
				t.Errorf("queued behind a flush, the warmed lookup came back %+v (served by %s), want a miss", head, head.ServedBy)
			}
			if _, head := during(func() error { return r.UpdateTable(t2) }); !verdictMatches(head, o2, addr) {
				t.Errorf("queued behind a table swap, the lookup came back %+v, want the new table's", head)
			}
		})
	}
}

// steppedEngine is an engine whose every lookup waits for a step (or for
// step to be closed): a data message that holds its LC until the test lets
// it go.
type steppedEngine struct {
	lpm.Engine
	step <-chan struct{}
}

func (e steppedEngine) Lookup(a ip.Addr) (rtable.NextHop, int, bool) {
	<-e.step
	return e.Engine.Lookup(a)
}

// TestMessageSize: every miss copies its message four or five times — into
// an outbox, through an inbox, into a handler — so it carries the fabric
// traffic and nothing else, in under two cache lines.
func TestMessageSize(t *testing.T) {
	if got := unsafe.Sizeof(message{}); got > 96 {
		t.Errorf("a message is %d bytes, want at most 96", got)
	}
}

// routerGoroutines counts live goroutines started by New or by a Router
// method (not the ones tests start themselves).
func routerGoroutines() int {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	return strings.Count(stacks, "created by spal/internal/router.New ") +
		strings.Count(stacks, "created by spal/internal/router.(*Router).")
}

// TestGoroutinesAtRest: a router runs one goroutine, the health monitor,
// whatever ψ is — a line card is a lock and a queue — a crash and its
// adoption neither end nor start one, and Stop leaves none behind.
func TestGoroutinesAtRest(t *testing.T) {
	for _, psi := range []int{1, 4, 16} {
		before := routerGoroutines()
		r, err := New(rtable.Small(500, 3), WithLCs(psi), WithDefaultCache(), WithRequestTimeout(4*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Lookup(0, 1); err != nil {
			t.Fatal(err)
		}
		if got := routerGoroutines() - before; got != 1 {
			t.Errorf("a %d-LC router at rest runs %d goroutines, want 1", psi, got)
		}
		if dead := psi - 1; dead > 0 {
			crash(t, r, dead)
			waitFor(t, "the crashed LC to be adopted", func() bool { return r.LCStates()[dead] == LCDown && r.lcs[dead].live.Load() })
			if err := r.RestoreLC(dead); err != nil {
				t.Fatal(err)
			}
			if got := routerGoroutines() - before; got != 1 {
				t.Errorf("a %d-LC router runs %d goroutines after a crash, its adoption and a restore, want 1", psi, got)
			}
		}
		r.Stop()
		// Stop waits for each goroutine's last deferred call, not its exit.
		waitFor(t, "router goroutines to exit after Stop", func() bool { return routerGoroutines() == before })
	}
}

// push queues m at LC i the way every production sender does: pushed, then
// counted, then served by the sender itself if the LC has come free.
func (r *Router) push(i int, m message) {
	r.inboxes[i] <- m
	r.queued(i, 0)
}
