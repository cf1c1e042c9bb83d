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
			ch, err := r.LookupAsync(0, a)
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
			t.Fatalf("LookupAsync %d: %v", i, res.err)
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
		if _, err := r.LookupAsync(0, tbl.RandomMatchedAddr(rng)); err != nil {
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
// UpdateTable must complete while the data inbox is still full, with or
// without an overload policy. The inbox is packed with lookups whose FE
// execution (steppedEngine) blocks until the test releases it, and the test
// releases one only after the control calls have had a millisecond to
// finish without it — so they finish after a handful of data messages (a
// control caller waits for the LC's lock, not for its inbox), or, if control
// queued behind data, only once the whole inbox had drained.
func TestControlLandsWhileDataInboxFull(t *testing.T) {
	for name, opts := range map[string][]Option{
		"policy-on":  {WithOverload(OverloadPolicy{QueueDepth: 256})},
		"policy-off": nil,
	} {
		t.Run(name, func(t *testing.T) {
			tbl := rtable.Small(500, 3)
			step := make(chan struct{})
			stepped := func(tbl *rtable.Table) lpm.Engine { return steppedEngine{lpm.NewReferenceEngine(tbl), step} }
			r, err := New(tbl, append([]Option{WithLCs(1), WithDefaultCache(), WithEngine(stepped)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()

			defer close(step)
			depth := cap(r.inboxes[0])
			// depth+1: the LC takes one lookup off the inbox and blocks in it.
			// Distinct addresses: every one misses and runs the FE.
			for i := 0; i <= depth; i++ {
				r.push(0, message{kind: mLookup, addr: ip.Addr(i), resp: make(chan Verdict, 1)})
			}
			ctrlDone := make(chan error, 1)
			go func() {
				r.FlushCaches()
				r.Metrics()
				ctrlDone <- r.UpdateTable(rtable.Small(500, 4))
			}()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for pending := true; pending; {
				select {
				case err := <-ctrlDone:
					if err != nil {
						t.Fatalf("UpdateTable: %v", err)
					}
					pending = false
				case <-tick.C:
					step <- struct{}{}
				}
			}
			if left := len(r.inboxes[0]); left < depth/2 {
				t.Errorf("control calls only finished with the data inbox drained to %d of %d", left, depth)
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
	if got := unsafe.Sizeof(message{}); got > 112 {
		t.Errorf("a message is %d bytes, want at most 112", got)
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

// TestGoroutinesAtRest: a ψ-LC router runs ψ LC loops and one health
// monitor, nothing else, and Stop leaves none behind.
func TestGoroutinesAtRest(t *testing.T) {
	const psi = 4
	before := routerGoroutines()
	r, err := New(rtable.Small(500, 3), WithLCs(psi), WithDefaultCache())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lookup(0, 1); err != nil {
		t.Fatal(err)
	}
	if got := routerGoroutines() - before; got != psi+1 {
		t.Errorf("a %d-LC router at rest runs %d goroutines, want %d", psi, got, psi+1)
	}
	r.Stop()
	// Stop waits for each goroutine's last deferred call, not its exit.
	waitFor(t, "router goroutines to exit after Stop", func() bool { return routerGoroutines() == before })
}

// push queues m on LC i's data inbox the way every production sender
// does — counted in the LC's backlog first, so nothing submitted after it
// overtakes it by running inline.
func (r *Router) push(i int, m message) {
	r.lcs[i].backlog.Add(1)
	r.inboxes[i] <- m
}
