// The per-LC queue and its overload control: admission, load shedding, the
// home-trust streak and an adaptive per-LC retry budget.
//
// The paper sizes SPAL for line rate and treats the home LC's forwarding
// engine as the contended resource; bit selection bounds *table*
// imbalance but nothing bounds *traffic* imbalance. Every router bounds
// its memory with the inbox depth and keeps the fabric path
// non-blocking; by default a hot home LC or a retry storm then simply
// backs callers up behind full inboxes, and nothing tells them to back
// off. With WithOverload the router defends itself at four points:
//
//   - Admission: a locally submitted lookup that finds the arrival LC's
//     inbox full is refused immediately with ErrOverloaded
//     (shed-at-arrival). Without WithOverload it waits for space.
//   - Fabric (every router, overload control or not): requests and
//     replies are never allowed to block the sending LC — a full target
//     inbox sheds the message and the requester's existing
//     deadline/retry/fallback machinery keeps the lookup terminating.
//     Mutually-full LCs therefore cannot deadlock.
//   - Home trust: each LC counts, per home LC, the deadline expiries in a
//     row toward it. At trustAfter the home is untrusted, as an ejected one
//     is (gray.go): its fresh misses are answered from the full-table
//     fallback and still asked of it as probes nobody waits on, and its
//     expiries are not retried, so retries cannot amplify load on a
//     failing home. Any answer from the home ends the streak.
//   - Retry budget: each LC holds a tokenBucket refilled by successful
//     fabric replies (retryBudgetRatio tokens per success, the
//     client-side "retry budget" pattern). A deadline-driven retry toward
//     a trusted home spends one token; with the bucket empty the lookup
//     goes straight to the full-table fallback. It answers loss spread
//     over every link, which breaks no home's streak often enough to end
//     trust in it but would have each lookup retried.
//
// Every structure here follows the package's ownership rules: the streaks
// and the bucket are mutated only by the LC's current owner (the holder of
// lineCard.mu); Metrics reads atomic mirrors. Control (cache
// flush, table swap, stats collection) bypasses admission entirely — its
// caller takes the LC's lock, not a place in its queue (see own) — so
// drain/kill/UpdateTable keep their no-lost-lookup guarantees under full
// queues. Control may therefore overtake data that was sent before it.
package router

import (
	"context"
	"errors"
	"sync/atomic"

	"spal/internal/ip"
	"spal/internal/tracing"
)

// ErrOverloaded is returned by Lookup/LookupCtx (and delivered as a
// ServedByShed verdict on async paths) when overload control refuses a
// lookup: the arrival LC's inbox is full, or its waitlist for the
// address is at capacity. The lookup was not executed; the caller may
// retry later, ideally with backoff. Only routers built WithOverload
// ever return it.
var ErrOverloaded = errors.New("router: overloaded")

// Overload settings. defaultQueueDepth is also the inbox depth of a router
// without overload control: deep enough that no closed-loop caller in the
// repository fills it (the widest async fan-out is a few hundred lookups),
// shallow enough that ψ inboxes of it cost under a MiB at ψ=4. The rest
// hold only under WithOverload:
//
//   - waitlistCap bounds the waiters (local + remote) coalesced onto one
//     in-flight address; overflow local lookups shed with ErrOverloaded,
//     overflow remote requests are dropped back onto the requester's retry
//     path. Bounds the W-bit waiting lists so a single-address storm cannot
//     grow state without limit.
//   - trustAfter is the consecutive deadline-expiry count from one home LC
//     that makes it untrusted.
//   - retryBudgetRatio is the retry bucket's refill per successful fabric
//     reply (retries may consume 10% of recent successes); retryBudgetBurst
//     caps the bucket and seeds it at construction.
const (
	defaultQueueDepth = 1024
	waitlistCap       = 256
	trustAfter        = 5
	retryBudgetRatio  = 0.1
	retryBudgetBurst  = 10
)

// WithOverload enables overload control: each LC's inbox holds queueDepth
// messages (<= 0 selects 1024), and a lookup that finds it full is refused
// with ErrOverloaded. The waitlist cap, the home-trust streak and the retry
// budget come with it, at the constants above.
func WithOverload(queueDepth int) Option {
	return func(c *config) {
		c.Overload = true
		c.QueueDepth = queueDepth
	}
}

// shedReason labels why a message or lookup was shed; the wire names
// below are the reason="" label values of spal_router_shed_total.
type shedReason uint8

// Shed reasons.
const (
	// shedInboxFull: a locally submitted lookup found the arrival LC's
	// inbox full (shed-at-arrival; the caller saw ErrOverloaded).
	shedInboxFull shedReason = iota
	// shedRemoteFull: a fabric request was dropped because the home LC's
	// inbox was full. Attributed to the overloaded (target) LC.
	shedRemoteFull
	// shedReplyFull: a fabric reply was dropped because the requester's
	// inbox was full; the requester's deadline machinery re-resolves.
	shedReplyFull
	// shedWaitlistOverflow: the per-address waitlist was at waitlistCap.
	shedWaitlistOverflow
	numShedReasons
)

// shedReasonNames are the reason="" label values.
var shedReasonNames = [numShedReasons]string{
	"inbox_full", "remote_inbox_full", "reply_inbox_full",
	"waitlist_overflow",
}

// tokenBucket is the retry budget: retries add fabric load, so they are
// paid for by evidence that the fabric still works. Every successful round
// trip refills it by retryBudgetRatio tokens up to retryBudgetBurst, every
// retry takes one. It starts full. Guarded by the owning LC's lineCard.mu.
type tokenBucket float64

// refill credits one successful fabric round trip.
func (b *tokenBucket) refill() {
	*b = min(*b+retryBudgetRatio, retryBudgetBurst)
}

// take spends one token; false means the budget is exhausted.
func (b *tokenBucket) take() bool {
	if *b < 1 {
		return false
	}
	*b--
	return true
}

// lcOverload is one LC's overload-control state. The atomic counters are
// written from whatever goroutine observes the event (admission and
// fabric sheds happen outside the target LC's lock); streak and the retry
// bucket are guarded by the owning LC's lineCard.mu.
type lcOverload struct {
	shed            [numShedReasons]atomic.Int64
	streakServed    atomic.Int64
	budgetExhausted atomic.Int64
	budgetMilli     atomic.Int64 // retry tokens × 1000, for the gauge

	streak []uint8 // per home: deadline expiries in a row, at most trustAfter; nil without overload control
	retry  tokenBucket
}

// mirrorBudget publishes the retry bucket's level for Metrics. lc.mu must
// be held.
func (ov *lcOverload) mirrorBudget() {
	ov.budgetMilli.Store(int64(ov.retry * 1000))
}

// shedCount increments one LC's shed counter for a reason.
func (r *Router) shedCount(lc int, why shedReason) {
	r.lcs[lc].ov.shed[why].Add(1)
}

// admit is the admission layer for a locally submitted lookup or batch
// descriptor. An idle arrival LC runs it on the caller's goroutine
// (runInline); otherwise it takes one slot of the LC's queue (see queued) —
// a full queue refuses the whole batch. Without overload control the caller
// waits for space, until ctx is cancelled or the router stops; with it a
// full queue refuses the lookup with ErrOverloaded.
func (r *Router) admit(ctx context.Context, lc int, m message) error {
	if r.runInline(lc, m) {
		return nil
	}
	if !r.overload {
		select {
		case r.inboxes[lc] <- m:
			r.queued(lc, 0)
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case <-r.quit:
			return ErrStopped
		}
	}
	select {
	case r.inboxes[lc] <- m:
		r.queued(lc, 0)
		return nil
	case <-r.quit:
		return ErrStopped
	default:
	}
	r.shedCount(lc, shedInboxFull)
	if m.tr != nil {
		m.tr.Record(tracing.EvShed, int64(shedInboxFull), int64(lc))
		r.finishTrace(m.tr, ServedByShed, false)
	}
	return ErrOverloaded
}

// shedLocal abandons an already-admitted local lookup whose waitlist is
// full: the parked caller receives a ServedByShed verdict, which the
// synchronous Lookup wrappers convert to ErrOverloaded. The verdict lands in
// the lookup's descriptor slot, so a batch sub-lookup keeps its position,
// and this never blocks.
func (r *Router) shedLocal(lc int, addr ip.Addr, w localWaiter) {
	r.shedCount(lc, shedWaitlistOverflow)
	if w.tr != nil {
		w.tr.Record(tracing.EvShed, int64(shedWaitlistOverflow), int64(lc))
		r.finishTrace(w.tr, ServedByShed, false)
	}
	r.deliver(w, Verdict{Addr: addr, ServedBy: ServedByShed})
}

// replaySend re-submits a lookup parked at a crashed LC into the adopted
// slot's queue, behind what buffered there. It runs on the health monitor
// with r.mu held, and the monitor is the sweep: it must not wait for space
// nobody else may come by to make. On a full queue the monitor takes the LC
// and runs the handler itself, ahead of the queue: a replay is never shed,
// with overload control or without.
func (r *Router) replaySend(lc int, addr ip.Addr, w localWaiter) {
	m := message{kind: mLookup, addr: addr, bd: w.bd, slot: w.slot, start: w.bd.start, tr: w.tr}
	select {
	case r.inboxes[lc] <- m:
		r.queued(lc, 0)
	case <-r.quit:
	default:
		r.own(lc, func(lc *lineCard) {
			lc.handledInline.Add(1)
			r.handle(lc, m)
		})
	}
}

// queued follows every push onto LC i's queue: the message is counted, and
// its sender tries the lock once, to be the owner whose leave serves it if
// whoever was in the way has gone (see leave). depth is the sender's nesting.
func (r *Router) queued(i int, depth uint8) {
	lc := r.lcs[i]
	lc.backlog.Add(1)
	if lc.mu.TryLock() {
		lc.depth = depth
		r.leave(lc, 0)
	}
}

// waitlistFull reports whether one more waiter would push addr's
// coalescing waitlist past waitlistCap.
func (r *Router) waitlistFull(wl *waitlist) bool {
	return r.overload && len(wl.locals)+len(wl.remotes) >= waitlistCap
}

// distrust is untrusted's answer: why lc does not wait for a home, or
// trusted. It is read once per decision and handed on, because ejection can
// end between two reads of it (the health ticker runs under r.mu, not lc.mu).
type distrust uint8

const (
	trusted     distrust = iota
	ejectedHome          // home ejected as browned out (gray.go)
	streakHome           // trustAfter deadline expiries in a row toward home
)

// untrusted reports whether lc is not to wait for home, and why: home
// ejected as browned out (gray.go), or trustAfter deadline expiries in a row
// toward it (overload control). A fresh miss homed there is answered from
// the fallback and still asked of home as a probe (routeFor), an expiry
// toward it is not retried (checkDeadlines), and the direct exchange skips
// it (missRow). lc.mu must be held.
func (r *Router) untrusted(lc *lineCard, home int) distrust {
	switch {
	case r.ejected(home):
		return ejectedHome
	case r.overload && lc.ov.streak[home] >= trustAfter:
		return streakHome
	}
	return trusted
}

// servedUntrusted counts and traces one lookup answered from the fallback
// because home is untrusted for why: as ejection's, or as the streak's, B
// the streak. lc.mu must be held.
func (r *Router) servedUntrusted(lc *lineCard, home int, why distrust, tr *tracing.LookupTrace) {
	if why == ejectedHome {
		r.ejectServed.Add(1)
		tr.Record(tracing.EvEject, int64(home), 0)
		return
	}
	lc.ov.streakServed.Add(1)
	tr.Record(tracing.EvStreak, int64(home), int64(lc.ov.streak[home]))
}

// deliverData is the final hop of a fabric send: it hands a request or
// reply to the target LC without ever blocking the sender. An idle target
// runs it right here (runInline); a busy one gets it through its queue,
// and a full queue sheds the message (counted) — the requester-side
// deadline machinery keeps the affected lookup terminating. A message
// already maxInlineDepth hand-offs deep starts again on an empty stack, a
// helper's (whose runInline is the one frame above it) — not through the
// queue, which the frames of this very stack serve as they unwind: the
// installer of a table swap would pick a request and its stale reply up
// again and again, and the install that ends their chase never run.
func (r *Router) deliverData(to int, m message) {
	if m.depth > maxInlineDepth {
		m.depth = 1
		r.sendDelayed([]fabricSend{{to: to, m: m}})
		return
	}
	if r.runInline(to, m) {
		return
	}
	select {
	case r.inboxes[to] <- m:
		r.queued(to, m.depth)
	case <-r.quit:
	default:
		if m.kind == mBatchReply {
			r.shedCount(to, shedReplyFull)
		} else {
			r.shedCount(to, shedRemoteFull)
		}
	}
}
