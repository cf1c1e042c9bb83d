// The per-LC queue and its overload control: admission, load shedding, an
// adaptive per-LC retry budget, and per-home-LC circuit breakers.
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
//     (shed-at-arrival, mode ShedDropNewest), or admitted only once space
//     frees (ShedBlock — the only behaviour without WithOverload).
//   - Fabric (every router, overload control or not): requests and
//     replies are never allowed to block the sending LC — a full target
//     inbox sheds the message and the requester's existing
//     deadline/retry/fallback machinery keeps the lookup terminating.
//     Mutually-full LCs therefore cannot deadlock.
//   - Retry budget: each LC holds a tokenBucket refilled by successful
//     fabric replies (retryBudgetRatio tokens per success, the
//     client-side "retry budget" pattern). A deadline-driven retry
//     spends one token; with the bucket empty the lookup goes straight
//     to the full-table fallback, so retries cannot amplify an
//     already-overloaded fabric.
//   - Circuit breaker: each LC tracks one breaker per home LC, driven
//     by the deadline ticker. Consecutive deadline expiries from one
//     home open its breaker; while open, dispatches homed there
//     short-circuit to ServedByFallback without touching the fabric.
//     After breakerCooldown the ticker arms a half-open probe: the next
//     dispatch crosses the fabric, and its success (reply) or failure
//     (another expiry) closes or re-opens the breaker.
//
// Every structure here follows the package's ownership rules: token
// buckets and breakers are mutated only by the LC's current owner (the
// holder of lineCard.mu); Metrics reads atomic mirrors. Control (cache
// flush, table swap, stats collection) bypasses admission entirely — its
// caller takes the LC's lock, not a place in its queue (see own) — so
// drain/kill/UpdateTable keep their no-lost-lookup guarantees under full
// queues. Control may therefore overtake data that was sent before it.
package router

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

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

// ShedMode selects what the admission layer does with a locally
// submitted lookup when the arrival LC's inbox is full.
type ShedMode uint8

// Shed modes.
const (
	// ShedDropNewest (default): refuse the new lookup with ErrOverloaded.
	ShedDropNewest ShedMode = iota
	// ShedBlock: block the Lookup caller until inbox space frees (or the
	// router stops). Only local admission blocks; the fabric path always
	// sheds, preserving the no-deadlock invariant.
	ShedBlock
)

// shedModeNames are the flag/report names.
var shedModeNames = [...]string{"drop-newest", "block"}

// String implements fmt.Stringer.
func (m ShedMode) String() string {
	if int(m) < len(shedModeNames) {
		return shedModeNames[m]
	}
	return "ShedMode(?)"
}

// ParseShedMode maps a flag string onto a ShedMode.
func ParseShedMode(s string) (ShedMode, error) {
	for i, n := range shedModeNames {
		if s == n {
			return ShedMode(i), nil
		}
	}
	return 0, errors.New("router: unknown shed mode " + s)
}

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
//   - retryBudgetRatio is the retry bucket's refill per successful fabric
//     reply (retries may consume 10% of recent successes); retryBudgetBurst
//     caps the bucket and seeds it at construction.
//   - breakerThreshold is the consecutive deadline-expiry count from one home
//     LC that opens its breaker; breakerCooldown is how long an open breaker
//     waits before the ticker arms a half-open probe.
const (
	defaultQueueDepth = 1024
	waitlistCap       = 256
	retryBudgetRatio  = 0.1
	retryBudgetBurst  = 10
	breakerThreshold  = 5
	breakerCooldown   = 4 // × the request timeout
)

// WithOverload enables overload control: each LC's inbox holds queueDepth
// messages (<= 0 selects 1024), and mode is what admission does with a
// lookup that finds it full. The waitlist cap, the retry budget and the
// breakers come with it, at the constants above.
func WithOverload(queueDepth int, mode ShedMode) Option {
	return func(c *config) {
		c.Overload = true
		c.QueueDepth = queueDepth
		c.ShedMode = mode
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
	// shedReplayDropped: a re-homed replay found the adopted slot's inbox
	// full; the parked caller received a ServedByShed verdict.
	shedReplayDropped
	numShedReasons
)

// shedReasonNames are the reason="" label values.
var shedReasonNames = [numShedReasons]string{
	"inbox_full", "remote_inbox_full", "reply_inbox_full",
	"waitlist_overflow", "replay_shed",
}

// Breaker states, mirrored into spal_router_breaker_state.
const (
	breakerClosed int32 = iota
	breakerOpen
	breakerHalfOpen
)

// breakerStateNames are the report names for the state gauge docs.
var breakerStateNames = [...]string{"closed", "open", "half_open"}

// breaker is one (arrival LC, home LC) circuit. fails, openedAt and
// probing belong to the arrival LC (mutated from its handle/tick paths
// only, under lineCard.mu); state is the atomic mirror Metrics and tests
// read.
type breaker struct {
	fails    int   // consecutive deadline expiries from this home
	openedAt int64 // when the breaker last opened, a reading of Router.now
	probing  bool  // half-open: the single probe is in flight
	state    atomic.Int32
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
// fabric sheds happen outside the target LC's lock); the retry bucket and
// the breakers are guarded by the owning LC's lineCard.mu.
type lcOverload struct {
	shed            [numShedReasons]atomic.Int64
	budgetExhausted atomic.Int64
	breakerShorts   atomic.Int64
	breakerOpens    atomic.Int64
	breakerCloses   atomic.Int64
	budgetMilli     atomic.Int64 // retry tokens × 1000, for the gauge

	retry    tokenBucket
	breakers []breaker
}

// newLCOverload builds the per-LC state: a full retry bucket and one
// closed breaker per peer slot.
func newLCOverload(enabled bool, numLCs int) *lcOverload {
	ov := &lcOverload{breakers: make([]breaker, numLCs)}
	if enabled {
		ov.retry = retryBudgetBurst
		ov.mirrorBudget()
	}
	return ov
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
// a full queue refuses the whole batch. Without overload control, and
// under ShedBlock, the caller waits for space, until ctx is cancelled or the
// router stops; ShedDropNewest refuses with ErrOverloaded instead.
func (r *Router) admit(ctx context.Context, lc int, m message) error {
	if r.runInline(lc, m) {
		return nil
	}
	if !r.overload || r.shedMode == ShedBlock {
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

// shedLocal abandons an already-admitted local lookup (waitlist
// overflow, replay shed): the parked caller receives a ServedByShed
// verdict, which the synchronous Lookup wrappers convert to
// ErrOverloaded. The verdict lands in the lookup's descriptor slot, so a
// batch sub-lookup keeps its position, and this never blocks.
func (r *Router) shedLocal(lc int, addr ip.Addr, w localWaiter, why shedReason) {
	r.shedCount(lc, why)
	if w.tr != nil {
		w.tr.Record(tracing.EvShed, int64(why), int64(lc))
		r.finishTrace(w.tr, ServedByShed, false)
	}
	r.deliver(w, Verdict{Addr: addr, ServedBy: ServedByShed})
}

// replaySend re-submits a lookup parked at a crashed LC into the adopted
// slot's queue, behind what buffered there. It runs on the health monitor
// with r.mu held, and the monitor is the sweep: it must not wait for space
// nobody else may come by to make. A full queue under overload control
// sheds the replay and the parked caller receives a ServedByShed verdict —
// every lookup still terminates. Without it no local lookup is ever shed:
// the monitor takes the LC and runs the handler itself, ahead of the queue.
func (r *Router) replaySend(lc int, addr ip.Addr, w localWaiter) {
	m := message{kind: mLookup, addr: addr, bd: w.bd, slot: w.slot, start: w.bd.start, tr: w.tr}
	select {
	case r.inboxes[lc] <- m:
		r.queued(lc, 0)
	case <-r.quit:
	default:
		if r.overload {
			r.shedLocal(lc, addr, w, shedReplayDropped)
			return
		}
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

// breakerFailure records one deadline expiry from home; enough
// consecutive failures (or any failure of a half-open probe) open the
// breaker. lc.mu must be held.
func (r *Router) breakerFailure(lc *lineCard, home int, now int64) {
	b := &lc.ov.breakers[home]
	switch b.state.Load() {
	case breakerOpen:
		return // already open; the cooldown clock keeps running
	case breakerHalfOpen:
		// The probe failed: re-open with a fresh cooldown.
		b.probing = false
		b.openedAt = now
		b.state.Store(breakerOpen)
		lc.ov.breakerOpens.Add(1)
		return
	}
	b.fails++
	if b.fails >= breakerThreshold {
		b.openedAt = now
		b.state.Store(breakerOpen)
		lc.ov.breakerOpens.Add(1)
	}
}

// breakerSuccess records a fabric reply from home: any success fully
// closes the circuit. lc.mu must be held.
func (r *Router) breakerSuccess(lc *lineCard, home int) {
	b := &lc.ov.breakers[home]
	b.fails = 0
	b.probing = false
	if b.state.Load() != breakerClosed {
		b.state.Store(breakerClosed)
		lc.ov.breakerCloses.Add(1)
	}
}

// breakerTick arms half-open probes: an open breaker whose cooldown has
// elapsed transitions to half-open, allowing the next dispatch through
// as the probe. Runs on the LC's deadline ticker at now, a reading of
// Router.now. lc.mu must be held.
func (r *Router) breakerTick(lc *lineCard, now int64) {
	for i := range lc.ov.breakers {
		b := &lc.ov.breakers[i]
		if b.state.Load() == breakerOpen && time.Duration(now-b.openedAt) >= breakerCooldown*r.timeout {
			b.probing = false
			b.state.Store(breakerHalfOpen)
		}
	}
}

// breakerAllows reports whether a dispatch homed at home may cross the
// fabric right now: closed always may; half-open admits exactly one
// in-flight probe; open admits nothing until the ticker arms a probe.
// lc.mu must be held.
func (r *Router) breakerAllows(lc *lineCard, home int) bool {
	b := &lc.ov.breakers[home]
	switch b.state.Load() {
	case breakerClosed:
		return true
	case breakerHalfOpen:
		if !b.probing {
			b.probing = true
			return true
		}
	}
	return false
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
		r.sendDelayed(to, m, 0)
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
