// The batched data plane: one pooled descriptor per LookupBatch call
// instead of N messages and N reply channels, and one coalesced fabric
// message per destination home LC per batch instead of one per address.
//
// Submission: LookupBatchInto copies the addresses into a batchDesc
// drawn from a sync.Pool and sends a single mBatch message at the
// arrival LC. The descriptor carries a verdict array indexed by
// submission position and an atomic countdown of unresolved slots;
// whoever resolves the last slot signals the (buffered) done channel.
// Steady state a batch allocates two fabric payloads per remote home it
// reaches (request and reply, see fabricRow) and nothing else: descriptor,
// arrays, LC scratch and waitlists all recycle.
//
// Inside the arrival LC, handleBatch classifies every address in one
// pass: cache hits resolve inline; addresses with an in-flight miss
// coalesce onto the existing waitlist as batch waiters (a localWaiter
// whose bd/slot point back into the descriptor); same-home misses are
// collected and resolved with one batched engine sweep after the scan —
// no waitlist, no W block, no allocation; remote misses take the one
// miss path (park, routeFor, then deadline/retry/fallback/re-home) and
// only their fabric requests differ: they accumulate per home LC and go
// out as a single mBatchRequest each when the scan ends. That
// turns the fabric cost of a ψ-way scattered batch from O(addresses)
// messages into O(ψ): the per-message constant (channel send, select
// wakeup, injector call) is paid once per home instead of once per
// address.
//
// Cancellation: a caller whose context fires flips the descriptor's state
// to abandoned and walks away; the last in-flight sub-lookup to land
// observes the state and returns the descriptor to the pool itself
// (Router.batchRecycled counts these).
package router

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"spal/internal/cache"
	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/rtable"
	"spal/internal/tracing"
)

// batchDesc lifecycle states.
const (
	bdRunning   int32 = iota
	bdDone            // all slots resolved; done was signalled
	bdAbandoned       // caller left (ctx/quit); last resolver recycles
)

// batchDesc is one in-flight LookupBatch call: the submitted addresses,
// the positional verdict array, and the synchronization that hands the
// finished batch (or the abandoned descriptor) to exactly one owner.
type batchDesc struct {
	addrs   []ip.Addr
	out     []Verdict
	pending atomic.Int32 // unresolved slots
	state   atomic.Int32 // bdRunning / bdDone / bdAbandoned
	done    chan struct{}
	start   int64 // submission stamp (Router.now), shared by every slot's latency
}

var batchPool = sync.Pool{New: func() any { return &batchDesc{done: make(chan struct{}, 1)} }}

// getBatchDesc draws a descriptor and loads it. The addresses are copied
// (the caller may reuse its slice immediately); out is sized but not
// cleared — every slot is written exactly once before it is read.
func (r *Router) getBatchDesc(addrs []ip.Addr) *batchDesc {
	bd := batchPool.Get().(*batchDesc)
	bd.addrs = append(bd.addrs[:0], addrs...)
	if cap(bd.out) < len(addrs) {
		bd.out = make([]Verdict, len(addrs))
	} else {
		bd.out = bd.out[:len(addrs)]
	}
	bd.state.Store(bdRunning)
	bd.pending.Store(int32(len(addrs)))
	bd.start = r.now()
	return bd
}

func putBatchDesc(bd *batchDesc) {
	// Verdicts and addresses hold no pointers, so truncating (keeping the
	// capacity, which is the point of pooling) pins nothing.
	bd.addrs = bd.addrs[:0]
	bd.out = bd.out[:0]
	batchPool.Put(bd)
}

// bdResolveN retires n slots of a batch whose verdicts the caller has
// written. The goroutine that retires the last slot either wakes the
// waiting caller or — when the caller abandoned the batch — recycles the
// descriptor on its behalf. The atomic countdown orders every slot write
// before the final signal, so the caller reads a fully written out array.
// With nothing to retire the descriptor is not touched: it may be gone.
func (r *Router) bdResolveN(bd *batchDesc, n int) {
	if n == 0 || bd.pending.Add(int32(-n)) != 0 {
		return
	}
	if bd.state.CompareAndSwap(bdRunning, bdDone) {
		bd.done <- struct{}{}
		return
	}
	r.batchRecycled.Add(1)
	putBatchDesc(bd)
}

// abandonBatch detaches a cancelled caller from its descriptor. If the
// batch completed concurrently, the done signal is already buffered:
// drain it and recycle here instead.
func (r *Router) abandonBatch(bd *batchDesc) {
	if bd.state.CompareAndSwap(bdRunning, bdAbandoned) {
		return
	}
	<-bd.done
	putBatchDesc(bd)
}

// deliver answers one lookup message's submitter: the descriptor slot
// when the lookup rides a batch, the buffered reply channel otherwise.
func (r *Router) deliver(m message, v Verdict) {
	if m.bd != nil {
		m.bd.out[m.slot] = v
		r.bdResolveN(m.bd, 1)
		return
	}
	m.resp <- v
}

// fabricRow is one address of a coalesced fabric payload and (on replies)
// its verdict. A payload is a slice of rows: one allocation, made fresh per
// send and never mutated afterwards, so that an injector-duplicated message
// can share it safely — which is why payloads are not pooled.
type fabricRow struct {
	addr    ip.Addr
	nextHop rtable.NextHop
	ok      bool
}

// lcScratch is a line card's private batch workspace, allocated once and
// reused across batches: the pending local-FE sweep (addrs/slots/trs/res)
// and the per-home fabric accumulators (byHome, indexed by LC id; homes
// lists the active ones), each copied into its payload at send.
type lcScratch struct {
	addrs  []ip.Addr
	slots  []int32
	trs    []*tracing.LookupTrace
	res    []lpm.Result
	byHome [][]fabricRow
	homes  []int
}

func newLCScratch(numLCs int) *lcScratch {
	return &lcScratch{byHome: make([][]fabricRow, numLCs)}
}

// resetSweep clears the local-FE collection arrays, dropping trace
// pointers so the scratch pins nothing between batches.
func (sc *lcScratch) resetSweep() {
	sc.addrs = sc.addrs[:0]
	sc.slots = sc.slots[:0]
	clear(sc.trs)
	sc.trs = sc.trs[:0]
}

// LookupBatch pipelines a whole slice of destinations at one line card
// and returns the verdicts in submission order; see LookupBatchCtx for
// the ordering guarantee.
func (r *Router) LookupBatch(lc int, addrs []ip.Addr) ([]Verdict, error) {
	return r.LookupBatchCtx(context.Background(), lc, addrs)
}

// LookupBatchInto is LookupBatchCtx writing into a caller-provided verdict
// slice (len(out) >= len(addrs)); warm, it allocates nothing but two fabric
// payloads per remote home reached. On error the contents of out are
// unspecified. The positional guarantee holds: out[i] answers addrs[i].
func (r *Router) LookupBatchInto(ctx context.Context, lc int, addrs []ip.Addr, out []Verdict) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if lc < 0 || lc >= r.cfg.NumLCs {
		return fmt.Errorf("router: no such LC %d", lc)
	}
	if len(out) < len(addrs) {
		return fmt.Errorf("router: out holds %d verdicts, batch has %d addresses", len(out), len(addrs))
	}
	if len(addrs) == 0 {
		return nil
	}
	bd := r.getBatchDesc(addrs)
	if err := r.admit(ctx, lc, message{kind: mBatch, bd: bd}); err != nil {
		putBatchDesc(bd)
		return err
	}
	select {
	case <-bd.done:
		copy(out, bd.out)
		putBatchDesc(bd)
		return nil
	case <-ctx.Done():
		r.abandonBatch(bd)
		return ctx.Err()
	case <-r.quit:
		r.abandonBatch(bd)
		return ErrStopped
	}
}

// handleBatch classifies a batch at its arrival LC: inline cache hits,
// waitlist coalescing, a single batched FE sweep for same-home misses,
// and one accumulated fabric request per remote home LC.
func (r *Router) handleBatch(lc *lineCard, m message) {
	bd := m.bd
	sc := lc.scratch
	lc.stats.Lookups.Add(int64(len(bd.addrs)))
	lc.stats.Batches.Add(1)
	now := r.now()
	// Slots this run resolves itself — cache hits, then the same-home sweep —
	// are counted here and published once, after the fabric posts.
	hits := 0
	for i, addr := range bd.addrs {
		slot := int32(i)
		var tr *tracing.LookupTrace
		if r.tracer != nil {
			if tr = r.tracer.Sample(lc.id, addr); tr != nil {
				tr.Start = r.at(bd.start)
				tr.Record(tracing.EvArrival, int64(lc.id), 0)
			}
		}
		probeKind := cache.Miss
		if lc.cache != nil {
			res := lc.cache.Probe(addr)
			probeKind = res.Kind
			switch res.Kind {
			case cache.Hit, cache.HitVictim:
				hits++
				ok := res.NextHop != rtable.NoNextHop
				if tr != nil {
					tr.Record(tracing.EvProbe, int64(res.Kind), int64(res.Origin))
					r.finishTrace(tr, ServedByCache, ok)
				}
				r.finish(lc, ServedByCache, bd.start, traceID(tr))
				bd.out[slot] = Verdict{Addr: addr, NextHop: res.NextHop, OK: ok, ServedBy: ServedByCache}
				continue
			}
		}
		// From here the slot is a miss. Coalesce onto an in-flight one (covers
		// both HitWaiting and the cache-bypass case), as the single lookup it
		// would have been.
		if wl := lc.pending.get(addr); wl != nil {
			tr.Record(tracing.EvProbe, int64(probeKind), 0)
			r.joinLocal(lc, wl, &message{kind: mLookup, addr: addr, bd: bd, slot: slot, start: bd.start, tr: tr})
			continue
		}
		home := lc.homeOf(addr)
		if home == lc.id {
			// Same-home miss: no park, no W block — the batched FE
			// sweep below answers it within this handler, so there is no
			// in-flight window for anything to coalesce into. (Duplicates
			// inside the batch simply run the engine twice.)
			if tr != nil && lc.cache != nil {
				tr.Record(tracing.EvProbe, int64(probeKind), int64(cache.LOC))
			}
			sc.addrs = append(sc.addrs, addr)
			sc.slots = append(sc.slots, slot)
			sc.trs = append(sc.trs, tr)
			continue
		}
		// Remote miss: park a waitlist and let routeFor decide and arm it, so
		// the shared robustness machinery (checkDeadlines, re-homing,
		// breakers, ejection) treats batch sub-lookups like any single lookup
		// — only the fabric send is deferred into the per-home accumulator.
		if lc.cache != nil {
			recorded := lc.cache.Reserve(addr, cache.REM)
			if tr != nil {
				tr.Record(tracing.EvProbe, int64(probeKind), int64(cache.REM))
				if !recorded {
					tr.Record(tracing.EvBypass, 0, 0)
				}
			}
		}
		wl := r.park(lc, addr)
		wl.tr = tr
		lc.addLocal(wl, localWaiter{bd: bd, slot: slot, start: bd.start, tr: tr})
		if !r.routeFor(lc, addr, home, wl, now) {
			continue
		}
		if len(sc.byHome[home]) == 0 {
			sc.homes = append(sc.homes, home)
		}
		sc.byHome[home] = append(sc.byHome[home], fabricRow{addr: addr})
	}
	// One engine sweep answers every same-home miss.
	swept := len(sc.addrs)
	if swept > 0 {
		res, feNS := r.sweepFE(lc) // batch-granular; per-address splits aren't measured
		for k, addr := range sc.addrs {
			nh, ok := res[k].NextHop, res[k].OK
			lc.fill(addr, nh, cache.LOC)
			if tr := sc.trs[k]; tr != nil {
				tr.Record(tracing.EvFEExec, feNS, int64(lc.id))
				tr.Record(tracing.EvFill, int64(cache.LOC), int64(ServedByFE))
				r.finishTrace(tr, ServedByFE, ok)
			}
			r.finish(lc, ServedByFE, bd.start, traceID(sc.trs[k]))
			bd.out[sc.slots[k]] = Verdict{Addr: addr, NextHop: nh, OK: ok, ServedBy: ServedByFE}
		}
		sc.resetSweep()
	}
	// One fabric message per remote home with misses in this batch.
	for _, home := range sc.homes {
		fb := slices.Clone(sc.byHome[home]) // the payload: one exact-size allocation
		sc.byHome[home] = sc.byHome[home][:0]
		lc.stats.RequestsSent.Add(1)
		lc.stats.BatchRequestsSent.Add(1)
		lc.post(home, message{kind: mBatchRequest, from: lc.id, epoch: lc.epoch, fb: fb, addr: fb[0].addr, start: now})
	}
	sc.homes = sc.homes[:0]
	// The slot writes above precede this one RMW on the countdown, and the
	// run's own share is subtracted last, so the batch cannot complete —
	// and bd cannot be recycled — while this handler still reads it.
	lc.stats.CacheHits.Add(int64(hits))
	r.bdResolveN(bd, hits+swept)
}

// sweepFE runs this LC's engine over the addresses collected in its
// scratch in one batched call (BatchEngine engines run it
// level-synchronously; others fall back per key), misses normalised to
// NoNextHop. feNS is the whole sweep's time, measured only while tracing.
func (r *Router) sweepFE(lc *lineCard) (res []lpm.Result, feNS int64) {
	sc := lc.scratch
	n := len(sc.addrs)
	lc.stats.FEExecs.Add(int64(n))
	t0 := r.feTimer()
	if cap(sc.res) < n {
		sc.res = make([]lpm.Result, n)
	}
	res = sc.res[:n]
	lpm.LookupAll(lc.engine, sc.addrs, res)
	for k := range res {
		if !res[k].OK {
			res[k].NextHop = rtable.NoNextHop
		}
	}
	return res, r.elapsedNS(t0)
}

// handleBatchRequest serves a coalesced request at the home LC, address by
// address like handleRequest (serveRequest), except that cache hits and
// freshly computed results accumulate into one reply batch, sized from the
// request, and the fresh misses share one FE sweep. Addresses already in
// flight coalesce as remote waiters and ride individual replies instead
// (their resolution happens later, outside this handler); re-homed
// addresses are forwarded as individual requests.
func (r *Router) handleBatchRequest(lc *lineCard, m message) {
	sc := lc.scratch
	rb := make([]fabricRow, 0, len(m.fb))
	rw := remoteWaiter{from: m.from, epoch: m.epoch, gen: lc.gen}
	for _, row := range m.fb {
		hit, nh, fresh := r.serveRequest(lc, row.addr, rw, m.start)
		switch {
		case hit:
			rb = append(rb, fabricRow{row.addr, nh, nh != rtable.NoNextHop})
		case fresh:
			sc.addrs = append(sc.addrs, row.addr)
		}
	}
	if len(sc.addrs) > 0 {
		res, _ := r.sweepFE(lc)
		for k, addr := range sc.addrs {
			lc.fill(addr, res[k].NextHop, cache.LOC)
			rb = append(rb, fabricRow{addr, res[k].NextHop, res[k].OK})
		}
		sc.addrs = sc.addrs[:0]
	}
	if len(rb) > 0 {
		lc.stats.RepliesSent.Add(1)
		lc.stats.BatchRepliesSent.Add(1)
		// Batch replies carry no per-address FE timing (feNS stays 0) —
		// the home-side split isn't measured on this path.
		lc.post(m.from, message{kind: mBatchReply, from: lc.id, epoch: m.epoch, gen: r.stampGen(lc, lc.gen), fb: rb, addr: rb[0].addr})
	}
}

// handleBatchReply scatters a coalesced reply back into the requester's
// waitlists positionally. The batch is one message on the wire: the epoch
// guard, the round-trip sample and the breaker/budget credit are taken
// once, and every address carries the one generation the home computed
// the batch against.
func (r *Router) handleBatchReply(lc *lineCard, m message) {
	if m.epoch != lc.epoch {
		lc.stats.StaleReplies.Add(int64(len(m.fb)))
		return
	}
	r.replyFrom(lc, m.from, m.fb[0].addr)
	for _, row := range m.fb {
		r.replyFor(lc, &m, row.addr, row.nextHop, row.ok)
	}
}
