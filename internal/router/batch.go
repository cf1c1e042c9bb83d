// The batched data plane: one pooled descriptor per LookupBatch call
// instead of N messages and N reply channels, and one exchange per
// destination home LC per batch instead of one per address.
//
// Submission: LookupBatchInto copies the addresses into a batchDesc
// drawn from a sync.Pool and sends a single mBatch message at the
// arrival LC. The descriptor carries a verdict array indexed by
// submission position and an atomic countdown of unresolved slots;
// whoever resolves the last slot signals the (buffered) done channel.
// Steady state a batch allocates nothing when every remote home it
// reaches is idle, and two fabric payloads (request and reply, see
// fabricRow) per home that is not: descriptor, arrays, LC scratch and
// waitlists all recycle.
//
// Inside the arrival LC, handleBatch classifies every address in one
// pass: cache hits resolve inline; addresses with an in-flight miss
// coalesce onto the existing waitlist as batch waiters (a localWaiter
// whose bd/slot point back into the descriptor); same-home misses are
// collected and resolved with one batched engine sweep after the scan —
// no waitlist, no W block, no allocation. A remote miss reserves its W
// block and is held, unparked, for its home (a later row with the same
// address joins it); after the sweep each home is asked once. An idle
// home is asked by call, as a single lookup's is (direct): batchDirect
// takes its lock too and serveRows — the home's side of every batch
// exchange — answers the held rows on the caller's stack, with no
// waitlist, pending entry, payload or reply scatter. Whatever stands in the
// way (directable, askDirect, a row the home has in flight or no longer
// homes) sends the rows concerned down the one miss path (park, routeFor,
// then deadline/retry/fallback/re-home), whose fabric requests accumulate
// per home LC and go out as a single mBatchRequest each. Either way the
// cost of a ψ-way scattered batch is O(ψ) exchanges, not O(addresses)
// messages: the per-exchange constant (channel send, select wakeup,
// injector call, or the second lock) is paid once per home instead of
// once per address.
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

// heldRow is a remote miss a batch holds for a direct exchange with its home:
// the slot it answers, its trace, how many later rows of the batch share its
// address (heldDup), and whether an exchange has answered it.
type heldRow struct {
	tr       *tracing.LookupTrace
	slot     int32
	dups     int32
	answered bool
}

// heldDup is a later row of a batch whose address row row of home's held rows
// already has: it joins that row, as joinLocal joins a waitlist.
type heldDup struct {
	tr              *tracing.LookupTrace
	home, row, slot int32
}

// rowAnswer is a home's answer to row row of an exchange (see serveRows).
type rowAnswer struct {
	row int32
	nh  rtable.NextHop
	ok  bool
}

// lcScratch is a line card's private batch workspace, allocated once and
// reused across batches: the pending local-FE sweep (addrs/slots/trs/res);
// per home LC (indexed by LC id; homes lists the ones a batch reaches) the
// rows held for a direct exchange — ask, the request's rows should it become
// one, and held, who waits on each — and the fabric request accumulated
// (byHome, copied into its payload at send); the held rows' duplicates; and
// the answers of the exchange in progress (serveRows).
type lcScratch struct {
	addrs   []ip.Addr
	slots   []int32
	trs     []*tracing.LookupTrace
	res     []lpm.Result
	ask     [][]fabricRow
	held    [][]heldRow
	byHome  [][]fabricRow
	homes   []int
	dups    []heldDup
	answers []rowAnswer
}

func newLCScratch(numLCs int) *lcScratch {
	return &lcScratch{
		ask:    make([][]fabricRow, numLCs),
		held:   make([][]heldRow, numLCs),
		byHome: make([][]fabricRow, numLCs),
	}
}

// resetSweep clears the local-FE collection arrays, dropping trace
// pointers so the scratch pins nothing between batches.
func (sc *lcScratch) resetSweep() {
	sc.addrs = sc.addrs[:0]
	sc.slots = sc.slots[:0]
	clear(sc.trs)
	sc.trs = sc.trs[:0]
}

// reach lists home among the homes this batch reaches, the first time.
func (sc *lcScratch) reach(home int) {
	if len(sc.ask[home]) == 0 && len(sc.byHome[home]) == 0 {
		sc.homes = append(sc.homes, home)
	}
}

// resetHomes empties the per-home lists and the duplicates, dropping trace
// pointers, once every home has had its exchange.
func (sc *lcScratch) resetHomes() {
	for _, home := range sc.homes {
		clear(sc.held[home])
		sc.ask[home], sc.held[home], sc.byHome[home] = sc.ask[home][:0], sc.held[home][:0], sc.byHome[home][:0]
	}
	sc.homes = sc.homes[:0]
	clear(sc.dups)
	sc.dups = sc.dups[:0]
}

// heldIndex is the index of addr among home's held rows, -1 if none.
func (sc *lcScratch) heldIndex(home int, addr ip.Addr) int {
	for k, row := range sc.ask[home] {
		if row.addr == addr {
			return k
		}
	}
	return -1
}

// LookupBatch pipelines a whole slice of destinations at one line card
// and returns the verdicts in submission order; see LookupBatchCtx for
// the ordering guarantee.
func (r *Router) LookupBatch(lc int, addrs []ip.Addr) ([]Verdict, error) {
	return r.LookupBatchCtx(context.Background(), lc, addrs)
}

// LookupBatchInto is LookupBatchCtx writing into a caller-provided verdict
// slice (len(out) >= len(addrs)); warm, it allocates nothing when the remote
// homes it reaches are idle, and two fabric payloads per home that is busy.
// On error the contents of out are unspecified. The positional guarantee
// holds: out[i] answers addrs[i].
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
// and one exchange per remote home LC — a call when the home is idle
// (batchDirect), else one accumulated fabric request.
func (r *Router) handleBatch(lc *lineCard, m message) {
	bd := m.bd
	sc := lc.scratch
	lc.stats.Lookups.Add(int64(len(bd.addrs)))
	lc.stats.Batches.Add(1)
	now := r.now()
	// Slots this run resolves itself — cache hits, the same-home sweep, the
	// direct exchanges — are counted here and published once, at the end.
	hits, bypassed := 0, false
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
		// Remote miss. A row held for its home already has the address — its
		// W block is what the probe hit, or there is none to hit — and this
		// one joins it, as it would join that row's waitlist.
		if len(sc.ask[home]) > 0 && (probeKind == cache.HitWaiting || lc.cache == nil || bypassed) {
			if k := sc.heldIndex(home, addr); k >= 0 {
				tr.Record(tracing.EvProbe, int64(probeKind), 0)
				sc.held[home][k].dups++
				sc.dups = append(sc.dups, heldDup{tr: tr, home: int32(home), row: int32(k), slot: slot})
				continue
			}
		}
		if lc.cache != nil {
			recorded := lc.cache.Reserve(addr, cache.REM)
			bypassed = bypassed || !recorded
			if tr != nil {
				tr.Record(tracing.EvProbe, int64(probeKind), int64(cache.REM))
				if !recorded {
					tr.Record(tracing.EvBypass, 0, 0)
				}
			}
		}
		sc.reach(home)
		if r.directable(lc, home) {
			// Held, unparked, for the home's exchange after the sweep.
			sc.ask[home] = append(sc.ask[home], fabricRow{addr: addr})
			sc.held[home] = append(sc.held[home], heldRow{tr: tr, slot: slot})
			continue
		}
		r.parkRow(lc, bd, addr, home, slot, tr, now)
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
	// One exchange per remote home with misses in this batch: a call for the
	// rows an idle home answers, one fabric message for the rest.
	direct := 0
	for _, home := range sc.homes {
		if len(sc.ask[home]) > 0 {
			direct += r.batchDirect(lc, bd, home, now)
		}
		if len(sc.byHome[home]) > 0 {
			fb := slices.Clone(sc.byHome[home]) // the payload: one exact-size allocation
			lc.stats.RequestsSent.Add(1)
			lc.stats.BatchRequestsSent.Add(1)
			lc.post(home, message{kind: mBatchRequest, from: lc.id, epoch: lc.epoch, fb: fb, addr: fb[0].addr, start: now})
		}
	}
	sc.resetHomes()
	// The slot writes above precede this one RMW on the countdown, and the
	// run's own share is subtracted last, so the batch cannot complete —
	// and bd cannot be recycled — while this handler still reads it.
	lc.stats.CacheHits.Add(int64(hits))
	r.bdResolveN(bd, hits+swept+direct)
}

// parkRow sends a batch's remote miss down the message path: it parks a
// waitlist and lets routeFor decide and arm it, so the shared robustness
// machinery (checkDeadlines, re-homing, breakers, ejection) treats batch
// sub-lookups like any single lookup — only the fabric send is deferred, into
// home's accumulated request.
func (r *Router) parkRow(lc *lineCard, bd *batchDesc, addr ip.Addr, home int, slot int32, tr *tracing.LookupTrace, now int64) {
	wl := r.park(lc, addr)
	wl.tr = tr
	lc.addLocal(wl, localWaiter{bd: bd, slot: slot, start: bd.start, tr: tr})
	if r.routeFor(lc, addr, home, wl, now) {
		sc := lc.scratch
		sc.byHome[home] = append(sc.byHome[home], fabricRow{addr: addr})
	}
}

// batchDirect is direct for the rows a batch holds for home: when home passes
// askDirect, it answers every row it can (serveRows) on the caller's stack —
// one exchange, counted as the batch request and reply it stands for — and
// the arrival fills REM in the reply's row order and answers each row and its
// duplicates as replyFor, release and joinLocal would have. The rows it did
// not answer, or all of them, take the message path (parkRow), their
// duplicates joining their waitlists. It reports the slots it answered.
func (r *Router) batchDirect(lc *lineCard, bd *batchDesc, home int, now int64) (answered int) {
	sc := lc.scratch
	ask, held := sc.ask[home], sc.held[home]
	ans := sc.answers[:0]
	if h := r.askDirect(lc, home, now); h != nil {
		if ans = r.serveRows(h, ask, nil, 0, ans); len(ans) > 0 {
			h.stats.RepliesSent.Add(1)
			h.stats.BatchRepliesSent.Add(1)
			h.handledDirect.Add(1)
		}
		r.leave(h, 0)
	}
	if len(ans) > 0 {
		lc.stats.RequestsSent.Add(1)
		lc.stats.BatchRequestsSent.Add(1)
		r.replyArrived(lc, home, now)
	}
	for _, a := range ans {
		held[a.row].answered = true
		answered += r.answerHeld(lc, bd, home, int(a.row), Verdict{Addr: ask[a.row].addr, NextHop: a.nh, OK: a.ok, ServedBy: ServedByRemote})
	}
	sc.answers = ans[:0]
	if len(ans) == len(ask) {
		return answered
	}
	for k, row := range ask {
		if !held[k].answered {
			r.parkRow(lc, bd, row.addr, home, held[k].slot, held[k].tr, now)
		}
	}
	for _, d := range sc.dups {
		if int(d.home) == home && !held[d.row].answered {
			addr := ask[d.row].addr
			r.joinLocal(lc, lc.pending.get(addr), &message{kind: mLookup, addr: addr, bd: bd, slot: d.slot, start: bd.start, tr: d.tr})
		}
	}
	return answered
}

// answerHeld answers held row k of home and the duplicates that join it with
// v: the events of a reply's intake on the row's waitlist trace (the first
// traced of the row and its duplicates, as joinLocal picks it), the REM fill,
// and each lookup's latency, trace and slot. It reports the slots answered; a
// duplicate past the overload policy's waitlist cap is shed, as joinLocal
// sheds it.
func (r *Router) answerHeld(lc *lineCard, bd *batchDesc, home, k int, v Verdict) (answered int) {
	w := &lc.scratch.held[home][k]
	lc.fill(v.Addr, v.NextHop, cache.REM)
	owner := w.tr
	received := func(tr *tracing.LookupTrace) {
		tr.Record(tracing.EvFabricRecv, int64(home), 0)
		tr.Record(tracing.EvFill, int64(cache.REM), int64(ServedByRemote))
	}
	answer := func(tr *tracing.LookupTrace, slot int32) {
		r.finish(lc, ServedByRemote, bd.start, traceID(tr))
		r.finishTrace(tr, ServedByRemote, v.OK)
		bd.out[slot] = v
		answered++
	}
	if owner != nil {
		owner.Record(tracing.EvFabricSend, int64(home), 1)
		received(owner)
	}
	answer(w.tr, w.slot)
	if w.dups == 0 {
		return answered
	}
	joined := 1
	for _, d := range lc.scratch.dups {
		if int(d.home) != home || int(d.row) != k {
			continue
		}
		if r.ov.Enabled && joined >= r.ov.WaitlistCap {
			r.shedLocal(lc.id, message{kind: mLookup, addr: v.Addr, bd: bd, slot: d.slot, tr: d.tr}, shedWaitlistOverflow)
			continue
		}
		lc.stats.Coalesced.Add(1)
		d.tr.Record(tracing.EvCoalesce, int64(joined), 0)
		joined++
		if owner == nil && d.tr != nil {
			owner = d.tr
			received(owner)
		}
		answer(d.tr, d.slot)
	}
	return answered
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

// serveRows is the home LC's half of a batch exchange, the one loop both ways
// of asking share: a coalesced request (handleBatchRequest, rw its requester)
// and a direct exchange (batchDirect, rw nil). Row by row like handleRequest
// (serveRequest), every row the home has an answer for — a cache hit, or a
// fresh miss, which one FE sweep answers and fills LOC — is appended to ans,
// hits first and then the sweep's, each in row order: the reply's row order.
// The rest are not answered here: asked by message, they joined a waitlist
// or moved on (serveRequest); asked direct, they are left untouched.
func (r *Router) serveRows(lc *lineCard, rows []fabricRow, rw *remoteWaiter, start int64, ans []rowAnswer) []rowAnswer {
	sc := lc.scratch
	for i, row := range rows {
		hit, nh, fresh := r.serveRequest(lc, row.addr, rw, start)
		switch {
		case hit:
			ans = append(ans, rowAnswer{int32(i), nh, nh != rtable.NoNextHop})
		case fresh:
			sc.addrs = append(sc.addrs, row.addr)
			sc.slots = append(sc.slots, int32(i))
		}
	}
	if len(sc.addrs) > 0 {
		res, _ := r.sweepFE(lc) // batch-granular, and a batch's answer carries no FE timing
		for k, addr := range sc.addrs {
			lc.fill(addr, res[k].NextHop, cache.LOC)
			ans = append(ans, rowAnswer{sc.slots[k], res[k].NextHop, res[k].OK})
		}
		sc.addrs, sc.slots = sc.addrs[:0], sc.slots[:0]
	}
	return ans
}

// handleBatchRequest serves a coalesced request at the home LC (serveRows)
// and sends what it answered as one reply batch. Addresses already in flight
// coalesce as remote waiters and ride individual replies instead (their
// resolution happens later, outside this handler); re-homed addresses are
// forwarded as individual requests.
func (r *Router) handleBatchRequest(lc *lineCard, m message) {
	sc := lc.scratch
	rw := remoteWaiter{from: m.from, epoch: m.epoch, gen: lc.gen}
	ans := r.serveRows(lc, m.fb, &rw, m.start, sc.answers[:0])
	if len(ans) > 0 {
		rb := make([]fabricRow, len(ans)) // the payload: one exact-size allocation
		for k, a := range ans {
			rb[k] = fabricRow{m.fb[a.row].addr, a.nh, a.ok}
		}
		lc.stats.RepliesSent.Add(1)
		lc.stats.BatchRepliesSent.Add(1)
		lc.post(m.from, message{kind: mBatchReply, from: lc.id, epoch: m.epoch, gen: r.stampGen(lc, lc.gen), fb: rb, addr: rb[0].addr})
	}
	sc.answers = ans[:0]
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
