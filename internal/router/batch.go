// The miss path. Every miss past the arrival LC's probe — a LookupBatch
// call's rows, or a single Lookup's, a batch of one — goes the one way
// described here, and every fabric exchange is one mBatchRequest and one
// mBatchReply, however many rows it carries.
//
// A batch is one pooled descriptor (batchDesc): the addresses, a verdict
// per submission position and a countdown of unresolved slots, whose last
// resolver wakes the caller — or, if the caller has left (context, Stop),
// returns it to the pool. A single lookup that has to wait waits on a
// one-row descriptor.
//
// At the arrival LC (missRow) a miss coalesces onto one in flight, joins the
// run's one engine sweep if homed here, or reserves its W block and is held,
// unparked, for its remote home. Each home is then asked once: an idle one by
// call (batchDirect, serveRows answering on the caller's stack: no waitlist,
// pending entry or payload) while the fault decisions its request and reply
// draw are clean, any other by one request for the rows, which park first
// (parkRow: deadline, retry, fallback, re-home). One row rides in the
// message's own fields, more in a payload (fabricRow), so warm, a single miss
// allocates nothing, nor does a batch whose homes are idle.
package router

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"spal/internal/cache"
	"spal/internal/fabric"
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

// batchDesc is one in-flight batch, a single lookup's of one row: the
// addresses, the positional verdicts, and the synchronization that hands the
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

// getBatchDesc draws a descriptor of n slots submitted at start; a batch
// copies its addresses in (the caller may reuse its slice immediately), a
// single lookup's has none. out is sized but not cleared — every slot is
// written exactly once before it is read.
func getBatchDesc(n int, start int64) *batchDesc {
	bd := batchPool.Get().(*batchDesc)
	if cap(bd.out) < n {
		bd.out = make([]Verdict, n)
	} else {
		bd.out = bd.out[:n]
	}
	bd.state.Store(bdRunning)
	bd.pending.Store(int32(n))
	bd.start = start
	return bd
}

func putBatchDesc(bd *batchDesc) {
	// Verdicts and addresses hold no pointers, so truncating (keeping the
	// capacity, which is the point of pooling) pins nothing.
	bd.addrs = bd.addrs[:0]
	bd.out = bd.out[:0]
	batchPool.Put(bd)
}

// bdResolveN retires n slots of bd whose verdicts the caller has written;
// whoever retires the last one wakes the caller, or recycles the descriptor
// the caller abandoned. The countdown orders every slot write before the
// signal. With nothing to retire bd is not touched: it may be gone.
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

// wait blocks until every slot of bd is answered, the caller's context ends
// or the router stops; in the last two cases the descriptor is abandoned to
// whoever answers its last slot.
func (r *Router) wait(ctx context.Context, bd *batchDesc) error {
	select {
	case <-bd.done:
		return nil
	case <-ctx.Done():
		r.abandonBatch(bd)
		return ctx.Err()
	case <-r.quit:
		r.abandonBatch(bd)
		return ErrStopped
	}
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

// deliver answers local lookup w in its descriptor slot.
func (r *Router) deliver(w localWaiter, v Verdict) {
	w.bd.out[w.slot] = v
	r.bdResolveN(w.bd, 1)
}

// fabricRow is one address of a fabric request and (on replies) its
// verdict. A payload of them is one allocation, made fresh per send and never
// mutated, so an injector-duplicated message may share it: hence no pooling.
type fabricRow struct {
	addr    ip.Addr
	nextHop rtable.NextHop
	ok      bool
}

// heldRow is a remote miss a batch holds for a direct exchange with its home:
// the slot it answers, its trace, how many later rows of the batch share its
// address (heldDup), and whether the exchange is done with it (answered it, or
// parked it for the reply it posted).
type heldRow struct {
	tr   *tracing.LookupTrace
	slot int32
	dups int32
	done bool
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

// lcScratch is a line card's reusable miss workspace: the run's local-FE
// sweep (addrs/slots/trs/res), what it has for each home LC (home, by LC id;
// homes lists those reached), held rows' duplicates, and an exchange's answers.
type lcScratch struct {
	addrs   []ip.Addr
	slots   []int32
	trs     []*tracing.LookupTrace
	res     []lpm.Result
	home    []homeRows
	homes   []int
	dups    []heldDup
	answers []rowAnswer
	// bypassed: a remote miss of this run found its set fully waiting and
	// reserved no W block, so a later row's probe cannot tell that it is held.
	bypassed bool
}

// homeRows is what a run has for one home LC: the rows held for a direct
// exchange (ask, and held: who waits on each) and the fabric request
// accumulated for the message path (req, copied into its payload at send; its
// fault decision, if the exchange drew it).
type homeRows struct {
	ask, req []fabricRow
	held     []heldRow
	fault    fabric.Decision
	drawn    bool
}

func newLCScratch(numLCs int) *lcScratch {
	return &lcScratch{home: make([]homeRows, numLCs)}
}

// reach lists home among the homes this run reaches, the first time, and
// returns what the run has for it.
func (sc *lcScratch) reach(home int) *homeRows {
	hr := &sc.home[home]
	if len(hr.ask) == 0 && len(hr.req) == 0 {
		sc.homes = append(sc.homes, home)
	}
	return hr
}

// request puts addr on this run's request to home, sent by exchange.
func (sc *lcScratch) request(home int, addr ip.Addr) {
	hr := sc.reach(home)
	hr.req = append(hr.req, fabricRow{addr: addr})
}

// exchange asks every home this run reaches once: by call for the rows it
// holds (batchDirect, answering slots of bd), then one fabric message for
// what is left on its request. It reports the slots of bd answered, and
// empties the per-home lists and the duplicates.
func (r *Router) exchange(lc *lineCard, bd *batchDesc, now int64) (direct int) {
	sc := lc.scratch
	for _, home := range sc.homes {
		hr := &sc.home[home]
		if len(hr.ask) > 0 {
			direct += r.batchDirect(lc, bd, home, hr.ask, hr.held, now)
		}
		if len(hr.req) > 0 {
			m := message{kind: mBatchRequest, addr: hr.req[0].addr, from: lc.id, epoch: lc.epoch, start: now}
			if len(hr.req) > 1 {
				m.fb = slices.Clone(hr.req) // the payload: see fabricRow
			}
			lc.stats.RequestsSent.Add(1)
			s := lc.post(home, m)
			s.fault, s.drawn = hr.fault, hr.drawn
		}
		if r.tracer != nil {
			clear(hr.held)
		}
		hr.ask, hr.held, hr.req, hr.drawn = hr.ask[:0], hr.held[:0], hr.req[:0], false
	}
	sc.homes = sc.homes[:0]
	if len(sc.dups) > 0 {
		clear(sc.dups)
		sc.dups = sc.dups[:0]
	}
	return direct
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
	bd := getBatchDesc(len(addrs), r.now())
	bd.addrs = append(bd.addrs[:0], addrs...)
	if err := r.admit(ctx, lc, message{kind: mBatch, bd: bd}); err != nil {
		putBatchDesc(bd)
		return err
	}
	if err := r.wait(ctx, bd); err != nil {
		return err
	}
	copy(out, bd.out)
	putBatchDesc(bd)
	return nil
}

// handleBatch classifies a batch at its arrival LC: inline cache hits, and
// every miss as missRow takes it; settle then answers what this run can.
func (r *Router) handleBatch(lc *lineCard, m message) {
	bd := m.bd
	lc.stats.Lookups.Add(int64(len(bd.addrs)))
	lc.stats.Batches.Add(1)
	now := r.now()
	hits := 0
	lc.scratch.bypassed = false
	for i, addr := range bd.addrs {
		var tr *tracing.LookupTrace
		if r.tracer != nil {
			if tr = r.tracer.Sample(lc.id, addr); tr != nil {
				tr.Start = r.at(bd.start)
				tr.Record(tracing.EvArrival, int64(lc.id), 0)
			}
		}
		kind := cache.Miss
		if lc.cache != nil {
			res := lc.cache.Probe(addr)
			if kind = res.Kind; kind == cache.Hit || kind == cache.HitVictim {
				hits++
				ok := res.NextHop != rtable.NoNextHop
				if tr != nil {
					tr.Record(tracing.EvProbe, int64(res.Kind), int64(res.Origin))
					r.finishTrace(tr, ServedByCache, ok)
				}
				r.finish(lc, ServedByCache, bd.start, traceID(tr))
				bd.out[i] = Verdict{Addr: addr, NextHop: res.NextHop, OK: ok, ServedBy: ServedByCache}
				continue
			}
		}
		if home := r.missRow(lc, localWaiter{bd: bd, slot: int32(i), tr: tr}, addr, kind, now); home >= 0 {
			hr := lc.scratch.reach(home)
			hr.ask = append(hr.ask, fabricRow{addr: addr})
			hr.held = append(hr.held, heldRow{tr: tr, slot: int32(i)})
		}
	}
	// The slot writes precede this one RMW on the countdown, and the run's
	// own share is subtracted last, so the batch cannot complete — and bd
	// cannot be recycled — while this handler still reads it.
	lc.stats.CacheHits.Add(int64(hits))
	r.bdResolveN(bd, hits+r.settle(lc, bd, now))
}

// missRow takes slot slot of bd, a miss for addr (probe kind: cache.Miss
// without a cache), the way every miss past the probe goes — a batch's rows
// and a single lookup, a batch of one. It coalesces onto a miss in flight
// (the probe hit its W block, or the set was fully waiting and there is none
// to hit), is collected for the run's FE sweep when this LC is its home — no
// park, no W block, so nothing can coalesce into it — or, homed elsewhere,
// reserves its W block and is held, unparked, for its home's direct exchange
// (a later row of a batch with the same address joins it) or parked and
// requested. It reports the home to hold the row for, -1 when it took the row
// itself: the caller holds it — a batch in its scratch, a single lookup on
// its stack.
func (r *Router) missRow(lc *lineCard, w localWaiter, addr ip.Addr, kind cache.ProbeKind, now int64) int {
	sc, tr := lc.scratch, w.tr
	if wl := lc.pending.get(addr); wl != nil {
		tr.Record(tracing.EvProbe, int64(kind), 0)
		r.joinLocal(lc, wl, addr, w)
		return -1
	}
	home := lc.homeOf(addr)
	if home == lc.id {
		if tr != nil && lc.cache != nil {
			tr.Record(tracing.EvProbe, int64(kind), int64(cache.LOC))
		}
		sc.addrs = append(sc.addrs, addr)
		sc.slots = append(sc.slots, w.slot)
		sc.trs = append(sc.trs, tr)
		return -1
	}
	if hr := &sc.home[home]; len(sc.homes) > 0 && len(hr.ask) > 0 && (kind == cache.HitWaiting || lc.cache == nil || sc.bypassed) {
		if k := slices.IndexFunc(hr.ask, func(row fabricRow) bool { return row.addr == addr }); k >= 0 {
			tr.Record(tracing.EvProbe, int64(kind), 0)
			hr.held[k].dups++
			sc.dups = append(sc.dups, heldDup{tr: tr, home: int32(home), row: int32(k), slot: w.slot})
			return -1
		}
	}
	if lc.cache != nil {
		recorded := lc.cache.Reserve(addr, cache.REM)
		sc.bypassed = sc.bypassed || !recorded
		if tr != nil {
			tr.Record(tracing.EvProbe, int64(kind), int64(cache.REM))
			if !recorded {
				tr.Record(tracing.EvBypass, 0, 0)
			}
		}
	}
	// Nothing a direct exchange cannot get past may stand between lc and home:
	// an ejected home, a breaker not closed (routeFor's calls). Both hold for
	// as long as lc's owner does, short of a concurrent ejection.
	if !r.ejected(home) && (!r.overload || lc.ov.breakers[home].state.Load() == breakerClosed) {
		return home
	}
	r.parkRow(lc, w, addr, home, now, false)
	return -1
}

// settle ends a run's misses: one engine sweep answers every same-home one,
// each remote home is asked once — by call for the rows an idle home answers
// (batchDirect), one fabric message for the rest — and it reports the slots
// of bd it answered, for the caller to retire.
func (r *Router) settle(lc *lineCard, bd *batchDesc, now int64) int {
	sc := lc.scratch
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
		if r.tracer != nil { // the scratch pins no trace between runs
			clear(sc.trs)
		}
		sc.addrs, sc.slots, sc.trs = sc.addrs[:0], sc.slots[:0], sc.trs[:0]
	}
	if len(sc.homes) > 0 {
		swept += r.exchange(lc, bd, now)
	}
	return swept
}

// parkRow sends a remote miss down the message path: it parks a waitlist
// and lets routeFor decide and arm it, so the shared robustness machinery
// (checkDeadlines, re-homing, breakers, ejection) treats every miss alike —
// only the fabric send is deferred, into the run's request to home — unless
// sent, the row's request having gone (batchDirect).
func (r *Router) parkRow(lc *lineCard, w localWaiter, addr ip.Addr, home int, now int64, sent bool) {
	wl := r.park(lc, addr)
	wl.tr = w.tr
	lc.addLocal(wl, w)
	if r.routeFor(lc, addr, home, wl, now) && !sent {
		lc.scratch.request(home, addr)
	}
}

// batchDirect is the direct exchange for the rows lc holds for home: when home
// is idle (enter), not behind lc and has no tick due (a tick posts retries),
// lc's owner becomes its owner too and asks it by call (serveRows, on the
// caller's stack) — one exchange, counted and fault-decided as the request
// and reply it stands for. Both clean, the arrival fills REM in the reply's
// row order and answers each row and its duplicates as handleBatchReply and
// joinLocal would have. A goroutine holding both LCs' locks sends nothing and
// parks nobody, so the rest then takes the message path (parkRow), duplicates
// joining their rows' waitlists: a reply not clean is posted under its
// decision, the rows it answers parked as if their request had gone; the rows
// home did not answer — all, under the request's decision if drawn — go on a
// request. It reports the slots it answered.
func (r *Router) batchDirect(lc *lineCard, bd *batchDesc, home int, ask []fabricRow, held []heldRow, now int64) (answered int) {
	sc := lc.scratch
	ans, feNS := sc.answers[:0], int64(0)
	var fault fabric.Decision // the request's until home has answered a row, then the reply's
	drawn, posted := false, false
	if h := r.enter(home); h != nil {
		h.depth = lc.depth + 1 // for what leave may find queued at h meanwhile: this run nests on lc's
		if h.gen >= lc.gen && now-h.lastTick.Load() < int64(r.tickEvery) {
			if fault, drawn = r.fault(false, lc.id, home, ask[0].addr), true; fault == (fabric.Decision{}) {
				if ans, feNS = r.serveRows(h, ask, nil, 0, ans); len(ans) > 0 {
					lc.stats.RequestsSent.Add(1)
					h.stats.RepliesSent.Add(1)
					if fault = r.fault(true, home, lc.id, ask[ans[0].row].addr); fault == (fabric.Decision{}) {
						h.handledDirect.Add(1)
					} else { // the request ran on the sender's goroutine; its reply is a message
						h.handledInline.Add(1)
						m := replyOf(ask, ans, feNS)
						m.kind, m.from, m.epoch, m.start, m.gen = mBatchReply, home, lc.epoch, now, h.gen
						s := lc.post(lc.id, m)
						s.fault, s.drawn, posted = fault, true, true
					}
				}
			}
		}
		r.leave(h, 0)
	}
	if len(ans) > 0 && !posted {
		r.replyArrived(lc, home, now)
	}
	if len(ans) != 1 {
		feNS = 0 // as a reply, an answer of one row only carries its FE time
	}
	for _, a := range ans {
		w := &held[a.row]
		w.done = true
		if posted {
			r.parkRow(lc, localWaiter{bd: bd, slot: w.slot, tr: w.tr}, ask[a.row].addr, home, now, true)
			continue
		}
		v := Verdict{Addr: ask[a.row].addr, NextHop: a.nh, OK: a.ok, ServedBy: ServedByRemote}
		lc.fill(v.Addr, v.NextHop, cache.REM)
		r.finish(lc, ServedByRemote, bd.start, traceID(w.tr))
		if w.tr != nil { // the events of a reply's intake, in handleBatchReply's order
			w.tr.Record(tracing.EvFabricSend, int64(home), 1)
			received(w.tr, home, feNS)
			r.finishTrace(w.tr, ServedByRemote, v.OK)
		}
		bd.out[w.slot] = v
		answered++
		if w.dups > 0 {
			answered += r.answerDups(lc, bd, home, a.row, w.tr, v, feNS)
		}
	}
	sc.answers = ans[:0]
	if len(ans) == len(ask) && !posted {
		return answered
	}
	for k, row := range ask {
		if !held[k].done {
			r.parkRow(lc, localWaiter{bd: bd, slot: held[k].slot, tr: held[k].tr}, row.addr, home, now, false)
		}
	}
	if hr := &sc.home[home]; drawn && len(ans) == 0 && len(hr.req) > 0 {
		hr.fault, hr.drawn = fault, true
	}
	for _, d := range sc.dups {
		if int(d.home) == home && (posted || !held[d.row].done) {
			addr, w := ask[d.row].addr, localWaiter{bd: bd, slot: d.slot, tr: d.tr}
			if wl := lc.pending.get(addr); wl != nil {
				r.joinLocal(lc, wl, addr, w)
			} else { // its row was answered at dispatch: the home was ejected meanwhile
				r.parkRow(lc, w, addr, home, now, false)
			}
		}
	}
	return answered
}

// answerDups answers the duplicates of held row row of home with v, as
// joinLocal and a reply would have: each is coalesced onto the row, and the
// first traced one owns the reply's intake events if the row itself is not
// traced (owner). A duplicate past the overload plane's waitlist cap is shed,
// as joinLocal sheds it. It reports the slots answered.
func (r *Router) answerDups(lc *lineCard, bd *batchDesc, home int, row int32, owner *tracing.LookupTrace, v Verdict, feNS int64) (answered int) {
	for _, d := range lc.scratch.dups {
		if int(d.home) != home || d.row != row {
			continue
		}
		if r.overload && answered+1 >= waitlistCap {
			r.shedLocal(lc.id, v.Addr, localWaiter{bd: bd, slot: d.slot, tr: d.tr})
			continue
		}
		lc.stats.Coalesced.Add(1)
		answered++
		if d.tr != nil {
			d.tr.Record(tracing.EvCoalesce, int64(answered), 0)
			if owner == nil {
				owner = d.tr
				received(owner, home, feNS)
			}
			r.finishTrace(d.tr, ServedByRemote, v.OK)
		}
		r.finish(lc, ServedByRemote, bd.start, traceID(d.tr))
		bd.out[d.slot] = v
	}
	return answered
}

// received records a reply's intake from home on tr.
func received(tr *tracing.LookupTrace, home int, feNS int64) {
	tr.Record(tracing.EvFabricRecv, int64(home), 0)
	if feNS > 0 {
		tr.Record(tracing.EvFEExec, feNS, int64(home))
	}
	tr.Record(tracing.EvFill, int64(cache.REM), int64(ServedByRemote))
}

// sweepFE runs this LC's engine over the addresses collected in its
// scratch in one batched call (BatchEngine engines run it
// level-synchronously; others fall back per key), misses normalised to
// NoNextHop. feNS is the whole sweep's time, measured only while tracing.
func (r *Router) sweepFE(lc *lineCard) (res []lpm.Result, feNS int64) {
	sc := lc.scratch
	n := len(sc.addrs)
	if cap(sc.res) < n {
		sc.res = make([]lpm.Result, n)
	}
	res = sc.res[:n]
	if n == 1 { // without a batch engine's set-up
		res[0].NextHop, res[0].OK, feNS = r.walk(lc, sc.addrs[0])
		return res, feNS
	}
	lc.stats.FEExecs.Add(int64(n))
	t0 := r.feTimer()
	lpm.LookupAll(lc.engine, sc.addrs, res)
	for k := range res {
		if !res[k].OK {
			res[k].NextHop = rtable.NoNextHop
		}
	}
	return res, r.elapsedNS(t0)
}

// walk is one FE execution, for a lone address: a miss normalised to
// NoNextHop, feNS measured only while tracing.
func (r *Router) walk(lc *lineCard, addr ip.Addr) (nh rtable.NextHop, ok bool, feNS int64) {
	t0 := r.feTimer()
	lc.stats.FEExecs.Add(1)
	if nh, _, ok = lc.engine.Lookup(addr); !ok {
		nh = rtable.NoNextHop
	}
	return nh, ok, r.elapsedNS(t0)
}

// serveRows is the home LC's half of every exchange, the one loop both ways
// of asking share: a request (handleBatchRequest, rw its requester) and a
// direct exchange (batchDirect, rw nil). Every row the home has an answer for
// — a cache hit, or a fresh miss, which one FE sweep answers and fills LOC,
// nothing parked — is appended to ans, hits first and then the sweep's, each
// in row order: the reply's row order. feNS is the sweep's time, measured
// only while tracing. Asked by message, a row in flight here joins its
// waitlist and one this LC no longer homes moves on (forward). Asked direct —
// a goroutine holding two LC locks sends nothing and parks nobody — such a row
// is left untouched, not even probed, for the message path.
func (r *Router) serveRows(lc *lineCard, rows []fabricRow, rw *remoteWaiter, start int64, ans []rowAnswer) (_ []rowAnswer, feNS int64) {
	sc := lc.scratch
	for i, row := range rows {
		if home := lc.homeOf(row.addr); home != lc.id {
			if rw != nil {
				r.forward(lc, row.addr, home, *rw, start)
			}
			continue
		}
		// In flight here from before a swap made this LC its home: never
		// dispatch twice for one address.
		wl := lc.pending.get(row.addr)
		if wl != nil && rw == nil {
			continue
		}
		if lc.cache != nil {
			if res := lc.cache.Probe(row.addr); res.Kind == cache.Hit || res.Kind == cache.HitVictim {
				ans = append(ans, rowAnswer{int32(i), res.NextHop, res.NextHop != rtable.NoNextHop})
				continue
			}
		}
		if wl != nil {
			r.joinRemote(lc, wl, *rw)
		} else if len(rows) == 1 { // a single lookup's: walked where it stands, no sweep to gather it for
			nh, ok, feNS := r.walk(lc, row.addr)
			lc.fill(row.addr, nh, cache.LOC)
			return append(ans, rowAnswer{0, nh, ok}), feNS
		} else {
			sc.addrs = append(sc.addrs, row.addr)
			sc.slots = append(sc.slots, int32(i))
		}
	}
	if len(sc.addrs) > 0 {
		var res []lpm.Result
		res, feNS = r.sweepFE(lc)
		for k, addr := range sc.addrs {
			lc.fill(addr, res[k].NextHop, cache.LOC)
			ans = append(ans, rowAnswer{sc.slots[k], res[k].NextHop, res[k].OK})
		}
		sc.addrs, sc.slots = sc.addrs[:0], sc.slots[:0]
	}
	return ans, feNS
}

// handleBatchRequest serves a request at the home LC (serveRows) and sends
// what it answered as one reply, which carries the request's send stamp back
// and the FE time of an answer of one row. Addresses already in flight
// coalesce as remote waiters and ride replies of their own instead (their
// resolution happens later, outside this handler); re-homed addresses are
// forwarded as requests of their own.
func (r *Router) handleBatchRequest(lc *lineCard, m message) {
	sc := lc.scratch
	var one [1]fabricRow
	rows := m.rows(&one)
	rw := remoteWaiter{from: m.from, epoch: m.epoch, hops: m.hops, gen: lc.gen}
	ans, feNS := r.serveRows(lc, rows, &rw, m.start, sc.answers[:0])
	if len(ans) > 0 {
		reply := replyOf(rows, ans, feNS)
		reply.kind, reply.from, reply.epoch, reply.hops, reply.start, reply.gen = mBatchReply, lc.id, m.epoch, m.hops, m.start, lc.gen
		lc.stats.RepliesSent.Add(1)
		lc.post(m.from, reply)
	}
	sc.answers = ans[:0]
}

// replyOf is the reply's body for answers ans to rows: the one row in its own
// fields, with home's FE time feNS, or a payload. The header is the caller's.
func replyOf(rows []fabricRow, ans []rowAnswer, feNS int64) message {
	if len(ans) == 1 {
		return message{addr: rows[ans[0].row].addr, nextHop: ans[0].nh, ok: ans[0].ok, feNS: feNS}
	}
	rb := make([]fabricRow, len(ans)) // the payload: one exact-size allocation
	for k, a := range ans {
		rb[k] = fabricRow{rows[a.row].addr, a.nh, a.ok}
	}
	return message{addr: rb[0].addr, fb: rb}
}

// handleBatchReply scatters a reply back into the requester's waitlists. The
// reply is one message on the wire: the epoch guard, the round-trip sample
// and the breaker/budget credit are taken once, and every address carries
// the one generation the home computed the reply against.
func (r *Router) handleBatchReply(lc *lineCard, m message) {
	var one [1]fabricRow
	rows := m.rows(&one)
	if m.epoch != lc.epoch {
		// A reply computed before a table swap must not poison the freshly
		// flushed cache; the swap already re-drove the lookups it was
		// answering.
		lc.stats.StaleReplies.Add(int64(len(rows)))
		return
	}
	r.replyArrived(lc, m.from, m.start)
	for _, row := range rows { // each answers whatever is parked on its address here, if anything
		if r.tracer != nil {
			if wl := lc.pending.get(row.addr); wl != nil && wl.tr != nil {
				wl.tr.Record(tracing.EvFabricRecv, int64(m.from), int64(m.hops))
				if m.feNS > 0 {
					wl.tr.Record(tracing.EvFEExec, m.feNS, int64(m.from))
				}
			}
		}
		if m.gen < lc.gen {
			// The responder computed this value before applying an update batch
			// we have already applied (and invalidated for): the parked lookups
			// may still observe it — they were in flight during the update
			// window — but it must not survive as a cache entry.
			r.fillStaleRelease(lc, row.addr, row.nextHop, row.ok, m.gen)
			continue
		}
		r.fillAndRelease(lc, row.addr, row.nextHop, row.ok, cache.REM, ServedByRemote)
	}
}
