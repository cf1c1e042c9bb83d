package sim

import (
	"fmt"
	"math"
	"math/bits"

	"spal/internal/cache"
	"spal/internal/fabric"
	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/partition"
	"spal/internal/rtable"
	"spal/internal/stats"
	"spal/internal/trace"
)

// packet tracks one packet header through the router. Its record lives in
// Router.packets only while something names it: refs counts the queue slots
// (localQ, inputQ, feQ), the FE job, the fabric messages and the LR-cache
// waiting-list entries that hold its id. A bypassed reservation leaves a
// second request, reply or FE job in flight for a packet that has already
// completed, and that straggler still reads the record and stamps it, so
// the record outlives completion by exactly as long as it is named. Its
// home LC is not stored: a miss computes it (see homeOf), and churn never
// moves it. Its stage stamps, when kept, are in Router.stages under the
// same id.
type packet struct {
	addr          ip.Addr
	arrivalLC     int32
	arrivalCycle  int64
	completeCycle int64 // -1 while pending
	// valueVersion is the table version the packet's next hop was
	// computed against (stamped when its FE lookup starts). Under route
	// churn it drives the stale-fill guard and exact verification; it
	// stays 0 when churn is off.
	valueVersion int32
	refs         int32
}

// msg is one simulated fabric message: the name of a packet, not a copy of
// it. It holds a ref, so the packet's record, the address included, stays
// put while the message is in flight. A reply carries its next hop: a
// bypassed reservation can leave two replies in flight for one packet.
type msg struct {
	id    int64
	dst   int32
	nh    rtable.NextHop // valid for a reply
	reply bool
}

// feJob is a lookup in flight at a forwarding engine.
type feJob struct {
	packetID int64
	addr     ip.Addr
	nextHop  rtable.NextHop
	ok       bool
	startAt  int64
	doneAt   int64
}

// lineCard is the per-LC state of Fig. 2.
type lineCard struct {
	id     int
	cache  *cache.Cache // nil when caches are disabled
	engine lpm.Engine
	src    *trace.Synthetic
	rng    *stats.RNG
	// dsts is the next destinations, filled from src a chunk at a time
	// into buf: one Fill call per 64 arrivals, not one each.
	dsts []ip.Addr
	buf  [64]ip.Addr

	nextArrival int64
	toGenerate  int

	localQ fifo[int64] // freshly arrived local packets
	inputQ fifo[int64] // remote requests received over the fabric
	// replyQ, outQ and deliQ hold msgs: a packet id, its destination LC and,
	// for a reply, the next hop.
	replyQ fifo[msg] // replies received over the fabric
	outQ   fifo[msg] // requests and replies awaiting fabric injection
	deliQ  fifo[msg] // fabric arrivals awaiting the output port
	// (used only under FabricContention)

	feQ      fifo[int64]
	feActive feJob
	feBusy   bool
	feBusyCy int64 // cycles the FE spent busy (utilization)

	loadFactor float64 // ingress rate multiplier (1.0 = nominal)

	// Queue-occupancy accounting, sampled in each cycle the LC steps. A
	// cycle it skips would sample two empty queues, so the sums divided by
	// the run's cycles are the per-cycle means all the same.
	maxFEQ, sumFEQ       int64
	maxInputQ, sumInputQ int64

	n [numCounters]int64
}

// Per-LC event counters: indices into lineCard.n.
const (
	cGenerated = iota
	cCompleted
	cHitLoc
	cHitRem
	cHitRemoteRequest
	cMissLocal
	cMissRemoteRequest
	cParked
	cRequestSent
	cRequestReceived
	cReplySent
	cReplyReceived
	cFabricSent
	cFELookups
	numCounters
)

// drawGap samples one inter-arrival gap, scaled by the LC's load factor.
// It draws what stats.(*RNG).Range(GapMin, GapMax) would, the modulo by the
// span taken as multiplies (gapMod). At the nominal load the gap is that
// integer, at least GapMin ≥ 1; any other load factor scales it in float64.
func (l *lineCard) drawGap(gmin int, span *gapMod) int64 {
	g := int64(gmin) + int64(span.mod(l.rng.Uint64()))
	if l.loadFactor == 1.0 {
		return g
	}
	f := float64(g) / l.loadFactor
	if f < 1 {
		f = 1
	}
	return int64(f)
}

// sampleQueues records the queue depths of a cycle the LC steps in, for
// the occupancy report.
func (l *lineCard) sampleQueues() {
	fq, iq := int64(l.feQ.len()), int64(l.inputQ.len())
	if fq > l.maxFEQ {
		l.maxFEQ = fq
	}
	if iq > l.maxInputQ {
		l.maxInputQ = iq
	}
	l.sumFEQ += fq
	l.sumInputQ += iq
}

// Router is one simulation instance. Build with New, run with Run.
type Router struct {
	cfg  Config
	part *partition.Partitioning
	lcs  []*lineCard
	pipe *fabric.Pipe[msg]
	pool *trace.Pool
	// gaps takes x mod GapMax−GapMin+1, the number of gaps an arrival
	// draws from.
	gaps gapMod
	// refs is the table-version history for VerifyNextHops: refs[v] is
	// the reference oracle of version v. Without churn it holds one
	// entry; nil when verification is off.
	refs []*lpm.Reference

	// Route churn (UpdatesPerSecond > 0): the pre-generated update
	// stream, the cursor into it, the evolving table, and the current
	// version number (incremented per applied batch even when
	// verification is off, to drive the stale-fill guard).
	updates    []rtable.Update
	nextUpdate int
	curTable   *rtable.Table
	version    int32

	churnEvents, churnRangeInv, churnStaleFills int64

	// packets is a slab of the records in flight (see packet): free lists
	// its unnamed slots, and a completed packet that loses its last name is
	// folded into the stage sums below and its slot reused, so a run holds
	// its in-flight population, not its length.
	packets []packet
	free    []int64
	// stages[id] is packet id's stage stamps, a slab beside packets that
	// is kept only under StageAccounting (nil otherwise).
	stages                []stageStamp
	stageSum, stagePacket [len(stageDefs)]int64
	// cal files each LC under the next cycle at which it has anything to
	// do: step pops the LCs due in its cycle, and Run jumps to the next
	// cycle in which anything is.
	cal calendar
	// ports is the set of LCs whose deliQ holds an arrival, 64 to a word
	// (FabricContention only).
	ports     []uint64
	completed int64
	lat       *stats.Hist
	now       int64

	// Windowed time series (SampleWindowCycles > 0).
	winSum, winN int64
	samples      []WindowSample
}

// WindowSample is one point of the latency time series.
type WindowSample struct {
	EndCycle  int64
	Completed int64
	MeanCy    float64
}

// alloc stores a packet arriving at LC arrivalLC at cycle now, named once
// by the queue slot it is about to enter, and returns its id. The fields
// are written into the slot one by one: a record literal is built on the
// stack with narrow stores and copied with wide loads, which stall on them.
func (r *Router) alloc(a ip.Addr, arrivalLC int, now int64) int64 {
	id := int64(len(r.packets))
	if n := len(r.free); n > 0 {
		id = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		r.packets = append(r.packets, packet{})
	}
	p := &r.packets[id]
	p.addr, p.arrivalLC, p.arrivalCycle = a, int32(arrivalLC), now
	p.completeCycle, p.valueVersion, p.refs = -1, 0, 1
	if r.cfg.StageAccounting {
		if id < int64(len(r.stages)) {
			r.stages[id] = unstamped
		} else {
			r.stages = append(r.stages, unstamped)
		}
	}
	return id
}

// pkt is the one way to a packet's record. An id whose slot is free means
// some site holds a name it never counted: fail the run rather than read
// another packet's fields into a figure.
func (r *Router) pkt(id int64) *packet {
	p := &r.packets[id]
	if p.refs == 0 {
		panic("sim: packet record used after release")
	}
	return p
}

// drop gives up one name of packet id; the last one folds the packet into
// the run's sums and frees its slot. Only a completed packet may lose its
// last name: anything else would never complete.
func (r *Router) drop(id int64) {
	p := r.pkt(id)
	if p.refs--; p.refs > 0 {
		return
	}
	if p.completeCycle < 0 {
		panic("sim: packet lost before completion")
	}
	r.fold(id)
	r.free = append(r.free, id)
}

// fold adds completed packet id to the sums stageBreakdown reports from.
func (r *Router) fold(id int64) {
	if !r.cfg.StageAccounting {
		return
	}
	p, s := &r.packets[id], &r.stages[id]
	for j, d := range stageDefs {
		from, to := d.from(p, s), d.to(p, s)
		if from < 0 || to < 0 {
			continue
		}
		r.stagePacket[j]++
		r.stageSum[j] += to - from
	}
}

// rollWindow closes the current sampling window if the cycle counter has
// crossed its boundary.
func (r *Router) rollWindow() {
	w := r.cfg.SampleWindowCycles
	if w <= 0 || r.now == 0 || r.now%w != 0 {
		return
	}
	s := WindowSample{EndCycle: r.now, Completed: r.winN}
	if r.winN > 0 {
		s.MeanCy = float64(r.winSum) / float64(r.winN)
	}
	r.samples = append(r.samples, s)
	r.winSum, r.winN = 0, 0
}

// New builds a router per cfg (partitioning the table, constructing
// engines, caches and trace streams).
func New(cfg Config) (*Router, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:  cfg,
		pipe: fabric.NewPipeOf[msg](cfg.FabricLatency),
		gaps: newGapMod(uint64(cfg.GapMax - cfg.GapMin + 1)),
		lat:  stats.NewHist(4096),
	}
	if cfg.PartitionEnabled {
		r.part = partition.Partition(cfg.Table, cfg.NumLCs)
	}
	if cfg.VerifyNextHops {
		r.refs = []*lpm.Reference{lpm.NewReference(cfg.Table)}
	}
	r.curTable = cfg.Table
	if cfg.UpdatesPerSecond > 0 {
		// The stream covers the packet-generation horizon; updates that
		// would land after the last arrival change nothing observable.
		horizon := int64(cfg.PacketsPerLC) * int64(cfg.GapMax)
		r.updates = rtable.GenerateUpdates(cfg.Table, rtable.UpdateStreamConfig{
			RatePerSecond: cfg.UpdatesPerSecond,
			CycleNS:       CycleNS,
			Duration:      horizon,
			WithdrawProb:  updateWithdrawProb,
			NewPrefixProb: updateNewPrefixProb,
			Seed:          cfg.Seed ^ 0xc1124,
		})
	}
	r.pool = trace.NewPool(cfg.Table, cfg.TraceConfig)
	root := stats.NewRNG(cfg.Seed ^ 0x5e3d)
	r.cal = newCalendar(cfg.NumLCs)
	if cfg.FabricContention {
		r.ports = make([]uint64, r.cal.words())
	}
	var tables []*rtable.Table // the LCs' route lists, for their engines' builds only
	if r.part != nil {
		tables = r.part.Tables()
	}
	for i := 0; i < cfg.NumLCs; i++ {
		tbl := cfg.Table
		if tables != nil {
			tbl = tables[i]
		}
		l := &lineCard{
			id:         i,
			engine:     cfg.Engine(tbl),
			src:        trace.NewSynthetic(r.pool, cfg.TraceConfig, uint64(i)),
			rng:        root.Fork(uint64(i)),
			toGenerate: cfg.PacketsPerLC,
		}
		if cfg.CacheEnabled {
			cc := cfg.Cache
			cc.Seed = cfg.Seed + uint64(i)*977
			if l.cache, err = cache.NewErr(cc); err != nil {
				return nil, fmt.Errorf("sim: %w", err)
			}
		}
		l.loadFactor = 1.0
		if cfg.LoadFactors != nil {
			l.loadFactor = cfg.LoadFactors[i]
		}
		l.nextArrival = l.drawGap(cfg.GapMin, &r.gaps)
		r.lcs = append(r.lcs, l)
	}
	return r, nil
}

// homeOf returns the home LC of an address under the run's mode. It is
// asked at each miss, not stored: ApplyUpdates keeps the control bits and
// the pattern→LC map, so a packet's home is the same at every ask.
func (r *Router) homeOf(a ip.Addr, arrival int) int {
	if r.part == nil {
		return arrival // no partitioning: every lookup is local
	}
	return r.part.HomeLC(a)
}

// Run executes the simulation to completion and returns the results. A
// cycle in which nothing is due changes nothing but the window series, so
// Run goes from a stepped cycle straight to the next cycle with an event
// or a window edge. With no event left before the cycle limit, the limit
// is hit at once: the skipped cycles would complete nothing.
func (r *Router) Run() (*Result, error) {
	total := int64(r.cfg.NumLCs * r.cfg.PacketsPerLC)
	limit := r.cfg.maxCycles()
	for r.completed < total {
		if r.now > limit {
			return nil, fmt.Errorf("sim: exceeded %d cycles with %d/%d packets done",
				limit, r.completed, total)
		}
		r.step()
		r.now++
		r.rollWindow()
		if r.completed < total && !r.cal.filedAt(r.now) {
			r.skipIdle(limit)
		}
	}
	return r.result(), nil
}

// skipIdle moves now on to the next cycle with an event, or to the window
// edge before it, or past limit when no event comes by then.
func (r *Router) skipIdle(limit int64) {
	next := r.nextEvent()
	if next > limit {
		r.now = limit + 1
		return
	}
	if w := r.cfg.SampleWindowCycles; w > 0 {
		next = min(next, (r.now/w+1)*w)
	}
	if next > r.now {
		r.now = next
		r.rollWindow()
	}
}

// nextEvent is the first cycle from now on in which step has anything to
// do: an LC due, a fabric arrival, a flush, a route update, or a port's
// next admission while a deliQ holds arrivals.
func (r *Router) nextEvent() int64 {
	now := r.now
	for _, w := range r.ports {
		if w != 0 {
			return now
		}
	}
	next := int64(math.MaxInt64)
	if t, ok := r.pipe.NextArrival(); ok {
		next = max(t, now)
	}
	if f := r.cfg.FlushEveryCycles; f > 0 {
		next = min(next, (now+f-1)/f*f)
	}
	if r.nextUpdate < len(r.updates) {
		next = min(next, max(r.updates[r.nextUpdate].AtCycle, now))
	}
	return r.cal.next(now, next)
}

// route lands a fabric delivery in its destination queue and wakes the
// destination.
func (r *Router) route(m msg) {
	dst := r.lcs[m.dst]
	if m.reply {
		dst.replyQ.push(m)
	} else {
		dst.inputQ.push(m.id)
	}
	r.cal.setWake(int(m.dst), r.now)
}

// step advances one cycle for the whole router.
func (r *Router) step() {
	now := r.now
	r.cal.advance(now)

	// 1. Fabric deliveries land in the destination queues. Under
	// FabricContention each LC's output port admits one message per
	// cycle, in LC order over the ports holding arrivals; otherwise
	// arrivals demux immediately.
	if r.cfg.FabricContention {
		for m, ok := r.pipe.Next(now); ok; m, ok = r.pipe.Next(now) {
			r.lcs[m.dst].deliQ.push(m)
			r.ports[m.dst>>6] |= 1 << (m.dst & 63)
		}
		for w, port := range r.ports {
			for ; port != 0; port &= port - 1 {
				l := r.lcs[w<<6+bits.TrailingZeros64(port)]
				m, _ := l.deliQ.pop()
				r.route(m)
				if l.deliQ.len() == 0 {
					r.ports[w] &^= 1 << (l.id & 63)
				}
			}
		}
	} else {
		for m, ok := r.pipe.Next(now); ok; m, ok = r.pipe.Next(now) {
			r.route(m)
		}
	}

	// 2. Periodic cache flush (route-update model).
	if r.cfg.FlushEveryCycles > 0 && now > 0 && now%r.cfg.FlushEveryCycles == 0 {
		r.invalidate(allAddrs)
	}

	// 2b. Route churn: apply every update event due this cycle.
	if r.nextUpdate < len(r.updates) {
		r.applyChurn(now)
	}

	// A line card with empty queues, no arrival due and no FE job ending
	// would generate nothing, finish nothing and sample zero depths: only
	// the LCs due now are stepped, in LC order. At 40 Gbps a packet
	// arrives at an LC one cycle in ten.
	for w := range r.cal.words() {
		for due := r.cal.take(w); due != 0; due &= due - 1 {
			r.stepLC(r.lcs[w<<6+bits.TrailingZeros64(due)], now)
		}
	}
}

// stepLC advances line card l through cycle now.
func (r *Router) stepLC(l *lineCard, now int64) {
	// 3. Packet arrivals.
	for l.toGenerate > 0 && l.nextArrival <= now {
		if len(l.dsts) == 0 {
			l.dsts = l.buf[:min(len(l.buf), l.toGenerate)]
			l.src.Fill(l.dsts)
		}
		a := l.dsts[0]
		l.dsts = l.dsts[1:]
		l.localQ.push(r.alloc(a, l.id, now))
		l.n[cGenerated]++
		l.toGenerate--
		l.nextArrival = now + l.drawGap(r.cfg.GapMin, &r.gaps)
	}

	// 4. Forwarding engine: finish, then possibly start the next job.
	if l.feBusy && now >= l.feActive.doneAt {
		r.finishFE(l)
	}
	if !l.feBusy {
		if id, ok := l.feQ.pop(); ok {
			r.startFE(l, id)
		}
	}

	// 5. The single cache port: replies first, then remote requests,
	// then fresh local packets.
	r.cachePortAction(l)

	// 6. Occupancy sampling for the queue report.
	l.sampleQueues()

	// 7. Fabric injection: one message per LC per cycle, sent from the
	// LC's own step — the pipe is read only at the top of a step and
	// sends stay in LC order.
	if m, ok := l.outQ.pop(); ok {
		r.pipe.Send(now, m)
		l.n[cFabricSent]++
	}

	// 8. The next cycle at which the LC must be stepped: the coming one
	// while any queue holds work, else its next arrival or the end of its
	// FE job, whichever is first. route brings it forward when it pushes
	// into the LC. (Written out in place: as a method it is over
	// the inliner's budget, and a call each step.)
	next := now + 1
	if l.replyQ.len()+l.inputQ.len()+l.localQ.len()+l.feQ.len()+l.outQ.len() == 0 {
		next = math.MaxInt64
		if l.toGenerate > 0 {
			next = l.nextArrival
		}
		if l.feBusy {
			next = min(next, l.feActive.doneAt)
		}
	}
	r.cal.file(l.id, next)
}

// startFE begins a lookup: the result and its cost are computed up front,
// the completion is scheduled LookupCycles (or the dynamic cost) later. The
// job takes over the name the FE queue slot held.
func (r *Router) startFE(l *lineCard, id int64) {
	p := r.pkt(id)
	nh, accesses, ok := l.engine.Lookup(p.addr)
	cycles := int64(r.cfg.LookupCycles)
	if r.cfg.DynamicLookup {
		cycles = int64(math.Ceil((float64(accesses)*memAccessNS + execNS) / CycleNS))
		if cycles < 1 {
			cycles = 1
		}
	}
	r.stamp(id, stFEStart)
	p.valueVersion = r.version // the value is bound to the table as of now
	l.feActive = feJob{packetID: id, addr: p.addr, nextHop: nh, ok: ok, startAt: r.now, doneAt: r.now + cycles}
	if !ok {
		l.feActive.nextHop = rtable.NoNextHop
	}
	l.feBusy = true
	l.n[cFELookups]++
}

// finishFE completes the active lookup: fill the LR-cache as LOC, then
// resolve the originator and every parked packet. Under churn a value
// computed against an older table version is still delivered (in-window
// semantics) but immediately point-invalidated so it never serves a later
// probe — the simulator analogue of the router's stale-generation guard.
func (r *Router) finishFE(l *lineCard) {
	job := l.feActive
	l.feBusy = false
	// The FE was busy every cycle after the one that started the job.
	l.feBusyCy += r.now - job.startAt
	v := r.pkt(job.packetID).valueVersion
	r.stamp(job.packetID, stFEDone)
	nh := job.nextHop
	var waiters []int64
	if l.cache != nil {
		waiters = l.cache.Fill(job.addr, nh, cache.LOC)
		if v < r.version {
			l.cache.InvalidateRange(job.addr, job.addr)
			r.churnStaleFills++
		}
	}
	r.resolveAll(l, job.packetID, waiters, nh, v)
}

// handleReply processes a fabric reply at the arrival LC: fill as REM,
// release the parked packets.
func (r *Router) handleReply(l *lineCard, m msg) {
	p := r.pkt(m.id)
	v, a := p.valueVersion, p.addr
	var waiters []int64
	if l.cache != nil {
		waiters = l.cache.Fill(a, m.nh, cache.REM)
		if v < r.version {
			l.cache.InvalidateRange(a, a)
			r.churnStaleFills++
		}
	}
	l.n[cReplyReceived]++
	r.resolveAll(l, m.id, waiters, m.nh, v)
}

// resolveAll routes a lookup result to the originating packet and all
// waiters, exactly once each: local packets complete, remote requests get
// a reply toward their arrival LC. v is the table version the value was
// computed against. It gives up the names it was handed: each waiting-list
// entry, and last the finished FE job or consumed reply that named origin.
func (r *Router) resolveAll(l *lineCard, origin int64, waiters []int64, nh rtable.NextHop, v int32) {
	seen := false
	for _, id := range waiters {
		if id == origin {
			seen = true
		}
		r.resolve(l, id, nh, v)
		r.drop(id)
	}
	if !seen {
		r.resolve(l, origin, nh, v)
	}
	r.drop(origin)
}

func (r *Router) resolve(l *lineCard, id int64, nh rtable.NextHop, v int32) {
	p := r.pkt(id)
	p.valueVersion = v
	if int(p.arrivalLC) == l.id {
		r.complete(l, p, id, nh, v)
		return
	}
	// A remote request parked at the home LC: answer its arrival LC.
	p.refs++
	l.outQ.push(msg{id: id, dst: p.arrivalLC, nh: nh, reply: true})
	l.n[cReplySent]++
}

// complete finalizes a packet at its arrival LC; duplicate resolutions are
// ignored. They follow a bypassed reservation: a packet that found its set
// all waiting looks up unrecorded, its fill answers the list of a block
// reserved for the same address meanwhile, and that block's own lookup
// then answers its packet again.
// Verification is exact even under churn: the served next hop must equal
// the oracle of the table version the value was computed against.
func (r *Router) complete(l *lineCard, p *packet, id int64, nh rtable.NextHop, v int32) {
	if p.completeCycle >= 0 {
		return
	}
	p.completeCycle = r.now
	r.completed++
	l.n[cCompleted]++
	latency := p.completeCycle - p.arrivalCycle + 1
	r.lat.Add(int(latency))
	r.winSum += latency
	r.winN++
	if r.refs != nil {
		wantNH, _, wantOK := r.refs[v].Lookup(p.addr)
		if wantOK && nh != wantNH || !wantOK && nh != rtable.NoNextHop {
			panic(fmt.Sprintf("sim: packet %d addr %s completed with nh=%d, version-%d oracle says (%d,%v)",
				id, ip.FormatAddr(p.addr), nh, v, wantNH, wantOK))
		}
	}
}

// cachePortAction performs the cycle's single LR-cache access for LC l.
func (r *Router) cachePortAction(l *lineCard) {
	if m, ok := l.replyQ.pop(); ok {
		r.handleReply(l, m)
		return
	}
	if id, ok := l.inputQ.pop(); ok {
		r.probeRemoteRequest(l, id)
		return
	}
	if id, ok := l.localQ.pop(); ok {
		r.probeLocal(l, id)
		return
	}
}

// probeLocal handles a freshly arrived packet at its arrival LC. The name
// the popped queue slot held passes to wherever the packet goes next — a
// waiting list, the FE queue, a request — or is dropped on a hit.
func (r *Router) probeLocal(l *lineCard, id int64) {
	p := r.pkt(id)
	r.stamp(id, stProbe)
	if l.cache == nil {
		r.dispatchMiss(l, id, r.homeOf(p.addr, l.id))
		return
	}
	res := l.cache.Probe(p.addr)
	switch res.Kind {
	case cache.Hit, cache.HitVictim:
		if res.Origin == cache.LOC {
			l.n[cHitLoc]++
		} else {
			l.n[cHitRem]++
		}
		// A live (non-waiting) entry always matches the current table:
		// churn invalidates every affected range and stale fills are
		// point-invalidated, so hits verify against the current version.
		r.complete(l, p, id, res.NextHop, r.version)
		r.drop(id)
	case cache.HitWaiting:
		l.cache.AddWaiter(p.addr, id)
		l.n[cParked]++
	default: // Miss
		home := r.homeOf(p.addr, l.id)
		if !r.cfg.DisableEarlyRecording {
			origin := cache.REM
			if home == l.id {
				origin = cache.LOC
			}
			if l.cache.RecordMiss(p.addr, origin, id) {
				p.refs++ // the new block's waiting list names it too
			}
		}
		l.n[cMissLocal]++
		r.dispatchMiss(l, id, home)
	}
}

// dispatchMiss sends a missed packet to its lookup site: the local FE when
// this LC is home, otherwise a fabric request to the home LC.
func (r *Router) dispatchMiss(l *lineCard, id int64, home int) {
	if home == l.id {
		l.feQ.push(id)
		return
	}
	r.stamp(id, stReqSend)
	l.outQ.push(msg{id: id, dst: int32(home)})
	l.n[cRequestSent]++
}

// probeRemoteRequest handles a request received from another LC at the
// home LC; the popped slot's name moves on as in probeLocal.
func (r *Router) probeRemoteRequest(l *lineCard, id int64) {
	p := r.pkt(id)
	r.stamp(id, stReqRecv)
	l.n[cRequestReceived]++
	if l.cache == nil {
		l.feQ.push(id)
		return
	}
	res := l.cache.Probe(p.addr)
	switch res.Kind {
	case cache.Hit, cache.HitVictim:
		l.n[cHitRemoteRequest]++
		r.resolve(l, id, res.NextHop, r.version)
		r.drop(id)
	case cache.HitWaiting:
		l.cache.AddWaiter(p.addr, id)
		l.n[cParked]++
	default:
		if !r.cfg.DisableEarlyRecording && l.cache.RecordMiss(p.addr, cache.LOC, id) {
			p.refs++
		}
		l.n[cMissRemoteRequest]++
		l.feQ.push(id)
	}
}

// applyChurn applies every pending route update scheduled at or before
// now: the evolving table and the ROT-partitioning advance (control bits
// and the pattern→LC map are kept, so no packet's home moves), engines
// update in place when dynamic, and the LR-caches invalidate the ranges
// the batch changed or — under UpdateFullFlush — the whole address space.
func (r *Router) applyChurn(now int64) {
	start := r.nextUpdate
	for r.nextUpdate < len(r.updates) && r.updates[r.nextUpdate].AtCycle <= now {
		r.nextUpdate++
	}
	if r.nextUpdate == start {
		return
	}
	batch := r.updates[start:r.nextUpdate]
	// The partitioning applies the batch to the one full table it keeps.
	var np *partition.Partitioning
	var sub [][]rtable.Update
	var next *rtable.Table
	if r.part != nil {
		np, sub = r.part.ApplyUpdates(batch)
		next = np.Full()
	} else {
		next = r.curTable.ApplyAll(batch)
	}
	if next.Len() == 0 {
		return // never let churn empty the table; drop the batch
	}
	r.curTable = next
	r.churnEvents += int64(len(batch))
	if np != nil {
		r.part = np
		var tables []*rtable.Table // derived once, if some engine is rebuilt
		for i, l := range r.lcs {
			if len(sub[i]) == 0 || lpm.ApplyInPlace(l.engine, sub[i]) {
				continue
			}
			if tables == nil {
				tables = np.Tables()
			}
			l.engine = r.cfg.Engine(tables[i])
		}
	} else {
		for _, l := range r.lcs {
			if !lpm.ApplyInPlace(l.engine, batch) {
				l.engine = r.cfg.Engine(next)
			}
		}
	}
	r.version++
	if r.refs != nil {
		r.refs = append(r.refs, lpm.NewReference(next))
	}
	if r.cfg.UpdateFullFlush {
		r.invalidate(allAddrs)
		return
	}
	r.churnRangeInv += r.invalidate(rtable.UpdateRanges(batch))
}

// allAddrs is the whole address space: invalidating it is the paper's flush.
var allAddrs = []rtable.Range{{Lo: 0, Hi: math.MaxUint32}}

// invalidate drops the complete entries in rs from every LR-cache and
// returns the range invalidations issued, len(rs) per cache. W blocks stay
// with their waiting lists (cache.InvalidateRanges): a lookup in flight
// fills its block once and answers its list once, and a value computed
// against an older table is point-invalidated by the version guard in
// finishFE and handleReply.
func (r *Router) invalidate(rs []rtable.Range) int64 {
	var n int64
	for _, l := range r.lcs {
		if l.cache != nil {
			l.cache.InvalidateRanges(rs)
			n += int64(len(rs))
		}
	}
	return n
}
