// Line-card lifecycle: health monitoring, admin drain, crash detection,
// and automatic partition re-homing.
//
// SPAL's premise is that each LC owns one ROT-partition, so a dead or
// wedged line card black-holes every remote lookup homed on it until the
// retry budget burns down into the fallback, an index over the full-table
// snapshot the router holds. The lifecycle subsystem turns LC failure and
// maintenance into first-class events:
//
//	          beats resume
//	    ┌─────────────────────┐
//	    ▼                     │
//	HEALTHY ──beats missed──▶ SUSPECT ──missed ∧ crashed──▶ DOWN
//	    │                         │                          │ ▲
//	    │ DrainLC          DrainLC│        RestoreLC         │ │ KillLC /
//	    ▼                         ▼      ┌───────────────────┘ │ crash
//	DRAINING ◀────────────────────┘      ▼                     │
//	    │        RestoreLC            HEALTHY ─────────────────┘
//	    └────────────────────────────▶
//
// Heartbeats piggyback on the per-LC deadline tick and cross the
// (virtual) fabric, so an installed FaultInjector can drop them: a few
// consecutive losses demote the LC to Suspect, resumed beats heal it.
// Down is deliberately stricter than Suspect: the health monitor only
// declares an LC dead once it is not live (the crash) and the monitor has
// had its lock, never on missed beats alone — re-homing a partition away
// from an owner that might still be running would be a split-brain.
//
// When an LC goes Down the router recomputes the partitioning over the
// survivors (partition.Subset, ψ−1 pattern folding), adopts the dead
// LC's waitlists, revives the slot as an empty shell that forwards its
// arrival traffic, replays the parked lookups against the new homes, and
// runs the same two-phase swap UpdateTable uses so every LC installs the
// new engine + homeOf pair and flushes the now-stale LOC/REM cache
// entries for the moved ranges. DrainLC is the graceful version: the
// partition moves first, then the call blocks until every waitlist that
// existed at drain time has resolved — no lookup is ever dropped or
// expired by an admin drain.
//
// A fifth state, QUARANTINED, is entered from Healthy/Suspect by the
// integrity scrubber rather than by the health monitor: the LC's
// forwarding state disagreed with the canonical table. It leaves via a
// self-healing rebuild, RestoreLC, or any full swap; see scrub.go.
package router

import (
	"fmt"
	"sync/atomic"
	"time"

	"spal/internal/ip"
	"spal/internal/partition"
	"spal/internal/tracing"
)

// atomicLCState is an LCState behind an atomic (monitor writes, Metrics
// and LCStates read).
type atomicLCState struct{ v atomic.Int32 }

func (a *atomicLCState) Load() LCState   { return LCState(a.v.Load()) }
func (a *atomicLCState) Store(s LCState) { a.v.Store(int32(s)) }

// LCState is one line card's lifecycle state.
type LCState uint8

// LC lifecycle states.
const (
	// LCHealthy: the LC heartbeats on time and owns its ROT-partition.
	LCHealthy LCState = iota
	// LCSuspect: heartbeats have been missing for at least the suspect
	// window. The LC keeps its partition (fabric loss can fake this);
	// lookups homed on it ride the deadline/retry/fallback machinery.
	LCSuspect
	// LCDown: the LC crashed (KillLC) and its partition has
	// been re-homed onto the survivors. The slot keeps accepting arrival
	// traffic as an empty forwarding shell until RestoreLC.
	LCDown
	// LCDraining: an administrator called DrainLC; the partition has been
	// re-homed and the LC is quiescing (or has quiesced) its waitlists.
	LCDraining
	// LCQuarantined: the integrity scrubber found the LC's forwarding
	// state disagreeing with the canonical table (see scrub.go). The LC
	// keeps its partition and keeps serving — but its replies leave
	// stamped with generation zero, so the generation guard keeps every
	// one of them out of peer caches. The scrubber's rebuild, which
	// follows at once, RestoreLC, or any full partitioning swap returns it
	// to LCHealthy.
	LCQuarantined
)

// lcStateNames are the wire/report names, used by String and the
// spal_router_lc_state gauge documentation.
var lcStateNames = [...]string{"healthy", "suspect", "down", "draining", "quarantined"}

// String implements fmt.Stringer.
func (s LCState) String() string {
	if int(s) < len(lcStateNames) {
		return lcStateNames[s]
	}
	return fmt.Sprintf("LCState(%d)", uint8(s))
}

// Lifecycle defaults: an LC is Suspect after one request-timeout without
// a heartbeat (an LC is ticked every timeout/4, so ~3 missed beats) and
// eligible for Down after two.
const (
	defaultSuspectFactor = 1 // × RequestTimeout
	defaultDownFactor    = 2 // × RequestTimeout
)

// lcLife is the control-plane view of one line-card slot, both atomics
// (read by Metrics and the health monitor without locks). lastBeat is a
// reading of Router.now, like every stamp the LC's owners hold: the monitor
// ages it against the same clock, so a step of the wall clock moves nothing.
type lcLife struct {
	state    atomicLCState
	lastBeat atomic.Int64
}

// beat records one heartbeat from an LC, routed through the fault
// injector like any other fabric message (To == ControlLC): a dropped
// beat is simply never recorded, and enough consecutive losses push the
// LC to Suspect until beats resume.
func (r *Router) beat(id int, now int64) {
	if r.injector != nil {
		if r.injector(FabricMessage{Heartbeat: true, From: id, To: ControlLC}).Drop {
			return
		}
	}
	r.life[id].lastBeat.Store(now)
}

// healthLoop is the router's one goroutine and its only ticker: every period
// it sweeps the LCs, then reads the clock and judges the beats. Not at the
// tick's own timestamp: that is when it fired, and this goroutine may have
// waited a preemption quantum or more for a P since, while owners went on
// recording beats.
func (r *Router) healthLoop() {
	defer r.wg.Done()
	tick := time.NewTicker(r.tickEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			r.sweep()
			r.healthCheck(r.now())
		case <-r.quit:
			return
		}
	}
}

// sweep owns each live LC it finds free, for what no caller came by to do:
// leave ticks an idle LC (heartbeat, deadline sweep) and serves what a
// departed owner left in its queue. It never waits for a lock — a wedged LC
// is to go Suspect, not to wedge the monitor.
func (r *Router) sweep() {
	now := r.now()
	for _, lc := range r.lcs {
		if lc.live.Load() && lc.mu.TryLock() {
			r.leave(lc, now)
		}
	}
}

// healthCheck sweeps the heartbeat clocks at now, a reading of Router.now:
// it demotes silent LCs to Suspect, heals Suspects whose beats resumed, and
// re-homes LCs that are both silent and crashed.
func (r *Router) healthCheck(now int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped.Load() {
		return
	}
	var dead []int
	for i, l := range r.life {
		st := l.state.Load()
		if st == LCDown {
			continue
		}
		crashed := !r.lcs[i].live.Load()
		age := time.Duration(now - l.lastBeat.Load())
		if age >= r.downAfter && crashed {
			dead = append(dead, i)
			continue
		}
		switch {
		case st == LCHealthy && age >= r.suspectAfter:
			l.state.Store(LCSuspect)
			r.suspects.Add(1)
		case st == LCSuspect && age < r.suspectAfter:
			l.state.Store(LCHealthy)
		}
	}
	for _, i := range dead {
		r.rehomeLocked(i)
	}
	r.maybeInjectLocked()
	r.maybeScrubLocked(now)
	r.maybeRebalanceLocked(now)
	r.maybeGrayLocked()
}

// rehomeLocked declares LC dead, re-homes its partition onto the
// survivors, revives the slot as an empty forwarding shell, and replays
// its parked lookups. r.mu must be held and the slot not live: taking lc.mu
// waits out a handler some caller may still be running from before the
// kill, and no new one can start until the adoption below is complete.
func (r *Router) rehomeLocked(dead int) {
	l := r.life[dead]
	l.state.Store(LCDown)
	alive := r.aliveLCsLocked()
	if len(alive) == 0 {
		// Everything else is down or draining: the reborn shell inherits
		// the whole table rather than leaving the router homeless.
		alive = []int{dead}
	}
	part := partition.Subset(r.part.Full(), r.cfg.NumLCs, alive)

	// Adopt the corpse. The crash lost the LC's engine and cache; give
	// the shell the new (empty, unless it is the sole survivor) partition
	// and bump the epoch so replies computed for the LC that died
	// cannot fill the flushed cache.
	lc := r.lcs[dead]
	engine := r.buildEngine(part.Table(dead)) // like every build, under no LC's lock
	lc.mu.Lock()
	lc.engine = engine
	lc.homeOf = part.HomeLC
	lc.epoch++
	lc.gen = r.gen // the shell's engine is built from the current table
	r.scrub[dead].streak.Store(0)
	if lc.cache != nil {
		lc.cache.Flush()
	}
	pend := lc.pending.take()
	lc.nwaiters = 0

	// Rebirth: the slot is live again and forwards arrival traffic to the new
	// homes — first what buffered in its queue since the crash, which this
	// leave serves. Not past a Stop, which may have cleared live a moment ago.
	lc.lastTick = r.now()
	l.lastBeat.Store(lc.lastTick)
	lc.live.Store(true)
	if r.stopped.Load() {
		lc.live.Store(false)
	}
	r.leave(lc, 0)

	// Replay the lookups that were parked at the dead LC: re-submitted at
	// the reborn slot, they re-dispatch against the new homeOf. Remote
	// waiters need no replay — their requesters hold their own
	// deadline-armed waitlists, which the rekey phase of the swap below
	// re-drives.
	replayed := 0
	for _, e := range pend {
		addr, wl := e.addr, e.wl
		for _, w := range wl.locals {
			// A re-homed lookup is always interesting: trace it even if
			// head sampling skipped it. The waiter came out of the corpse
			// under lc.mu, and the trace hands off to the revived LC inside
			// the replayed message.
			if w.tr == nil {
				w.tr = r.lateTrace(dead, addr)
			}
			w.tr.Record(tracing.EvRehome, int64(dead), 0)
			r.replaySend(dead, addr, w)
			replayed++
		}
		if wl.trLate {
			// The waitlist's own late trace cannot ride any single
			// replayed waiter; close it out rather than leak it.
			r.finishTrace(wl.tr, ServedByUnknown, false)
		}
	}
	r.rehomes.Add(1)
	r.replayed.Add(int64(replayed))

	if err := r.swapPartitioning(part); err != nil {
		return // stopping; the partial swap no longer matters
	}
	r.part = part
}

// aliveLCsLocked returns the LCs that currently own partitions (Healthy,
// Suspect — a Suspect may just be behind a lossy fabric — or Quarantined,
// which still serves while its replies are fenced out of peer caches).
// r.mu must be held.
func (r *Router) aliveLCsLocked() []int {
	var out []int
	for i, l := range r.life {
		if st := l.state.Load(); st == LCHealthy || st == LCSuspect || st == LCQuarantined {
			out = append(out, i)
		}
	}
	return out
}

// LCStates returns every line card's current lifecycle state, indexed by
// LC id.
func (r *Router) LCStates() []LCState {
	out := make([]LCState, len(r.life))
	for i, l := range r.life {
		out[i] = l.state.Load()
	}
	return out
}

// KillLC crashes line card lc: it stops serving mid-stream exactly as
// a hardware fault would stop a real card, losing its engine and cache
// but not the fabric-buffered messages addressed to it. The health
// monitor notices the missing heartbeats, declares the LC Down, re-homes
// its partition onto the survivors and replays its parked lookups; every
// in-flight lookup still terminates with a correct verdict. Chaos-test
// hook first, admin tool second.
func (r *Router) KillLC(lc int) error {
	if lc < 0 || lc >= r.cfg.NumLCs {
		return fmt.Errorf("router: no such LC %d", lc)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped.Load() {
		return ErrStopped
	}
	l := r.life[lc]
	if l.state.Load() == LCDown {
		return fmt.Errorf("router: LC %d is already down", lc)
	}
	// From here no handler starts at this slot, inline or from its queue:
	// arrivals buffer there until the adoption serves them.
	r.lcs[lc].live.Store(false)
	return nil
}

// DrainLC takes line card lc out of service for maintenance: its
// ROT-partition is re-homed onto the remaining LCs with the same
// two-phase swap UpdateTable uses, and the call then blocks until every
// lookup that was parked at the LC when the drain began has resolved.
// The drained LC keeps running — it still accepts arrival traffic and
// serves it via its LR-cache and the fabric — it just owns no partition
// until RestoreLC. A clean drain never expires or drops a lookup.
func (r *Router) DrainLC(lc int) error {
	if lc < 0 || lc >= r.cfg.NumLCs {
		return fmt.Errorf("router: no such LC %d", lc)
	}
	r.mu.Lock()
	if r.stopped.Load() {
		r.mu.Unlock()
		return ErrStopped
	}
	l := r.life[lc]
	switch l.state.Load() {
	case LCDraining:
		r.mu.Unlock()
		return fmt.Errorf("router: LC %d is already draining", lc)
	case LCDown:
		r.mu.Unlock()
		return fmt.Errorf("router: LC %d is down", lc)
	}
	start := time.Now()
	l.state.Store(LCDraining)
	alive := r.aliveLCsLocked()
	if len(alive) == 0 {
		l.state.Store(LCHealthy)
		r.mu.Unlock()
		return fmt.Errorf("router: cannot drain LC %d, it is the last active LC", lc)
	}
	part := partition.Subset(r.part.Full(), r.cfg.NumLCs, alive)
	if err := r.swapPartitioning(part); err != nil {
		r.mu.Unlock()
		return err
	}
	r.part = part
	r.mu.Unlock()

	// Quiesce: the swap's rekey already re-drove every parked lookup
	// against the new homes; wait until each address that was in the
	// LC's waitlists has resolved at least once. Tracking the snapshot
	// (not the live depth) keeps the drain bounded under continuous
	// arrival traffic.
	remaining := r.pendingAddrs(lc)
	for len(remaining) > 0 {
		select {
		case <-r.quit:
			return ErrStopped
		case <-time.After(r.tickEvery):
		}
		cur := r.pendingAddrs(lc)
		for a := range remaining {
			if _, still := cur[a]; !still {
				delete(remaining, a)
			}
		}
	}
	r.drains.Add(1)
	r.drainDur.ObserveDuration(time.Since(start))
	return nil
}

// pendingAddrs snapshots the set of addresses with parked lookups at LC i
// (a corpse's too: its waiters stay parked until the adoption replays them).
func (r *Router) pendingAddrs(i int) map[ip.Addr]struct{} {
	var m map[ip.Addr]struct{}
	r.own(i, func(lc *lineCard) {
		m = make(map[ip.Addr]struct{}, lc.pending.len())
		for _, e := range lc.pending.dense {
			m[e.addr] = struct{}{}
		}
	})
	return m
}

// RestoreLC returns a drained, down, or quarantined line card to
// service: the partitioning is recomputed over the enlarged alive set
// and swapped in two phases, after which the LC owns a ROT-partition
// again. For a Down LC this restores the shell its adoption revived, so
// no separate "replace card" call is needed. For a Quarantined LC the swap
// rebuilds its engine from the canonical table: the manual repair path.
func (r *Router) RestoreLC(lc int) error {
	if lc < 0 || lc >= r.cfg.NumLCs {
		return fmt.Errorf("router: no such LC %d", lc)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped.Load() {
		return ErrStopped
	}
	l := r.life[lc]
	if st := l.state.Load(); st == LCHealthy || st == LCSuspect {
		return fmt.Errorf("router: LC %d is %s, nothing to restore", lc, st)
	}
	l.lastBeat.Store(r.now()) // fresh grace period before suspicion
	l.state.Store(LCHealthy)
	part := partition.Subset(r.part.Full(), r.cfg.NumLCs, r.aliveLCsLocked())
	if err := r.swapPartitioning(part); err != nil {
		return err
	}
	r.part = part
	return nil
}
