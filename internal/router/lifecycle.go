// Line-card lifecycle: health monitoring, admin drain, crash detection,
// and automatic partition re-homing.
//
// SPAL's premise is that each LC owns one ROT-partition, so a dead or
// wedged line card black-holes every remote lookup homed on it until its
// retries run out, or the home turns untrusted (overload.go), into the
// fallback, an index over the full-table snapshot the router holds. The
// lifecycle subsystem turns LC failure and maintenance into first-class
// events:
//
//	          tick fresh
//	    ┌─────────────────────┐
//	    ▼                     │
//	HEALTHY ──tick stale────▶ SUSPECT ──────not live──────▶ DOWN
//	    │                         │                          │ ▲
//	    │ DrainLC          DrainLC│        RestoreLC         │ │ KillLC /
//	    ▼                         ▼      ┌───────────────────┘ │ crash
//	DRAINING ◀────────────────────┘      ▼                     │
//	    │        RestoreLC            HEALTHY ─────────────────┘
//	    └────────────────────────────▶
//
// The monitor reads state the router already holds. Suspect ages each LC's
// tick stamp (lineCard.lastTick): whoever owns a live LC ticks it when one is
// due, the monitor's sweep included, so a stamp suspectAfter old means the
// LC's lock has been held that long — a wedged handler. suspectAfter is the
// request timeout, floored at 50 ms, five 10 ms preemption quanta: below
// that, an LC the scheduler merely preempted would be suspected. A fresh
// stamp heals it. Down waits for nothing but the live flag KillLC clears: the
// first check that finds the slot not live declares it, and a stale stamp
// alone never does — re-homing a partition away from an owner that might
// still be running would be a split-brain.
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
	// LCHealthy: the LC is ticked on time and owns its ROT-partition.
	LCHealthy LCState = iota
	// LCSuspect: the LC has not been ticked for at least the suspect
	// window, its lock held all along. It keeps its partition (a long
	// handler can look like this); lookups homed on it ride the
	// deadline/retry/fallback machinery.
	LCSuspect
	// LCDown: the LC crashed (KillLC) and its partition has
	// been re-homed onto the survivors. The slot keeps accepting arrival
	// traffic as an empty forwarding shell until RestoreLC.
	LCDown
	// LCDraining: an administrator called DrainLC; the partition has been
	// re-homed and the LC is quiescing (or has quiesced) its waitlists.
	LCDraining
)

// lcStateNames are the wire/report names, used by String and the
// spal_router_lc_state gauge documentation.
var lcStateNames = [...]string{"healthy", "suspect", "down", "draining"}

// String implements fmt.Stringer.
func (s LCState) String() string {
	if int(s) < len(lcStateNames) {
		return lcStateNames[s]
	}
	return fmt.Sprintf("LCState(%d)", uint8(s))
}

// suspectFloor is the least suspect window: five 10 ms preemption quanta.
// The window is max(RequestTimeout, suspectFloor).
const suspectFloor = 50 * time.Millisecond

// healthLoop is the router's one goroutine and its only ticker: every period
// it sweeps the LCs, then reads the clock and judges the tick stamps. Not at
// the ticker's own timestamp: that is when it fired, and this goroutine may
// have waited a preemption quantum or more for a P since, while owners went
// on ticking.
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
// leave ticks an idle LC (deadline sweep, tick stamp) and serves what a
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

// healthCheck judges the LCs at now, a reading of Router.now: it demotes an
// LC whose tick stamp is suspectAfter old to Suspect, heals a Suspect whose
// stamp is fresh again, and re-homes every slot it finds not live.
func (r *Router) healthCheck(now int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped.Load() {
		return
	}
	var dead []int
	for i, h := range r.health {
		st := h.Load()
		if st == LCDown {
			continue
		}
		if !r.lcs[i].live.Load() {
			dead = append(dead, i)
			continue
		}
		age := time.Duration(now - r.lcs[i].lastTick.Load())
		switch {
		case st == LCHealthy && age >= r.suspectAfter:
			h.Store(LCSuspect)
			r.suspects.Add(1)
		case st == LCSuspect && age < r.suspectAfter:
			h.Store(LCHealthy)
		}
	}
	for _, i := range dead {
		r.rehomeLocked(i)
	}
	r.maybeGrayLocked()
}

// rehomeLocked declares LC dead, re-homes its partition onto the
// survivors, revives the slot as an empty forwarding shell, and replays
// its parked lookups. r.mu must be held and the slot not live: taking lc.mu
// waits out a handler some caller may still be running from before the
// kill, and no new one can start until the adoption below is complete.
func (r *Router) rehomeLocked(dead int) {
	r.health[dead].Store(LCDown)
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
	tables := part.Tables()
	engine := r.cfg.Engine(tables[dead]) // like every build, under no LC's lock
	lc.mu.Lock()
	lc.engine = engine
	lc.homeOf = part.Home()
	lc.epoch++
	lc.gen = r.gen // the shell's engine is built from the current table
	if lc.cache != nil {
		lc.cache.Flush()
	}
	pend := lc.pending.take()
	lc.nwaiters = 0

	// Rebirth: the slot is live again and forwards arrival traffic to the new
	// homes — first what buffered in its queue since the crash, which this
	// leave serves. Not past a Stop, which may have cleared live a moment ago.
	lc.lastTick.Store(r.now())
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

	if err := r.swapPartitioning(part, tables); err != nil {
		return // stopping; the partial swap no longer matters
	}
	r.part = part
}

// aliveLCsLocked returns the LCs that currently own partitions: Healthy or
// Suspect, which may just be running a long handler. r.mu must be held.
func (r *Router) aliveLCsLocked() []int {
	var out []int
	for i, h := range r.health {
		if st := h.Load(); st == LCHealthy || st == LCSuspect {
			out = append(out, i)
		}
	}
	return out
}

// LCStates returns every line card's current lifecycle state, indexed by
// LC id.
func (r *Router) LCStates() []LCState {
	out := make([]LCState, len(r.health))
	for i, h := range r.health {
		out[i] = h.Load()
	}
	return out
}

// KillLC crashes line card lc: it stops serving mid-stream exactly as
// a hardware fault would stop a real card, losing its engine and cache
// but not the fabric-buffered messages addressed to it. The health
// monitor's next check declares the LC Down, re-homes its partition onto
// the survivors and replays its parked lookups; every in-flight lookup
// still terminates with a correct verdict. Chaos-test hook first, admin
// tool second.
func (r *Router) KillLC(lc int) error {
	if lc < 0 || lc >= r.cfg.NumLCs {
		return fmt.Errorf("router: no such LC %d", lc)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped.Load() {
		return ErrStopped
	}
	if r.health[lc].Load() == LCDown {
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
	h := r.health[lc]
	switch h.Load() {
	case LCDraining:
		r.mu.Unlock()
		return fmt.Errorf("router: LC %d is already draining", lc)
	case LCDown:
		r.mu.Unlock()
		return fmt.Errorf("router: LC %d is down", lc)
	}
	start := r.now()
	h.Store(LCDraining)
	alive := r.aliveLCsLocked()
	if len(alive) == 0 {
		h.Store(LCHealthy)
		r.mu.Unlock()
		return fmt.Errorf("router: cannot drain LC %d, it is the last active LC", lc)
	}
	part := partition.Subset(r.part.Full(), r.cfg.NumLCs, alive)
	if err := r.swapPartitioning(part, part.Tables()); err != nil {
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
	r.drainDur.ObserveDuration(time.Duration(r.now() - start))
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

// RestoreLC returns a drained or down line card to service: the
// partitioning is recomputed over the enlarged alive set and swapped in two
// phases, after which the LC owns a ROT-partition again. For a Down LC this
// restores the shell its adoption revived, so no separate "replace card"
// call is needed.
func (r *Router) RestoreLC(lc int) error {
	if lc < 0 || lc >= r.cfg.NumLCs {
		return fmt.Errorf("router: no such LC %d", lc)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped.Load() {
		return ErrStopped
	}
	h := r.health[lc]
	if st := h.Load(); st == LCHealthy || st == LCSuspect {
		return fmt.Errorf("router: LC %d is %s, nothing to restore", lc, st)
	}
	h.Store(LCHealthy)
	part := partition.Subset(r.part.Full(), r.cfg.NumLCs, r.aliveLCsLocked())
	if err := r.swapPartitioning(part, part.Tables()); err != nil {
		return err
	}
	r.part = part
	return nil
}
