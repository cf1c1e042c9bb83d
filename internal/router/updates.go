// Incremental route updates: the churn-absorption plane.
//
// UpdateTable is the paper's answer to a routing-table change — rebuild
// every partition, swap in two barrier phases, flush every LR-cache. That
// is the right tool for a wholesale table replacement, but BGP churn is
// not wholesale: a session flap touches a handful of prefixes per batch,
// and paying a global barrier plus a full cache flush per batch collapses
// the hit rate the LR-caches exist to provide.
//
// ApplyUpdates is the incremental path. The partitioning applies the
// batch in place (same control bits, same pattern→LC folding; see
// partition.ApplyUpdates), each LC receives exactly its own sub-batch to
// stream into its engine — in place for lpm.DynamicEngine implementations
// (the tries), by rebuilding only its own partition otherwise — and cache
// coherence comes from targeted invalidation instead of a flush: a change
// to prefix p can only affect verdicts for addresses in
// [p.FirstAddr(), p.LastAddr()], so each LC invalidates the batch's
// coalesced address ranges (rtable.UpdateRanges) in its LR-cache, LOC and
// REM entries alike, and every other entry keeps serving.
//
// There is no barrier and the reply epoch does not move. Instead,
// correctness across the propagation window rests on a generation guard:
// every update batch advances the router-wide generation (r.gen, under
// r.mu); each LC records the generation its engine reflects (lc.gen);
// every fabric reply carries the generation its value was computed
// against. A requester that has already applied generation N — and
// therefore already ran N's invalidations — refuses to cache a reply
// value older than N (see fillStaleRelease): the value is still delivered
// to the parked lookups, which were in flight across the window and may
// legally observe either table, but it cannot outlive the window in a
// cache. Once ApplyUpdates returns, every alive LC has applied the batch
// and invalidated its ranges, so every subsequent lookup reflects the
// updated table.
//
// Incremental updates preserve the partitioning's control bits, so
// sustained churn slowly drifts the partition quality the bits were
// selected for: replication (Φ*) creeps as new prefixes fold into more
// patterns than SelectBits would now choose, and per-LC load skews. The
// background rebalancer rides the health ticker, compares the live
// partition stats against the baseline captured at the last full bit
// re-selection, and triggers the existing two-phase swap — full
// SelectBits, barrier, flush — only when drift crosses the policy's
// thresholds. Steady churn therefore costs targeted invalidations only,
// with an occasional amortized re-selection when the table has genuinely
// changed shape.
package router

import (
	"errors"
	"time"

	"spal/internal/lpm"
	"spal/internal/partition"
	"spal/internal/rtable"
)

// RebalancePolicy configures the background partition rebalancer (see the
// package comment above). The zero value disables it; DefaultRebalancePolicy
// returns sensible thresholds.
type RebalancePolicy struct {
	// Enabled turns the rebalancer on.
	Enabled bool
	// MaxReplicationGrowth triggers a rebalance when the partitioning's
	// live replication factor exceeds baseline × this. <= 1 selects the
	// default (1.15, i.e. 15% Φ* growth since the last bit selection).
	MaxReplicationGrowth float64
	// MaxSkew triggers a rebalance when (max − min) partition size exceeds
	// this fraction of the mean partition size. <= 0 selects the default
	// (1.0).
	MaxSkew float64
	// MinInterval rate-limits rebalances (and is also reset by any full
	// swap: UpdateTable, re-homing, drain/restore). <= 0 selects the
	// default (1s).
	MinInterval time.Duration
}

// DefaultRebalancePolicy enables rebalancing with the default thresholds.
func DefaultRebalancePolicy() RebalancePolicy {
	return RebalancePolicy{Enabled: true}
}

func normalizeRebalance(p RebalancePolicy) RebalancePolicy {
	if !p.Enabled {
		return p
	}
	if p.MaxReplicationGrowth <= 1 {
		p.MaxReplicationGrowth = 1.15
	}
	if p.MaxSkew <= 0 {
		p.MaxSkew = 1.0
	}
	if p.MinInterval <= 0 {
		p.MinInterval = time.Second
	}
	return p
}

// ApplyUpdates streams a batch of route announcements and withdrawals
// into the running forwarding plane without a global barrier and without
// flushing the LR-caches: each LC applies only its own partition's
// sub-batch to its engine and invalidates only the batch's address ranges
// in its cache. Lookups keep flowing throughout; ones concurrent with the
// call may observe the table before or after the batch (never a torn
// mix of per-LC states for a single verdict), and once ApplyUpdates
// returns every subsequent lookup reflects the updated table.
//
// The batch is applied atomically with respect to other control-plane
// calls (UpdateTable, lifecycle transitions) and other ApplyUpdates
// calls. An empty batch is a no-op. A batch that would empty the routing
// table entirely is rejected, mirroring UpdateTable's refusal of an empty
// table.
func (r *Router) ApplyUpdates(batch []rtable.Update) error {
	if len(batch) == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped.Load() {
		return ErrStopped
	}
	np, sub := r.part.ApplyUpdates(batch)
	if np.Full().Len() == 0 {
		return errors.New("router: update batch would empty the routing table")
	}
	ranges := rtable.UpdateRanges(batch)
	r.gen++
	r.updateBatches.Add(1)
	r.updateEvents.Add(int64(len(batch)))
	// Bring the degraded path up to date first, mirroring UpdateTable: a
	// fallback resolution may observe either table inside the window, never
	// part of the batch (the write lock spans it), and the new one once the
	// call returns. Not lazily: the build would land on a degraded lookup.
	fb := r.fallback.Load()
	fb.mu.Lock()
	inPlace := applyInPlace(fb.eng, batch)
	fb.mu.Unlock()
	if !inPlace {
		r.fallback.Store(&fallbackEngine{eng: r.cfg.Engine(np.Full())})
	}
	r.part = np

	// One control message per LC — including LCs with an empty sub-batch
	// (a drained or distant LC still holds REM cache entries for the
	// changed ranges) — acked individually, no cross-LC barrier: an LC
	// resumes serving the moment its own delta is in.
	// An LC that crashes mid-update is skipped; rehomeLocked rebuilds the
	// reborn shell from r.part, which already reflects this batch.
	_, ok := r.barrier(r.lcsExcept(-1), func(i int) message {
		m := message{kind: mApplyUpdates, gen: r.gen, updates: sub[i], ranges: ranges}
		if len(sub[i]) > 0 {
			m.table = np.Table(i) // rebuild path for non-dynamic engines
		}
		return m
	})
	if !ok || r.stopped.Load() {
		return ErrStopped
	}
	return nil
}

// fenceLocked pins LC i behind the router's generation, the one way a home
// LC's verdicts are kept out of every peer cache while it keeps serving
// (quarantine, ejection): the router-wide generation advances and every
// *other* LC adopts it via an empty mApplyUpdates — a pure bump, no route
// changes, no invalidations, no flush — while i, flagged by its caller so
// that genPinned reports it, stamps its replies with generation zero (see
// stampGen). From that point the generation guard (m.gen < lc.gen) classes
// every reply i sends as stale at the receiver: delivered to parked
// lookups, never cached, and final (see fillStaleRelease). A peer that
// crashes instead of acknowledging is reborn at the current generation.
// r.mu must be held.
func (r *Router) fenceLocked(i int) {
	r.gen++
	r.barrier(r.lcsExcept(i), r.genBump)
}

// catchUpLocked is fenceLocked's inverse for an LC whose pin has just been
// lifted without a rebuild: it never received the fence's own bump, so it
// adopts the current router generation now. r.mu must be held.
func (r *Router) catchUpLocked(i int) {
	r.barrier([]int{i}, r.genBump)
}

// genBump is the empty update batch that carries the router generation.
func (r *Router) genBump(int) message {
	return message{kind: mApplyUpdates, gen: r.gen}
}

// applyInPlace streams batch into eng when eng is dynamic; when it reports
// false eng is untouched, and its owner rebuilds it from the table the
// batch has already been applied to.
func applyInPlace(eng lpm.Engine, batch []rtable.Update) bool {
	de, ok := eng.(lpm.DynamicEngine)
	if ok {
		for _, u := range batch {
			if u.Kind == rtable.Withdraw {
				de.Delete(u.Route.Prefix)
			} else {
				de.Insert(u.Route.Prefix, u.Route.NextHop)
			}
		}
	}
	return ok
}

// handleApplyUpdates applies one update batch at its LC:
// engine delta (in place when the engine is dynamic, partition rebuild
// otherwise), generation bump, targeted cache invalidation, ack.
func (r *Router) handleApplyUpdates(lc *lineCard, m message) {
	if len(m.updates) > 0 {
		if !applyInPlace(lc.engine, m.updates) {
			lc.engine = r.buildEngine(m.table)
		}
		lc.stats.UpdatesApplied.Add(int64(len(m.updates)))
	}
	// Even a pinned (quarantined or ejected) LC records the generation: it
	// has run this batch's invalidations, so its own stale-reply guard must
	// move with them, or a pre-batch value still in flight toward it would
	// be cached as fresh and outlive the invalidation. The fence that keeps
	// a pinned LC's verdicts out of peer caches is applied where it sends
	// them (see stampGen), not by holding this counter back.
	lc.gen = m.gen
	if lc.cache != nil {
		lc.cache.InvalidateRanges(m.ranges)
	}
	close(m.swapDone)
}

// maybeRebalanceLocked is the health ticker's rebalance hook: when the
// incremental plane has drifted the partition quality past the policy's
// thresholds, re-select control bits over the current table and run the
// full two-phase swap. r.mu must be held.
func (r *Router) maybeRebalanceLocked(now time.Time) {
	if !r.rebalance.Enabled || now.Sub(r.lastRebalance) < r.rebalance.MinInterval {
		return
	}
	st := r.part.Stats()
	alive := r.aliveLCsLocked()
	if len(alive) == 0 {
		return
	}
	// Skew is measured across the LCs that own partitions: a down or
	// draining slot's empty table is policy, not drift.
	sum, min, max := 0, -1, 0
	for _, i := range alive {
		n := st.Sizes[i]
		sum += n
		if min < 0 || n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	mean := float64(sum) / float64(len(alive))
	skewed := mean > 0 && float64(max-min) > r.rebalance.MaxSkew*mean
	replicated := st.Replication > r.baselineRepl*r.rebalance.MaxReplicationGrowth
	if !skewed && !replicated {
		return
	}
	part := partition.Subset(r.part.Full(), r.cfg.NumLCs, alive)
	if err := r.swapPartitioning(part); err != nil {
		return // stopping; the partial swap no longer matters
	}
	r.part = part
	r.rebalances.Add(1)
}
