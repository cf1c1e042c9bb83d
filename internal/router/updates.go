// Incremental route updates: the churn-absorption plane.
//
// UpdateTable is the paper's answer to a routing-table change — rebuild
// every partition, swap in two phases, flush every LR-cache. That is the
// right tool for a wholesale table replacement, but BGP churn is not
// wholesale: a session flap touches a handful of prefixes per batch, and
// paying a two-phase swap plus a full cache flush per batch collapses the
// hit rate the LR-caches exist to provide.
//
// ApplyUpdates is the incremental path. The partitioning applies the
// batch to its one copy of the routes, the full table (same control bits,
// same pattern→LC folding; see partition.ApplyUpdates), and each LC
// receives exactly its own sub-batch to stream into its engine — in place
// for lpm.DynamicEngine implementations (the tries), by a rebuild of only
// its own partition otherwise, from a route list derived from the new full
// table, made before the LC's lock is taken and installed by pointer — and
// cache coherence comes from targeted invalidation instead of a flush: a
// change to prefix p can only affect verdicts for addresses in
// [p.FirstAddr(), p.LastAddr()], so each LC invalidates the batch's
// coalesced address ranges (rtable.UpdateRanges) in its LR-cache, LOC and
// REM entries alike, and every other entry keeps serving.
//
// There is no second phase and the reply epoch does not move. Instead,
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
// SelectBits, install, rekey — only when drift crosses its thresholds. Steady churn therefore costs targeted invalidations only,
// with an occasional amortized re-selection when the table has genuinely
// changed shape.
package router

import (
	"errors"
	"sync"
	"time"

	"spal/internal/lpm"
	"spal/internal/partition"
	"spal/internal/rtable"
)

// Rebalance thresholds: a rebalance runs when the partitioning's live
// replication factor exceeds its baseline × maxReplicationGrowth (15% Φ*
// growth since the last bit selection), or when (max − min) partition size
// exceeds maxSkew × the mean, and at most every rebalanceEvery; any full
// swap — UpdateTable, re-homing, drain/restore — restarts that interval.
const (
	maxReplicationGrowth = 1.15
	maxSkew              = 1.0
	rebalanceEvery       = time.Second
)

// ApplyUpdates streams a batch of route announcements and withdrawals
// into the running forwarding plane without a two-phase swap and without
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
	// part of the batch (it is one pointer store), and the new one once the
	// call returns.
	r.fallback.Store(rtable.NewIndex(np.Full()))
	r.part = np

	// An engine that does not take updates in place is rebuilt here for each
	// LC whose table changed, under no LC's lock — an LC keeps answering for
	// the length of its own build — and installed by pointer below. The
	// builds share nothing and run side by side, at most ψ of them.
	rebuilt := make([]lpm.Engine, r.cfg.NumLCs)
	if !r.dynamic {
		tables := np.Tables()
		var wg sync.WaitGroup
		for i, s := range sub {
			if len(s) > 0 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rebuilt[i] = r.buildEngine(tables[i])
				}()
			}
		}
		wg.Wait()
	}
	// One ownership per LC — including LCs with an empty sub-batch (a
	// drained or distant LC still holds REM cache entries for the changed
	// ranges) — and no second phase: an LC resumes serving the moment its
	// own delta is in. A slot that is not live is skipped; rehomeLocked
	// rebuilds the reborn shell from r.part, which already reflects this
	// batch.
	for i := range r.lcs {
		r.install(i, func(lc *lineCard) { lc.applyUpdates(sub[i], ranges, r.gen, rebuilt[i]) })
	}
	if r.stopped.Load() {
		return ErrStopped
	}
	return nil
}

// fenceLocked raises the generation fence the scrubber puts behind a
// damaged engine it has just replaced: the router-wide generation advances
// and every LC adopts it — a pure bump, no route changes, no invalidations,
// no flush. From that point the generation guard (m.gen < lc.gen) classes
// every reply computed before the bump as stale at the receiver: delivered
// to parked lookups, never cached (see fillStaleRelease). A peer that is
// dead at the time is reborn at the current generation. r.mu must be held.
func (r *Router) fenceLocked() {
	r.gen++
	for i := range r.lcs {
		r.install(i, func(lc *lineCard) { lc.gen = r.gen })
	}
}

// applyUpdates applies one update batch at its LC, under one ownership so
// that no lookup sees the new generation over the old engine: engine delta
// (the engine rebuilt for it when there is one, else the batch streamed into
// the dynamic engine in place), generation, targeted cache invalidation.
func (lc *lineCard) applyUpdates(updates []rtable.Update, ranges []rtable.Range, gen uint64, rebuilt lpm.Engine) {
	if len(updates) > 0 {
		if rebuilt != nil {
			lc.engine = rebuilt
		} else {
			de := lc.engine.(lpm.DynamicEngine)
			for _, u := range updates {
				if u.Kind == rtable.Withdraw {
					de.Delete(u.Route.Prefix)
				} else {
					de.Insert(u.Route.Prefix, u.Route.NextHop)
				}
			}
		}
		lc.stats.UpdatesApplied.Add(int64(len(updates)))
	}
	lc.gen = gen
	if lc.cache != nil {
		lc.cache.InvalidateRanges(ranges)
	}
}

// maybeRebalanceLocked is the health ticker's rebalance hook at now, a
// reading of Router.now: when the incremental plane has drifted the
// partition quality past the thresholds, re-select control bits over the
// current table and run the full two-phase swap. r.mu must be held.
func (r *Router) maybeRebalanceLocked(now int64) {
	if r.rebalanceEvery == 0 || time.Duration(now-r.lastRebalance) < r.rebalanceEvery {
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
	skewed := mean > 0 && float64(max-min) > maxSkew*mean
	replicated := st.Replication > r.baselineRepl*maxReplicationGrowth
	if !skewed && !replicated {
		return
	}
	part := partition.Subset(r.part.Full(), r.cfg.NumLCs, alive)
	if err := r.swapPartitioning(part, part.Tables()); err != nil {
		return // stopping; the partial swap no longer matters
	}
	r.part = part
	r.rebalances.Add(1)
}
