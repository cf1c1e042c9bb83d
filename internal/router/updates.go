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
// Incremental updates preserve the partitioning's control bits; an
// operator who wants them re-selected over the current table calls
// UpdateTable, which re-partitions and runs the two-phase swap.
package router

import (
	"errors"
	"sync"

	"spal/internal/lpm"
	"spal/internal/rtable"
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
					rebuilt[i] = r.cfg.Engine(tables[i])
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

// applyUpdates applies one update batch at its LC, under one ownership so
// that no lookup sees the new generation over the old engine: engine delta
// (the batch streamed into a dynamic engine in place, else the engine rebuilt
// for it), generation, targeted cache invalidation.
func (lc *lineCard) applyUpdates(updates []rtable.Update, ranges []rtable.Range, gen uint64, rebuilt lpm.Engine) {
	if len(updates) > 0 {
		if !lpm.ApplyInPlace(lc.engine, updates) {
			lc.engine = rebuilt
		}
		lc.stats.UpdatesApplied.Add(int64(len(updates)))
	}
	lc.gen = gen
	if lc.cache != nil {
		lc.cache.InvalidateRanges(ranges)
	}
}
