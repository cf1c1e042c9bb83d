// Online integrity scrubbing and self-healing rebuild.
//
// The failure model here is silent state corruption (see corrupt.go): a
// forwarding engine or LR-cache entry that answers promptly but wrongly.
// No deadline fires, no retry triggers — the only way to notice is to
// recompute verdicts from the canonical routing table and compare. The
// scrubber does exactly that, riding the health ticker the lifecycle
// monitor already owns:
//
//   - Engine sweep: per cycle, per serving LC, K partition prefixes are
//     selected by a rotating cursor over the full table; for each, the
//     authoritative verdict at the prefix's first address is what the
//     LC's partition answers there (partition.Match — binary searches of
//     the full table, no partition or trie built) and is compared against
//     the LC's live engine under its lock. P partition prefixes are
//     therefore fully re-verified every ceil(P/K) cycles, which bounds
//     detection latency for any range-poisoning corruption of a table
//     prefix.
//
//   - Cache audit: the same ownership walks every complete entry
//     in the LC's LR-cache (cache.AuditEntries) and compares it against
//     a router-wide full-table authority engine cached per generation.
//     Mismatched entries are evicted on the spot — a wrong or stale
//     cache line needs no rebuild, just removal — and counted.
//
// Both comparisons are generation-exact: the monitor runs them holding
// r.mu, under which every live LC's engine reflects r.gen and r.part (an
// install skips only a dead slot, and so does the scrubber; its adoption
// levels it). That includes an ejected LC (gray.go), which nothing fences.
//
// Self-healing: an engine mismatch is repaired in the cycle that finds it,
// with the machinery this repo already trusts instead of a parallel path
// (the Quarantines counter counts these detections):
//
//   - Replacement, on the spot: still under the LC's lock, the damaged engine
//     gives way to the cache audit's full-table authority. An address
//     reaches an LC's engine only when the LC is its home, and the LC's
//     ROT-partition holds every prefix that can match such an address, so
//     the authority answers exactly as the rebuilt engine will.
//
//   - The generation fence (fenceLocked in updates.go), a pure bump: replies
//     the damaged engine computed and sent before the replacement arrive
//     stale everywhere — delivered to the lookups parked on them, never
//     cached.
//
//   - Rebuild, via the crash-safe two-phase swap (router.go): phase 1
//     installs a freshly built engine from the canonical partition table
//     plus the current homeOf and generation; phase 2 rekeys — epoch
//     bump, cache flush, parked-lookup replay — so no lookup is lost
//     and no pre-rebuild reply can fill the fresh cache. Only the
//     repaired LC pays a flush; every other cache keeps serving.
//
// A full partitioning swap (UpdateTable, re-home, drain/restore,
// rebalance) rebuilds every engine from the canonical table, so it is
// also an integrity repair.
package router

import (
	"context"
	"log/slog"
	"sync/atomic"
	"time"

	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/rtable"
)

// Scrub settings: each cycle re-verifies scrubSamples partition prefixes
// per LC against the canonical table (a rotating cursor, so a table of P
// prefixes is fully swept every ceil(P/scrubSamples) cycles). The
// scrubber rides the health ticker, so a cycle runs at most every
// max(interval, tick); an interval <= 0 selects scrubTicks ticks. Off (the
// default), the scrubber costs nothing anywhere: no ticker work, no extra
// metrics.
const (
	scrubSamples = 32
	scrubTicks   = 4
)

// lcScrub is one LC's integrity bookkeeping, part of its lcHealth. The
// counters are atomic (written by the LC inside the scrub closure, read by
// Metrics/Integrity from anywhere); cursor is monitor-only under r.mu.
type lcScrub struct {
	cursor       int // full-table index the engine sweep samples from next
	samples      atomic.Int64
	engineMism   atomic.Int64
	cacheMism    atomic.Int64
	cacheRepairs atomic.Int64
}

// scrubAuthorityLocked returns the full-table authority engine the cache
// audit compares against, rebuilt lazily when updates have moved the
// table since the last cycle. r.mu must be held.
func (r *Router) scrubAuthorityLocked(gen uint64) lpm.Engine {
	if r.scrubAuth == nil || r.scrubAuthGen != gen {
		r.scrubAuth = lpm.NewReferenceEngine(r.part.Full())
		r.scrubAuthGen = gen
	}
	return r.scrubAuth
}

// maybeScrubLocked is the health ticker's scrub hook at now, a reading of
// Router.now: one cycle samples scrubSamples prefixes per serving LC against
// the canonical table, audits every LR-cache entry against the full-table
// authority, and repairs every LC whose engine disagreed: replaced by the
// authority under its lock, fenced, rebuilt. The first cycle runs at the
// monitor's first tick. r.mu must be held.
func (r *Router) maybeScrubLocked(now int64) {
	if r.scrubEvery == 0 || r.lastScrub != 0 && time.Duration(now-r.lastScrub) < r.scrubEvery {
		return
	}
	r.lastScrub = now
	r.scrubCycles.Add(1)
	auth := r.scrubAuthorityLocked(r.gen)
	full, sizes := r.part.Full().Routes(), r.part.Stats().Sizes
	var damaged []int
	for i, s := range r.health {
		st := s.state.Load()
		n := sizes[i]
		if st == LCDown || st == LCDraining || n == 0 {
			continue
		}
		// The sample set: the next k of the LC's partition prefixes from the
		// cursor on, each's first address, with the verdict the partition
		// gives there precomputed here, before the LC is owned (allocation
		// is fine — this is the cold monitor path, never a data path).
		k := min(scrubSamples, n)
		addrs := make([]ip.Addr, 0, k)
		want := make([]rtable.NextHop, 0, k)
		for j := s.cursor % len(full); len(addrs) < k; j = (j + 1) % len(full) {
			pfx := full[j].Prefix
			if !r.part.Holds(i, pfx) {
				continue
			}
			a := pfx.FirstAddr()
			nh := rtable.NoNextHop
			if rt, ok := r.part.Match(i, a); ok {
				nh = rt.NextHop
			}
			addrs, want = append(addrs, a), append(want, nh)
			s.cursor = j + 1
		}
		r.install(i, func(lc *lineCard) {
			mism := 0
			for j, a := range addrs {
				nh, _, ok := lc.engine.Lookup(a)
				if !ok {
					nh = rtable.NoNextHop
				}
				if nh != want[j] {
					mism++
				}
			}
			s.samples.Add(int64(len(addrs)))
			if mism > 0 {
				s.engineMism.Add(int64(mism))
				lc.engine = auth // answers as the rebuilt engine will, from now
				damaged = append(damaged, i)
			}
			if lc.cache != nil {
				bad := 0
				repaired := lc.cache.AuditEntries(func(a ip.Addr, nh rtable.NextHop) bool {
					wantNH, _, ok := auth.Lookup(a)
					if !ok {
						wantNH = rtable.NoNextHop
					}
					if nh == wantNH {
						return true
					}
					bad++
					return false // evict: removal is the whole repair
				})
				if bad > 0 {
					s.cacheMism.Add(int64(bad))
					s.cacheRepairs.Add(int64(repaired))
				}
			}
		})
	}
	if len(damaged) == 0 {
		return
	}
	r.fenceLocked()
	tables := r.part.Tables()
	for _, i := range damaged {
		r.quarantines.Add(1)
		r.scrubLog("quarantine", slog.Int("lc", i))
		r.rebuildLocked(i, tables[i])
	}
}

// rebuildLocked repairs LC i's engine: phase 1 installs a freshly built
// engine from tbl, LC i's canonical partition table (with the current
// homeOf and generation), exactly as UpdateTable's does; phase 2 rekeys —
// epoch bump, cache flush, parked-lookup replay — so no lookup is lost and
// no pre-rebuild reply can fill the fresh cache. Only this LC pays the
// flush. r.mu must be held.
func (r *Router) rebuildLocked(i int, tbl *rtable.Table) {
	engine := r.buildEngine(tbl)
	// A dead slot ends the rebuild: rehomeLocked rebuilds it from scratch,
	// an even stronger repair.
	if !r.install(i, func(lc *lineCard) { lc.installTable(engine, r.part.Home(), r.gen) }) ||
		!r.install(i, r.rekey) {
		return
	}
	r.rebuilds.Add(1)
	r.scrubLog("rebuild", slog.Int("lc", i))
}

// scrubLog emits a scrub lifecycle record through the tracing plane's
// structured-log sink when one is installed (WithLogger).
func (r *Router) scrubLog(event string, attrs ...slog.Attr) {
	if r.cfg.TraceLogger == nil {
		return
	}
	r.cfg.TraceLogger.LogAttrs(context.Background(), slog.LevelWarn, "spal scrub "+event, attrs...)
}

// LCIntegrity is one line card's integrity record.
type LCIntegrity struct {
	LC    int
	State LCState
	// Samples is how many engine verdicts the scrubber has re-verified.
	Samples int64
	// EngineMismatches / CacheMismatches count verdicts and cache entries
	// that disagreed with the canonical table; CacheRepairs counts the
	// mismatched entries the audit evicted.
	EngineMismatches int64
	CacheMismatches  int64
	CacheRepairs     int64
	// Score is 1 − the engine-mismatch fraction over everything sampled
	// so far: 1.0 is a fully clean record, lower means corruption was
	// observed at some point in this LC's history.
	Score float64
}

// IntegrityReport is the router-wide integrity snapshot behind the
// spal_router_scrub_* / integrity metrics.
type IntegrityReport struct {
	ScrubCycles int64
	Quarantines int64
	Rebuilds    int64
	// Injection-side counters (zero unless corruption injection is on).
	EngineFlips          int64
	WrongFills           int64
	DroppedInvalidations int64
	LCs                  []LCIntegrity
}

// Integrity returns the current integrity snapshot: scrub and repair
// counters, injected-corruption counters, and the per-LC records.
func (r *Router) Integrity() IntegrityReport {
	rep := IntegrityReport{
		ScrubCycles: r.scrubCycles.Load(),
		Quarantines: r.quarantines.Load(),
		Rebuilds:    r.rebuilds.Load(),
		EngineFlips: r.engineFlips.Load(),
	}
	for _, cs := range r.corruptStores {
		rep.WrongFills += cs.WrongFills()
		rep.DroppedInvalidations += cs.DroppedInvalidations()
	}
	for i, s := range r.health {
		li := LCIntegrity{
			LC:               i,
			State:            s.state.Load(),
			Samples:          s.samples.Load(),
			EngineMismatches: s.engineMism.Load(),
			CacheMismatches:  s.cacheMism.Load(),
			CacheRepairs:     s.cacheRepairs.Load(),
			Score:            1,
		}
		if li.Samples > 0 {
			li.Score = 1 - float64(li.EngineMismatches)/float64(li.Samples)
			if li.Score < 0 {
				li.Score = 0
			}
		}
		rep.LCs = append(rep.LCs, li)
	}
	return rep
}
