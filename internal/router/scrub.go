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
//     selected by a rotating cursor; for each, the authoritative verdict
//     at the prefix's first address is computed from the LC's canonical
//     partition table (rtable.LongestMatch — binary search, no trie
//     build) and compared against the LC's live engine under its
//     lock. P partition prefixes are therefore fully re-verified
//     every ceil(P/K) cycles, which bounds detection latency for any
//     range-poisoning corruption of a table prefix.
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
// levels it). That includes an LC pinned behind the generation fence, and an
// ejected one (gray.go), which nothing fences.
//
// Self-healing: engine mismatches accumulate per LC since its last
// rebuild; crossing QuarantineThreshold quarantines the LC. Quarantine
// reuses the machinery this repo already trusts instead of inventing a
// parallel path:
//
//   - Uncacheable replies, via the generation fence (fenceLocked in
//     updates.go): every reply the quarantined LC sends is delivered to
//     the lookups parked on it but kept out of every peer cache.
//
//   - Rebuild, via the crash-safe two-phase swap (router.go): phase 1
//     installs a freshly built engine from the canonical partition table
//     plus the current homeOf and generation; phase 2 rekeys — epoch
//     bump, cache flush, parked-lookup replay — so no lookup is lost
//     and no pre-rebuild reply can fill the fresh cache. Only the
//     quarantined LC pays a flush; every other cache keeps serving.
//
// A full partitioning swap (UpdateTable, re-home, drain/restore,
// rebalance) rebuilds every engine from the canonical table, so it is
// also an integrity repair: swapPartitioning clears quarantines and
// mismatch streaks when it succeeds.
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

// ScrubPolicy configures the online integrity scrubber. The zero value
// disables it; a disabled scrubber costs nothing anywhere (no wrapper, no
// ticker work, no extra metrics).
type ScrubPolicy struct {
	// Enabled turns the scrubber on.
	Enabled bool
	// Interval is the minimum time between scrub cycles. The scrubber
	// rides the health ticker, so the effective cadence is
	// max(Interval, timeout/4). <= 0 selects the default (4 ticks).
	Interval time.Duration
	// SamplesPerLC is K: how many partition prefixes are re-verified
	// against the canonical table per LC per cycle (rotating cursor, so
	// a table of P prefixes is fully swept every ceil(P/K) cycles).
	// <= 0 selects the default (32).
	SamplesPerLC int
	// QuarantineThreshold is the number of engine mismatches accumulated
	// since the LC's last rebuild that trigger quarantine. <= 0 selects
	// the default (1: any confirmed engine mismatch quarantines).
	QuarantineThreshold int
	// AutoRepair rebuilds a quarantined LC immediately (fresh engine from
	// the canonical table, two-phase swap, parked-lookup replay). False
	// leaves the LC quarantined — still serving, its replies fenced out
	// of peer caches by the generation guard — until RestoreLC or the
	// next full swap repairs it.
	AutoRepair bool
}

// DefaultScrubPolicy enables scrubbing with the default cadence,
// sampling width, single-mismatch quarantine, and automatic repair.
func DefaultScrubPolicy() ScrubPolicy {
	return ScrubPolicy{Enabled: true, AutoRepair: true}
}

func normalizeScrub(p ScrubPolicy, tick time.Duration) ScrubPolicy {
	if !p.Enabled {
		return p
	}
	if p.Interval <= 0 {
		p.Interval = 4 * tick
	}
	if p.SamplesPerLC <= 0 {
		p.SamplesPerLC = 32
	}
	if p.QuarantineThreshold <= 0 {
		p.QuarantineThreshold = 1
	}
	return p
}

// lcScrub is one LC's integrity bookkeeping. The counters are atomic
// (written by the LC inside the scrub closure, read by
// Metrics/Integrity from anywhere); cursor is monitor-only under r.mu.
type lcScrub struct {
	cursor       int // next partition-prefix index the engine sweep samples
	samples      atomic.Int64
	engineMism   atomic.Int64
	cacheMism    atomic.Int64
	cacheRepairs atomic.Int64
	// streak counts engine mismatches since the last rebuild; crossing
	// the policy threshold quarantines the LC, a rebuild or full swap
	// resets it.
	streak atomic.Int64
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

// maybeScrubLocked is the health ticker's scrub hook: one cycle samples K
// prefixes per serving LC against the canonical table, audits every
// LR-cache entry against the full-table authority, and quarantines (and,
// under AutoRepair, rebuilds) any LC whose mismatch streak crossed the
// threshold. The monitor runs every LC's verification itself, under that
// LC's lock (install), so quarantine decisions see this cycle's counters.
// r.mu must be held.
func (r *Router) maybeScrubLocked(now time.Time) {
	if !r.scrubPol.Enabled || now.Sub(r.lastScrub) < r.scrubPol.Interval {
		return
	}
	r.lastScrub = now
	r.scrubCycles.Add(1)
	auth := r.scrubAuthorityLocked(r.gen)
	for i := range r.lcs {
		st := r.life[i].state.Load()
		tbl := r.part.Table(i)
		n := tbl.Len()
		if st == LCDown || st == LCDraining || st == LCQuarantined || n == 0 {
			continue
		}
		k := min(r.scrubPol.SamplesPerLC, n)
		s := r.scrub[i]
		start := s.cursor
		s.cursor = (s.cursor + k) % n
		// The sample set: each selected prefix's first address, with the
		// authoritative verdict precomputed here, before the LC is owned,
		// from the canonical partition snapshot (allocation is fine — this
		// is the cold monitor path, never a data path).
		addrs := make([]ip.Addr, k)
		want := make([]rtable.NextHop, k)
		routes := tbl.Routes()
		for j := 0; j < k; j++ {
			a := routes[(start+j)%n].Prefix.FirstAddr()
			addrs[j] = a
			nh := rtable.NoNextHop
			if rt, ok := tbl.LongestMatch(a); ok {
				nh = rt.NextHop
			}
			want[j] = nh
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
				s.streak.Add(int64(mism))
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
	thr := int64(r.scrubPol.QuarantineThreshold)
	for i := range r.lcs {
		if st := r.life[i].state.Load(); st != LCHealthy && st != LCSuspect {
			continue
		}
		if r.scrub[i].streak.Load() < thr {
			continue
		}
		r.quarantineLocked(i)
		if r.scrubPol.AutoRepair {
			r.rebuildLocked(i)
		}
	}
}

// quarantineLocked flags LC i as integrity-compromised and fences its
// replies out of every peer cache until it is rebuilt (see fenceLocked).
// r.mu must be held.
func (r *Router) quarantineLocked(i int) {
	r.life[i].state.Store(LCQuarantined)
	r.quarantines.Add(1)
	r.scrubLog("quarantine", slog.Int("lc", i), slog.Int64("engine_mismatches", r.scrub[i].streak.Load()))
	r.fenceLocked()
}

// genPinned reports whether LC id is quarantined, and so fenced behind the
// router's generation: its replies leave stamped with generation zero (see
// stampGen), which is exactly how peers keep them out of their caches, and
// they are final — the fence will not lift by re-driving (see
// fillStaleRelease).
func (r *Router) genPinned(id int) bool {
	return r.life[id].state.Load() == LCQuarantined
}

// rebuildLocked restores a quarantined LC: phase 1 installs a freshly
// built engine from the canonical partition table (with the current
// homeOf and generation), exactly as UpdateTable's does; phase 2 rekeys —
// epoch bump, cache flush, parked-lookup replay — so no lookup is lost and
// no pre-rebuild reply can fill the fresh cache. Only this LC pays the
// flush. r.mu must be held.
func (r *Router) rebuildLocked(i int) {
	engine := r.buildEngine(r.part.Table(i))
	// A dead slot ends the rebuild: rehomeLocked rebuilds it from scratch,
	// an even stronger repair.
	if !r.install(i, func(lc *lineCard) { lc.installTable(engine, r.part.HomeLC, r.gen) }) ||
		!r.install(i, r.rekey) {
		return
	}
	r.scrub[i].streak.Store(0)
	if r.life[i].state.Load() == LCQuarantined {
		r.life[i].state.Store(LCHealthy)
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
	for i, s := range r.scrub {
		li := LCIntegrity{
			LC:               i,
			State:            r.life[i].state.Load(),
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
