// Corruption injection for the data-plane state itself. Where fault.go
// models a lossy fabric (messages that never arrive), this file models
// damaged state: a trie node whose verdict flipped, a cache fill stamped
// with the wrong next hop, a route-update invalidation that never ran.
// None of these failures are visible to the deadline/retry machinery —
// the lookup completes promptly, with a wrong answer — which is exactly
// why the integrity scrubber (scrub.go) exists. The injector is seeded
// and deterministic in the same style as SeededFaults, and capped, so
// chaos tests can assert the system returns to a corruption-free steady
// state after the last repair.
//
// Engine flips are driven from the health ticker rather than from the
// lookup path: each tick, each LC draws against EngineFlipRate; a firing
// draw picks one prefix of that LC's current partition (the first it holds
// from a drawn full-table position on), computes the authoritative verdict
// at the prefix's first address from the canonical table, and poisons the
// prefix's whole address range in the LC's live engine with that verdict
// XOR 1 (see lpm.Corrupt). Poisoning table-derived ranges is what makes
// the scrubber's detection bound provable: the scrub cursor sweeps
// exactly those prefixes' first addresses, so an injected flip is
// re-sampled within ceil(P/K) cycles.
package router

import (
	"spal/internal/cache"
	"spal/internal/lpm"
	"spal/internal/rtable"
)

// CorruptionPolicy configures the state-corruption injector. The zero
// value disables it: no engine is wrapped and no cache gets a hook, so the
// production path pays one nil test in Fill and one in InvalidateRanges.
type CorruptionPolicy struct {
	// Enabled turns the injector on.
	Enabled bool
	// Seed drives every injection draw; the same seed always produces the
	// same corruption schedule for the same draw sequence.
	Seed uint64
	// EngineFlipRate is the per-LC, per-health-tick probability of
	// poisoning one randomly chosen prefix range in that LC's live engine
	// with a wrong next hop — the software model of a flipped trie node.
	EngineFlipRate float64
	// WrongFillRate is the per-call probability that an LR-cache fill is
	// stamped with the true next hop XOR 1 (see cache.CorruptStore).
	WrongFillRate float64
	// DropInvalidateRate is the per-range probability that an LR-cache
	// invalidation is silently swallowed, leaving stale entries behind a
	// route update.
	DropInvalidateRate float64
	// MaxCorruptions caps injections per site: the engine flipper as a
	// whole, and each kind (wrong fills, dropped invalidations) of each
	// LC's cache independently. 0 means unlimited.
	// A finite cap lets tests wait for CorruptionExhausted and then
	// assert zero wrong verdicts after the final repair.
	MaxCorruptions int64
}

// buildEngine constructs an LC's forwarding engine from a partition
// table, wrapping it in the corruption overlay when engine-flip injection
// is enabled. Every engine an LC ever holds funnels through here —
// construction, two-phase swap, crash re-home, scrub rebuild, and
// the non-dynamic ApplyUpdates rebuild — so injected damage stays
// coverable (and a rebuild, which constructs a fresh overlay, implicitly
// clears it, exactly like replacing a damaged SRAM bank).
func (r *Router) buildEngine(tbl *rtable.Table) lpm.Engine {
	e := r.cfg.Engine(tbl)
	if r.corruptPol.Enabled && r.corruptPol.EngineFlipRate > 0 {
		e = lpm.NewCorrupt(e)
	}
	return e
}

// corruptCache installs the fill/invalidate corruption hook on LC i's
// cache when the policy asks for it. Construction-time only: caches survive
// crashes and rebuilds (they are flushed, never replaced), so the set of
// corrupt stores is fixed for the router's lifetime.
func (r *Router) corruptCache(i int, c *cache.Cache) {
	p := r.corruptPol
	if !p.Enabled || (p.WrongFillRate <= 0 && p.DropInvalidateRate <= 0) {
		return
	}
	cs := cache.NewCorrupt(cache.CorruptConfig{
		Seed:               splitmix64(p.Seed + uint64(i)),
		WrongFillRate:      p.WrongFillRate,
		DropInvalidateRate: p.DropInvalidateRate,
		MaxEvents:          p.MaxCorruptions,
	})
	r.corruptStores = append(r.corruptStores, cs)
	c.SetFaultHook(cs)
}

// maybeInjectLocked is the health ticker's engine-flip hook: one draw per
// serving LC per tick; a firing draw poisons one partition prefix in that
// LC's live engine with the wrong verdict. The poison is applied under
// lineCard.mu like any handler's work (see install), so the flip counter
// is exact. r.mu must be held.
func (r *Router) maybeInjectLocked() {
	p := r.corruptPol
	if !p.Enabled || p.EngineFlipRate <= 0 {
		return
	}
	for i := range r.lcs {
		if st := r.health[i].state.Load(); st == LCDown || st == LCDraining {
			continue
		}
		if p.MaxCorruptions > 0 && r.engineFlips.Load() >= p.MaxCorruptions {
			return
		}
		h := splitmix64(p.Seed ^ r.corruptN.Add(1))
		if float64(h&0x1f_ffff)/float64(1<<21) >= p.EngineFlipRate {
			continue
		}
		if r.part.Stats().Sizes[i] == 0 {
			continue
		}
		full := r.part.Full().Routes()
		j := int(splitmix64(h) % uint64(len(full)))
		for !r.part.Holds(i, full[j].Prefix) {
			j = (j + 1) % len(full)
		}
		pfx := full[j].Prefix
		lo, hi := pfx.FirstAddr(), pfx.LastAddr()
		// The poison verdict is the authoritative answer at lo, flipped —
		// guaranteed wrong at lo, which is exactly the address the scrub
		// cursor will re-sample.
		nh := rtable.NextHop(1)
		if rt, ok := r.part.Match(i, lo); ok {
			nh = rt.NextHop ^ 1
		}
		// A dead slot is skipped; reborn, it gets a fresh engine anyway.
		r.install(i, func(lc *lineCard) {
			if c := lpm.AsCorrupt(lc.engine); c != nil {
				c.Poison(lo, hi, nh)
				r.engineFlips.Add(1)
			}
		})
	}
}

// CorruptionExhausted reports whether every injection site has reached
// its MaxCorruptions cap — the point after which no new corruption can
// appear and the scrubber's repairs converge to a clean steady state.
// Always false for an uncapped or disabled policy.
func (r *Router) CorruptionExhausted() bool {
	p := r.corruptPol
	if !p.Enabled || p.MaxCorruptions <= 0 {
		return false
	}
	if p.EngineFlipRate > 0 && r.engineFlips.Load() < p.MaxCorruptions {
		return false
	}
	for _, cs := range r.corruptStores {
		if !cs.Exhausted() {
			return false
		}
	}
	return true
}
