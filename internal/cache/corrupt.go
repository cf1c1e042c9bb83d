// Corruption injection for the LR-cache: on a seeded deterministic
// schedule, a fill is stamped with a wrong next hop or a range invalidation
// silently dropped — the two cache-side failures the integrity scrubber
// must catch (a wrong resident value, and a stale one a route update
// should have evicted).
package cache

import (
	"sync/atomic"

	"spal/internal/rtable"
)

// FaultHook is the cache's one seam, for faults: a cache with a hook asks
// it for the value Fill is about to store and for the ranges
// InvalidateRanges is about to scan for. Probes, reservations, flushes and
// audits see the cache as it is, or the scrubber could never find what a
// fault left behind.
type FaultHook interface {
	// FillValue returns the next hop to store in place of nh.
	FillValue(nh rtable.NextHop) rtable.NextHop
	// KeepRanges returns the ranges of rs still to invalidate, in order —
	// rs itself when none is dropped. It must not retain rs.
	KeepRanges(rs []rtable.Range) []rtable.Range
}

// SetFaultHook installs h on c; nil removes it.
func (c *Cache) SetFaultHook(h FaultHook) { c.hook = h }

// CorruptConfig parameterizes a CorruptStore. Rates are per-call
// probabilities in [0, 1]; the same seed always produces the same
// corruption schedule for the same call sequence.
type CorruptConfig struct {
	Seed uint64
	// WrongFillRate corrupts Fill values: the stored next hop is the true
	// value XOR 1 (always different, never NoNextHop for small next hops).
	WrongFillRate float64
	// DropInvalidateRate silently drops invalidations, drawn per range.
	DropInvalidateRate float64
	// MaxEvents caps the corruptions injected per kind (wrong fills and
	// dropped invalidations each get the full cap); 0 means unlimited. A
	// finite cap lets tests assert that the system reaches a
	// corruption-free steady state after the last repair.
	MaxEvents int64
}

// corruptSite is one injection kind's schedule: its own draw counter and
// its own event count, so whether (and when) a kind fires depends only on
// the seed and on how often that kind's call site ran — never on how the
// caller interleaved the other kind's calls.
type corruptSite struct {
	seed   uint64        // derived from CorruptConfig.Seed, distinct per kind
	n      atomic.Uint64 // draw counter (schedule position)
	events atomic.Int64  // corruptions injected so far
}

// CorruptStore is the FaultHook that corrupts what one cache stores, on a
// seeded schedule. Its counters are atomics because scrapes read them
// without holding the cache.
type CorruptStore struct {
	cfg CorruptConfig

	fills, invalidates corruptSite
}

// NewCorrupt builds the hook for the given corruption schedule.
func NewCorrupt(cfg CorruptConfig) *CorruptStore {
	return &CorruptStore{
		cfg:         cfg,
		fills:       corruptSite{seed: cfg.Seed},
		invalidates: corruptSite{seed: splitmix64(cfg.Seed)},
	}
}

// splitmix64 is the standard SplitMix64 finalizer; one step turns a
// counter into a well-mixed 64-bit value (same generator as the router's
// fault injector, duplicated here to keep the dependency arrow pointing
// from router to cache).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw advances one kind's schedule and reports whether an event with the
// given rate fires, respecting that kind's MaxEvents cap.
func (s *CorruptStore) draw(site *corruptSite, rate float64) bool {
	if rate <= 0 {
		return false
	}
	h := splitmix64(site.seed ^ site.n.Add(1))
	if float64(h&0x1f_ffff)/float64(1<<21) >= rate {
		return false
	}
	if n := site.events.Add(1); s.cfg.MaxEvents > 0 && n > s.cfg.MaxEvents {
		site.events.Add(-1)
		return false
	}
	return true
}

// WrongFills returns the number of fills stamped with a corrupted value.
func (s *CorruptStore) WrongFills() int64 { return s.fills.events.Load() }

// DroppedInvalidations returns the number of ranges dropped.
func (s *CorruptStore) DroppedInvalidations() int64 { return s.invalidates.events.Load() }

// Events returns the total corruptions injected.
func (s *CorruptStore) Events() int64 { return s.WrongFills() + s.DroppedInvalidations() }

// Exhausted reports whether every enabled kind (rate > 0) has spent its
// MaxEvents cap (always false for an uncapped store).
func (s *CorruptStore) Exhausted() bool {
	return s.cfg.MaxEvents > 0 &&
		(s.cfg.WrongFillRate <= 0 || s.WrongFills() >= s.cfg.MaxEvents) &&
		(s.cfg.DropInvalidateRate <= 0 || s.DroppedInvalidations() >= s.cfg.MaxEvents)
}

// FillValue implements FaultHook: one draw per Fill, a firing one stamping
// the block with a wrong next hop. Waiters still receive the correct value
// from the reply path — the corruption poisons only what later probes will
// hit, which is exactly the silent-wrong-verdict failure the scrubber
// exists for.
func (s *CorruptStore) FillValue(nh rtable.NextHop) rtable.NextHop {
	if s.draw(&s.fills, s.cfg.WrongFillRate) {
		nh ^= 1
	}
	return nh
}

// KeepRanges implements FaultHook: one draw per range in list order, a
// firing one dropping the range so a stale entry survives a route update.
// A fill-only schedule hands rs back and pays nothing here.
func (s *CorruptStore) KeepRanges(rs []rtable.Range) []rtable.Range {
	if s.cfg.DropInvalidateRate <= 0 {
		return rs
	}
	kept := make([]rtable.Range, 0, len(rs))
	for _, rg := range rs {
		if !s.draw(&s.invalidates, s.cfg.DropInvalidateRate) {
			kept = append(kept, rg)
		}
	}
	return kept
}
