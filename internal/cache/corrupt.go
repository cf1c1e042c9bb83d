// Corruption-injection wrapper for the LR-cache: a Store that, on a
// seeded deterministic schedule, stamps a fill with a wrong next hop or
// silently drops an InvalidateRange — the two cache-side failure modes the
// integrity scrubber must catch (a wrong resident value, and a stale value
// that should have been evicted by a route update). Everything else passes
// through unchanged.
package cache

import (
	"sync/atomic"

	"spal/internal/ip"
	"spal/internal/metrics"
	"spal/internal/rtable"
)

// CorruptConfig parameterizes a CorruptStore. Rates are per-call
// probabilities in [0, 1]; the same seed always produces the same
// corruption schedule for the same call sequence.
type CorruptConfig struct {
	Seed uint64
	// WrongFillRate corrupts Fill values: the stored next hop is the true
	// value XOR 1 (always different, never NoNextHop for small next hops).
	WrongFillRate float64
	// DropInvalidateRate silently swallows InvalidateRange calls.
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

// CorruptStore wraps a Store with seeded fill/invalidate corruption.
type CorruptStore struct {
	inner Store
	cfg   CorruptConfig

	fills, invalidates corruptSite
}

// NewCorrupt wraps inner with the given corruption schedule.
func NewCorrupt(inner Store, cfg CorruptConfig) *CorruptStore {
	return &CorruptStore{
		inner:       inner,
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

// DroppedInvalidations returns the number of swallowed InvalidateRange
// calls.
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

// Inner returns the wrapped store.
func (s *CorruptStore) Inner() Store { return s.inner }

// Probe implements Store.
func (s *CorruptStore) Probe(a ip.Addr) ProbeResult { return s.inner.Probe(a) }

// Reserve implements Store.
func (s *CorruptStore) Reserve(a ip.Addr, origin Origin) bool { return s.inner.Reserve(a, origin) }

// Fill implements Store, occasionally stamping the block with a wrong
// next hop. Waiters still receive the correct value from the reply path —
// the corruption poisons only what later probes will hit, which is
// exactly the silent-wrong-verdict failure the scrubber exists for.
func (s *CorruptStore) Fill(a ip.Addr, nh rtable.NextHop, origin Origin) []int64 {
	if s.draw(&s.fills, s.cfg.WrongFillRate) {
		nh ^= 1
	}
	return s.inner.Fill(a, nh, origin)
}

// Flush implements Store.
func (s *CorruptStore) Flush() []int64 { return s.inner.Flush() }

// InvalidateRange implements Store, occasionally dropping the call so a
// stale entry survives a route update.
func (s *CorruptStore) InvalidateRange(lo, hi ip.Addr) int {
	if s.draw(&s.invalidates, s.cfg.DropInvalidateRate) {
		return 0
	}
	return s.inner.InvalidateRange(lo, hi)
}

// InvalidateRanges implements Store: one draw per range in list order, as
// a loop of InvalidateRange would take; the survivors go on in one call.
func (s *CorruptStore) InvalidateRanges(rs []rtable.Range) int {
	kept := make([]rtable.Range, 0, len(rs))
	for _, rg := range rs {
		if !s.draw(&s.invalidates, s.cfg.DropInvalidateRate) {
			kept = append(kept, rg)
		}
	}
	return s.inner.InvalidateRanges(kept)
}

// AuditEntries implements Store; audits pass through uncorrupted (the
// scrubber must see the cache as it really is).
func (s *CorruptStore) AuditEntries(visit func(a ip.Addr, nh rtable.NextHop) bool) int {
	return s.inner.AuditEntries(visit)
}

// Stats implements Store.
func (s *CorruptStore) Stats() Stats { return s.inner.Stats() }

// Occupancy implements Store.
func (s *CorruptStore) Occupancy() (loc, rem, waiting int) { return s.inner.Occupancy() }

// MetricsInto implements Store.
func (s *CorruptStore) MetricsInto(sn *metrics.Snapshot, labels ...metrics.Label) {
	s.inner.MetricsInto(sn, labels...)
}

var _ Store = (*CorruptStore)(nil)
