// Sharded LR-cache: the same LR-cache semantics split across 2^k
// independent shards selected by the low address bits, each shard padded
// to its own cache line. A single Cache is single-owner by design, but
// its hot fields (clock, stats, set arrays) still share lines with
// whatever the allocator placed next to them; sharding gives the batch
// data plane a layout where consecutive addresses in a burst touch
// disjoint lines, and leaves the door open to per-shard ownership later
// without changing the router's call sites — which is why the router
// programs against Store, not *Cache.
package cache

import (
	"fmt"

	"spal/internal/ip"
	"spal/internal/metrics"
	"spal/internal/rtable"
)

// Store is the cache surface the router's line cards program against:
// everything a Cache does that the data plane and the metrics collector
// need. Both Cache and Sharded implement it.
type Store interface {
	Probe(a ip.Addr) ProbeResult
	Reserve(a ip.Addr, origin Origin) bool
	Fill(a ip.Addr, nh rtable.NextHop, origin Origin) []int64
	Flush() []int64
	InvalidateRange(lo, hi ip.Addr) int
	InvalidateRanges(rs []rtable.Range) int
	AuditEntries(visit func(a ip.Addr, nh rtable.NextHop) bool) int
	Stats() Stats
	Occupancy() (loc, rem, waiting int)
	MetricsInto(sn *metrics.Snapshot, labels ...metrics.Label)
}

var (
	_ Store = (*Cache)(nil)
	_ Store = (*Sharded)(nil)
)

// shard embeds its Cache by value and pads it out so two shards never
// share a cache line (the Cache struct itself is larger than a line; the
// pad guards its tail fields against the next shard's head).
type shard struct {
	c Cache
	_ [64]byte
}

// Sharded is a Store of 2^k shards. The shard index is the address's low
// k bits and the inner caches see the address right-shifted by k, so
// every inner set index still draws from low (post-shift) bits and no
// capacity is wasted: the (shard, shifted-address) mapping is injective.
type Sharded struct {
	shards    []shard
	shardBits uint
}

// NewSharded builds a cache of n shards over the given total
// organization: cfg.Blocks is divided evenly among the shards (each
// shard also gets its own cfg.VictimBlocks victim cache). n must be a
// power of two >= 2, and the per-shard geometry must stay valid
// (Blocks/n divisible by Assoc with a power-of-two set count) — New
// panics otherwise, exactly like Cache's constructor. NewShardedErr is
// the error-returning path (used by router.WithCacheShards) so an
// operator-supplied shard count reports a diagnosis instead of crashing.
func NewSharded(cfg Config, n int) *Sharded {
	s, err := NewShardedErr(cfg, n)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// NewShardedErr validates the shard count and the per-shard geometry and
// builds the sharded store, reporting any mis-sizing as an error.
func NewShardedErr(cfg Config, n int) (*Sharded, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("cache: shards=%d not a power of two >= 2", n)
	}
	if cfg.Blocks%n != 0 {
		return nil, fmt.Errorf("cache: blocks=%d not divisible by shards=%d", cfg.Blocks, n)
	}
	s := &Sharded{shards: make([]shard, n)}
	for n > 1 {
		s.shardBits++
		n >>= 1
	}
	per := cfg
	per.Blocks = cfg.Blocks / len(s.shards)
	for i := range s.shards {
		per.Seed = cfg.Seed + uint64(i)*0x9e3779b9
		c, err := NewErr(per)
		if err != nil {
			return nil, fmt.Errorf("%v (per-shard geometry, %d shards over %d blocks)", err, len(s.shards), cfg.Blocks)
		}
		s.shards[i].c = *c
	}
	return s, nil
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

func (s *Sharded) at(a ip.Addr) (*Cache, ip.Addr) {
	return &s.shards[a&(uint32(len(s.shards))-1)].c, a >> s.shardBits
}

// Probe implements Store.
func (s *Sharded) Probe(a ip.Addr) ProbeResult {
	c, sa := s.at(a)
	return c.Probe(sa)
}

// Reserve implements Store.
func (s *Sharded) Reserve(a ip.Addr, origin Origin) bool {
	c, sa := s.at(a)
	return c.Reserve(sa, origin)
}

// RecordMiss is Reserve plus a waiting list, as on Cache; like there it is
// not part of Store.
func (s *Sharded) RecordMiss(a ip.Addr, origin Origin, waiter int64) bool {
	c, sa := s.at(a)
	return c.RecordMiss(sa, origin, waiter)
}

// Fill implements Store.
func (s *Sharded) Fill(a ip.Addr, nh rtable.NextHop, origin Origin) []int64 {
	c, sa := s.at(a)
	return c.Fill(sa, nh, origin)
}

// Flush invalidates every shard and concatenates their orphaned waiters.
func (s *Sharded) Flush() []int64 {
	var orphans []int64
	for i := range s.shards {
		orphans = append(orphans, s.shards[i].c.Flush()...)
	}
	return orphans
}

// InvalidateRange drops complete entries for [lo, hi] in every shard.
func (s *Sharded) InvalidateRange(lo, hi ip.Addr) int {
	return s.InvalidateRanges([]rtable.Range{{Lo: lo, Hi: hi}})
}

// InvalidateRanges drops complete entries for every range of rs, each shard
// scanned once. Addresses are stored right-shifted by shardBits, so a shard
// compares against the shifted bounds [lo>>k, hi>>k]; the boundary blocks
// that shift into a range from a non-matching shard cost at most one extra
// eviction per end per shard, which is safe (invalidation is always
// conservative) and negligible against a whole-cache flush.
func (s *Sharded) InvalidateRanges(rs []rtable.Range) int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].c.invalidate(rs, s.shardBits)
	}
	return n
}

// AuditEntries visits every shard's complete entries, reconstructing the
// original address from the shard index and the shifted tag (the
// (shard, shifted-address) mapping is injective, so the reconstruction is
// exact). Returns the number of entries the visitor evicted.
func (s *Sharded) AuditEntries(visit func(a ip.Addr, nh rtable.NextHop) bool) int {
	n := 0
	for i := range s.shards {
		idx := ip.Addr(i)
		n += s.shards[i].c.AuditEntries(func(sa ip.Addr, nh rtable.NextHop) bool {
			return visit(sa<<s.shardBits|idx, nh)
		})
	}
	return n
}

// Stats sums the per-shard counters (MaxWaitList takes the maximum).
func (s *Sharded) Stats() Stats {
	var sum Stats
	for i := range s.shards {
		st := s.shards[i].c.Stats()
		sum.Probes += st.Probes
		sum.Hits += st.Hits
		sum.HitWaitings += st.HitWaitings
		sum.HitVictims += st.HitVictims
		sum.Misses += st.Misses
		sum.Recorded += st.Recorded
		sum.Bypasses += st.Bypasses
		sum.Evictions += st.Evictions
		sum.Fills += st.Fills
		sum.Flushes += st.Flushes
		sum.RangeInvalidations += st.RangeInvalidations
		sum.Invalidated += st.Invalidated
		sum.Parked += st.Parked
		if st.MaxWaitList > sum.MaxWaitList {
			sum.MaxWaitList = st.MaxWaitList
		}
	}
	return sum
}

// Occupancy sums the per-shard class occupancy.
func (s *Sharded) Occupancy() (loc, rem, waiting int) {
	for i := range s.shards {
		l, r, w := s.shards[i].c.Occupancy()
		loc, rem, waiting = loc+l, rem+r, waiting+w
	}
	return loc, rem, waiting
}

// MetricsInto publishes the aggregate under the same metric names a
// single Cache uses, so dashboards are shard-count agnostic.
func (s *Sharded) MetricsInto(sn *metrics.Snapshot, labels ...metrics.Label) {
	loc, rem, waiting := s.Occupancy()
	metricsInto(sn, s.Stats(), loc, rem, waiting, labels...)
}
