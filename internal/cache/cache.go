// Package cache implements the LR-cache of Sec. 3.2: the small on-chip
// set-associative cache each line card uses to hold lookup results
// (<IP address, next-hop>), together with its 8-block fully-associative
// victim cache.
//
// Paper-specific mechanisms:
//
//   - M bit: every entry is tagged LOC (result produced by the local FE)
//     or REM (result obtained from a remote home LC). The γ "mix value"
//     is a hard per-set allocation — γ% of each set's blocks are devoted
//     to REM results, the rest to LOC (the paper: at γ=25% "only one
//     cache block per set is for the REM results"). An insert that would
//     push its class past its share replaces within the class (base
//     policy LRU/FIFO/random picks among the candidates); a class with
//     zero quota is not cached at all.
//   - W bit ("early cache block recording"): a block is reserved the
//     moment a miss occurs, before its result exists. Packets that hit a
//     waiting block are parked on its waiting list and released when the
//     reply fills the block. Waiting blocks are never evicted; when every
//     block of a set is waiting, the requester bypasses the cache
//     (counted in Stats.Bypasses).
//   - Flush: a routing-table update invalidates every block (paper
//     assumption); pending waiters are returned to the caller so the
//     simulator can reissue them.
//
// On a general-purpose CPU an access costs the lines it touches and the
// branches it misses, so the replacement decision reads a set — one line —
// once: chooseVictim gathers in a single pass the valid blocks per class,
// the first free block and each class's oldest complete block, and decides
// from those. On cold traffic a block's class and its stamp order are coin
// flips to the branch predictor, so that pass is written as selects, not
// branches: the compiler turns each of its assignments into a conditional
// move (CMOVQ), and the loop's one jump is its own. The victim cache is a
// recency list, oldest first: every write to it makes a block its newest,
// so an eviction appends (replacing the head when full) without a scan or a
// stamp. Blocks are written in place, field by field or copied whole: a
// block assembled on the stack and then copied is a wide load of narrow
// stores, which the store buffer cannot forward.
package cache

import (
	"fmt"
	"slices"

	"spal/internal/ip"
	"spal/internal/metrics"
	"spal/internal/rtable"
	"spal/internal/stats"
)

// Origin is the M status bit: where a cached result was produced.
type Origin uint8

// M bit values.
const (
	LOC Origin = iota // produced by the local forwarding engine
	REM               // produced by a remote home LC
)

// String renders the M bit for reports.
func (o Origin) String() string {
	if o == LOC {
		return "LOC"
	}
	return "REM"
}

// Policy is the base replacement policy applied among eviction candidates.
type Policy uint8

// Replacement policies.
const (
	LRU Policy = iota
	FIFO
	Random
)

// Config specifies an LR-cache organization.
type Config struct {
	// Blocks is β, the total number of blocks (paper range: 1K..8K).
	Blocks int
	// Assoc is the set associativity (paper: 4).
	Assoc int
	// VictimBlocks is the fully-associative victim cache size (paper: 8).
	// Zero disables the victim cache.
	VictimBlocks int
	// MixPercent is γ: the share of each set's blocks devoted to REM
	// results, with the remainder devoted to LOC (paper sweeps
	// 0/25/50/75%; 50% is typically best, 25% for β = 1K). 0 disables
	// REM caching entirely; 100 disables LOC caching.
	MixPercent int
	// Policy is the base replacement policy (paper uses LRU).
	Policy Policy
	// Seed drives the Random policy.
	Seed uint64
}

// DefaultConfig returns the paper's standard organization: 4K blocks,
// 4-way, 8 victim blocks, γ = 50%, LRU.
func DefaultConfig() Config {
	return Config{Blocks: 4096, Assoc: 4, VictimBlocks: 8, MixPercent: 50, Policy: LRU}
}

// Block states.
const (
	invalid uint8 = iota
	complete
	waiting // W bit set: reserved, result in flight
)

// entry is one block: 16 bytes, so the paper's 4-way set is one 64-byte
// cache line.
type entry struct {
	stamp   uint64 // LRU: touch time; FIFO: fill time
	addr    ip.Addr
	nextHop rtable.NextHop
	state   uint8
	origin  Origin
}

// ProbeKind classifies a Probe outcome.
type ProbeKind uint8

// Probe outcomes.
const (
	Miss       ProbeKind = iota
	Hit                  // complete entry, result available
	HitWaiting           // W=1 entry: caller must park the packet via AddWaiter
	HitVictim            // complete entry found in the victim cache (promoted)
)

// ProbeResult is a Probe outcome plus the result when Kind is Hit or
// HitVictim.
type ProbeResult struct {
	Kind    ProbeKind
	NextHop rtable.NextHop
	Origin  Origin
}

// Stats counts cache events since construction (or the last ResetStats).
type Stats struct {
	Probes, Hits, HitWaitings, HitVictims, Misses int64
	Recorded, Bypasses, Evictions, Fills          int64
	Flushes                                       int64
	// Targeted invalidation: ranges invalidated (one per InvalidateRange
	// call, one per range of an InvalidateRanges list) and the complete
	// entries they dropped (waiting blocks are never invalidated).
	RangeInvalidations, Invalidated int64
	// Waiting-list pressure: packets parked on W blocks, and the largest
	// list one block ever accumulated (coalescing depth).
	Parked, MaxWaitList int64
}

// Cache is one LR-cache instance. It is not safe for concurrent use: it
// has one owner at a time, who alone calls its methods — the cycle
// simulator's goroutine, or in the concurrent router whoever holds the
// line card's lock — mirroring the single cache port of Fig. 2.
type Cache struct {
	cfg     Config
	blocks  []entry // set s is blocks[s*Assoc : (s+1)*Assoc]
	setMask int
	quota   [2]int // blocks of a set devoted to each class, by Origin: γ's share to REM, the rest to LOC
	// wait[i] is the list of packets parked on waiting block i, allocated
	// by the first RecordMiss or AddWaiter (a caller that only Reserves
	// never pays for it). Keeping the lists out of line is sound because a
	// waiting block never moves: chooseVictim — and so promote, reserve and
	// Fill's insert — invalidate and AuditEntries all skip W blocks.
	wait   [][]int64
	victim []entry // recency list, least recently written first; cap is VictimBlocks
	clock  uint64
	rng    *stats.RNG
	stat   Stats
}

// New validates cfg and builds an empty cache. Blocks/Assoc must give a
// power-of-two number of sets so the set index is a bit mask of the
// address, as in hardware. New panics on bad geometry; NewErr is the
// error-returning path for operator-supplied configurations.
func New(cfg Config) *Cache {
	c, err := NewErr(cfg)
	if err != nil {
		panic(err.Error())
	}
	return c
}

// NewErr validates cfg and builds an empty cache, reporting bad geometry
// as an error instead of panicking.
func NewErr(cfg Config) (*Cache, error) {
	if cfg.Assoc < 1 || cfg.Blocks < cfg.Assoc || cfg.Blocks%cfg.Assoc != 0 {
		return nil, fmt.Errorf("cache: bad geometry blocks=%d assoc=%d", cfg.Blocks, cfg.Assoc)
	}
	numSets := cfg.Blocks / cfg.Assoc
	if numSets&(numSets-1) != 0 {
		return nil, fmt.Errorf("cache: sets=%d not a power of two", numSets)
	}
	if cfg.MixPercent < 0 || cfg.MixPercent > 100 {
		return nil, fmt.Errorf("cache: MixPercent %d out of range [0,100]", cfg.MixPercent)
	}
	if cfg.VictimBlocks < 0 {
		return nil, fmt.Errorf("cache: VictimBlocks %d is negative", cfg.VictimBlocks)
	}
	rem := cfg.Assoc * cfg.MixPercent / 100
	return &Cache{
		cfg:     cfg,
		blocks:  make([]entry, cfg.Blocks),
		setMask: numSets - 1,
		quota:   [2]int{LOC: cfg.Assoc - rem, REM: rem},
		victim:  make([]entry, 0, cfg.VictimBlocks),
		rng:     stats.NewRNG(cfg.Seed ^ 0xcafe),
	}, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// setOf returns a's set and the index of its first block.
func (c *Cache) setOf(a ip.Addr) ([]entry, int) {
	base := (int(a) & c.setMask) * c.cfg.Assoc
	return c.blocks[base : base+c.cfg.Assoc], base
}

func (c *Cache) tick() uint64 {
	c.clock++
	return c.clock
}

// Probe looks an address up in the set and the victim cache (one combined
// access per Fig. 2). A victim hit promotes the block back into its set.
func (c *Cache) Probe(a ip.Addr) ProbeResult {
	c.stat.Probes++
	set, _ := c.setOf(a)
	for i := range set {
		e := &set[i]
		if e.state != invalid && e.addr == a {
			if e.state == waiting {
				c.stat.HitWaitings++
				return ProbeResult{Kind: HitWaiting}
			}
			c.stat.Hits++
			if c.cfg.Policy == LRU {
				e.stamp = c.tick()
			}
			return ProbeResult{Kind: Hit, NextHop: e.nextHop, Origin: e.origin}
		}
	}
	for i := range c.victim {
		if v := &c.victim[i]; v.addr == a {
			c.stat.HitVictims++
			res := ProbeResult{Kind: HitVictim, NextHop: v.nextHop, Origin: v.origin}
			c.promote(i)
			return res
		}
	}
	c.stat.Misses++
	return ProbeResult{Kind: Miss}
}

// promote moves victim block vi back into its home set and appends the
// block the set gives up for it to the list. With no slot for its class
// (zero quota, or every candidate waiting) the hit stays in the victim
// cache, as its newest block.
func (c *Cache) promote(vi int) {
	v := c.victim[vi]
	c.victim = slices.Delete(c.victim, vi, vi+1)
	set, _ := c.setOf(v.addr)
	slot := c.chooseVictim(set, v.origin)
	if slot < 0 {
		c.victim = append(c.victim, v)
		return
	}
	if set[slot].state != invalid {
		c.victim = append(c.victim, set[slot])
	}
	set[slot] = v
	set[slot].stamp = c.tick()
}

// chooseVictim picks the slot for inserting a block of the given class.
// The mix value γ is a hard per-set allocation (the paper: "% of blocks
// devoted for REM results"): an insert that would push its class past its
// share replaces within the class, even when free blocks remain, and a
// class with zero quota is simply not cached. It returns -1 when no slot
// is available (zero quota, or every candidate is waiting).
//
// One pass over the set gathers all it decides from: per class the valid
// blocks (waiting ones in the tentative class their reservation declared)
// and the complete block with the smallest stamp (what LRU and FIFO both
// evict), and the first free block. The pass has no jump on block data, as
// a hardware LR-cache decides in one cycle: it walks the set downward, so
// the first free block and, with <=, the lowest-indexed oldest are plain
// overwrites; a block's key is its stamp when it is a complete block of
// the class, else none, so the oldest is a compare and two selects; and
// the counts add the 0 or 1 that the state and M bits compute. Each class
// keeps its own locals: arrays indexed by the M bit, or a && in the loop,
// bring the jumps back (go build -gcflags=-S shows them). The counts share
// one word, and both keys come from one masked stamp, because the loop is
// short of registers: a form with two counters and a mask per class spills
// more on every block and gains cold_batch a third as much (EXPERIMENTS.md).
func (c *Cache) chooseVictim(set []entry, class Origin) int {
	const none = ^uint64(0)
	counts, free := uint64(0), -1 // counts: valid blocks in the low half, REM ones in the high
	oldLoc, oldRem, stampLoc, stampRem := -1, -1, none, none
	for i := len(set) - 1; i >= 0; i-- {
		e := &set[i]
		s, rem := uint64(e.state), uint64(e.origin&1)
		valid := (s + 1) >> 1 // complete (1) or waiting (2)
		counts += valid + (valid&rem)<<32
		// A key is the stamp of a complete block of its class, else none:
		// a mask of all ones covers the stamp of any other block.
		k := e.stamp | (s&1 - 1)
		kLoc, kRem := k|-rem, k|(rem-1)
		if kLoc <= stampLoc {
			oldLoc = i
		}
		if kRem <= stampRem {
			oldRem = i
		}
		stampLoc, stampRem = min(stampLoc, kLoc), min(stampRem, kRem)
		if s == uint64(invalid) {
			free = i
		}
	}
	// Downward with <=, a tie goes to the lowest index; a class whose every
	// key is none (no complete block, or only stamps of none) has no oldest.
	if stampLoc == none {
		oldLoc = -1
	}
	if stampRem == none {
		oldRem = -1
	}
	nRem := int(counts >> 32)
	n := [2]int{LOC: int(uint32(counts)) - nRem, REM: nRem}
	oldest := [2]int{LOC: oldLoc, REM: oldRem}
	// A class at (or past) its allocation replaces within itself. Under it, a
	// free block is taken first; in a full set the other class is then over
	// its share and gives a block up, unless all of its blocks are waiting.
	from := class & 1
	if n[from] < c.quota[from] {
		if free >= 0 {
			return free
		}
		if oldest[from^1] >= 0 {
			from ^= 1
		}
	}
	if c.cfg.Policy != Random {
		return oldest[from]
	}
	// Reservoir sampling over from's complete blocks: the k-th candidate
	// replaces the choice with probability 1/k, giving a uniform pick.
	best, seen := -1, 0
	for i := range set {
		if e := &set[i]; e.state == complete && e.origin == from {
			if seen++; seen == 1 || c.rng.Intn(seen) == 0 {
				best = i
			}
		}
	}
	return best
}

// Reserve records a waiting block for addr ("early cache block
// recording") and no waiting list: the reservation of a caller that keeps
// its parked packets itself, as the router does in its per-LC waitlists.
// origin is the block's tentative class (LOC when the address is homed
// locally, REM otherwise). It reports false — cache bypass — when no block
// is available for the class: its γ allocation is zero, or every candidate
// block is waiting. Reserve panics if addr is already present; callers must
// Probe first.
func (c *Cache) Reserve(a ip.Addr, origin Origin) bool {
	return c.reserve(a, origin) >= 0
}

// RecordMiss is Reserve plus the block's waiting list, opened with waiter,
// the packet that caused the miss; Fill returns the list.
func (c *Cache) RecordMiss(a ip.Addr, origin Origin, waiter int64) bool {
	i := c.reserve(a, origin)
	if i >= 0 {
		*c.waitList(i) = []int64{waiter}
	}
	return i >= 0
}

// waitList returns block i's waiting list, allocating the table of lists
// on first use.
func (c *Cache) waitList(i int) *[]int64 {
	if c.wait == nil {
		c.wait = make([][]int64, len(c.blocks))
	}
	return &c.wait[i]
}

// reserve is the reservation itself and returns the block's index; -1
// means bypass.
func (c *Cache) reserve(a ip.Addr, origin Origin) int {
	set, base := c.setOf(a)
	for i := range set {
		if set[i].state != invalid && set[i].addr == a {
			panic("cache: reserving a resident address")
		}
	}
	slot := c.chooseVictim(set, origin)
	if slot < 0 {
		c.stat.Bypasses++
		return -1
	}
	e := &set[slot]
	if e.state != invalid {
		c.evictToVictim(e)
	}
	e.stamp, e.addr, e.nextHop, e.state, e.origin = c.tick(), a, 0, waiting, origin
	c.stat.Recorded++
	return base + slot
}

// evictToVictim makes complete block e the victim cache's newest, in a
// free block if there is one, else in place of the oldest.
func (c *Cache) evictToVictim(e *entry) {
	c.stat.Evictions++
	if cap(c.victim) == 0 {
		return
	}
	if len(c.victim) == cap(c.victim) {
		c.victim = c.victim[:copy(c.victim, c.victim[1:])] // the oldest goes
	}
	c.victim = append(c.victim, *e)
}

// AddWaiter parks a packet on addr's waiting block (after Probe returned
// HitWaiting). It panics when no waiting block for addr exists.
func (c *Cache) AddWaiter(a ip.Addr, waiter int64) {
	set, base := c.setOf(a)
	for i := range set {
		if set[i].state == waiting && set[i].addr == a {
			w := c.waitList(base + i)
			*w = append(*w, waiter)
			c.stat.Parked++
			if n := int64(len(*w)); n > c.stat.MaxWaitList {
				c.stat.MaxWaitList = n
			}
			return
		}
	}
	panic("cache: AddWaiter without a waiting block")
}

// Fill completes addr's waiting block with a result, clears its W bit and
// returns the parked packets. origin overrides the tentative class (a
// reply from a remote LC fills as REM, a local FE result as LOC). When no
// waiting block exists — the miss bypassed a fully-waiting set, or a flush
// intervened — the result is inserted as a fresh complete block when
// possible, and no waiters are returned.
func (c *Cache) Fill(a ip.Addr, nh rtable.NextHop, origin Origin) []int64 {
	c.stat.Fills++
	set, base := c.setOf(a)
	for i := range set {
		e := &set[i]
		if e.state != invalid && e.addr == a {
			// On a complete block this is a duplicate fill (e.g. two LCs
			// resolved the same address): refresh the result and the
			// replacement stamp — without the stamp touch, LRU would treat
			// a just-refreshed entry as the oldest in its set and evict it
			// first.
			wasWaiting := e.state == waiting
			e.stamp, e.nextHop, e.state, e.origin = c.tick(), nh, complete, origin
			if !wasWaiting || c.wait == nil {
				return nil
			}
			w := c.wait[base+i]
			c.wait[base+i] = nil
			return w
		}
	}
	// No reserved block: best-effort insert.
	if slot := c.chooseVictim(set, origin); slot >= 0 {
		e := &set[slot]
		if e.state != invalid {
			c.evictToVictim(e)
		}
		e.stamp, e.addr, e.nextHop, e.state, e.origin = c.tick(), a, nh, complete, origin
	}
	return nil
}

// Flush invalidates every block (routing-table update, Sec. 3.2) and
// returns all parked packets so the caller can reissue their lookups.
func (c *Cache) Flush() []int64 {
	c.stat.Flushes++
	var orphans []int64
	for _, w := range c.wait { // block order, which is set-major
		orphans = append(orphans, w...)
	}
	clear(c.wait)
	clear(c.blocks)
	c.victim = c.victim[:0]
	return orphans
}

// InvalidateRange drops every complete entry whose address falls in the
// inclusive range [lo, hi] — the targeted alternative to Flush for a
// routing update: only addresses covered by a changed prefix can change
// verdict, so everything else stays hot. Waiting (W-bit) blocks are left
// in place: their result is still in flight and the router's update
// generation guard discards stale fills, so dropping the block would only
// orphan its waiters. Returns the number of entries invalidated.
func (c *Cache) InvalidateRange(lo, hi ip.Addr) int {
	return c.InvalidateRanges([]rtable.Range{{Lo: lo, Hi: hi}})
}

// InvalidateRanges is InvalidateRange over every range of rs — sorted and
// disjoint, as rtable.UpdateRanges returns them — in one pass over the
// cache instead of one per range, and counts as len(rs) calls of it.
func (c *Cache) InvalidateRanges(rs []rtable.Range) int {
	c.stat.RangeInvalidations += int64(len(rs))
	if len(rs) == 0 {
		return 0
	}
	// Nothing outside the list's span [lo, hi] is covered, which spares a
	// single range's scan the search for all but the entries it evicts.
	lo, hi := rs[0].Lo, rs[len(rs)-1].Hi
	stale := func(e entry) bool {
		return e.state == complete && e.addr >= lo && e.addr <= hi && covered(rs, e.addr)
	}
	n := len(c.victim)
	c.victim = slices.DeleteFunc(c.victim, stale)
	n -= len(c.victim)
	for i := range c.blocks {
		if stale(c.blocks[i]) {
			c.blocks[i] = entry{}
			n++
		}
	}
	c.stat.Invalidated += int64(n)
	return n
}

// covered reports whether a lies in one of rs: the last range that starts
// at or below a is the only candidate, because ends ascend with starts.
func covered(rs []rtable.Range, a ip.Addr) bool {
	i, j := 0, len(rs)
	for i < j {
		if m := int(uint(i+j) >> 1); rs[m].Lo <= a {
			i = m + 1
		} else {
			j = m
		}
	}
	return i > 0 && a <= rs[i-1].Hi
}

// AuditEntries visits every complete (valid, non-waiting) entry in the
// sets and the victim cache, passing its address and cached next hop.
// Returning false evicts the entry on the spot. Waiting blocks are skipped:
// their result is still in flight and owned by the fill path. Returns the
// number of entries evicted.
func (c *Cache) AuditEntries(visit func(a ip.Addr, nh rtable.NextHop) bool) int {
	n := 0
	for i := range c.blocks {
		if e := &c.blocks[i]; e.state == complete && !visit(e.addr, e.nextHop) {
			*e = entry{}
			n++
		}
	}
	kept := len(c.victim)
	c.victim = slices.DeleteFunc(c.victim, func(v entry) bool { return !visit(v.addr, v.nextHop) })
	return n + kept - len(c.victim)
}

// Stats returns the event counters.
func (c *Cache) Stats() Stats { return c.stat }

// ResetStats zeroes the event counters (e.g. after a warm-up phase).
func (c *Cache) ResetStats() { c.stat = Stats{} }

// HitRate returns (Hits + HitVictims) / Probes.
func (s Stats) HitRate() float64 {
	if s.Probes == 0 {
		return 0
	}
	return float64(s.Hits+s.HitVictims) / float64(s.Probes)
}

// Metric names exported by MetricsInto.
const (
	MetricProbes     = "spal_lrcache_probes_total"
	MetricHits       = "spal_lrcache_hits_total"
	MetricHitWaiting = "spal_lrcache_hit_waiting_total"
	MetricVictimHits = "spal_lrcache_victim_hits_total"
	MetricMisses     = "spal_lrcache_misses_total"
	MetricBypasses   = "spal_lrcache_bypasses_total"
	MetricEvictions  = "spal_lrcache_evictions_total"
	MetricFills      = "spal_lrcache_fills_total"
	MetricFlushes    = "spal_lrcache_flushes_total"
	MetricRangeInv   = "spal_lrcache_range_invalidations_total"
	MetricInvalid    = "spal_lrcache_invalidated_total"
	MetricParked     = "spal_lrcache_parked_total"
	MetricOccupancy  = "spal_lrcache_occupancy_blocks"
	MetricHitRatio   = "spal_lrcache_hit_ratio"
)

// MetricsInto publishes the cache's event counters and per-origin
// occupancy into a metrics snapshot, tagging every sample with the given
// labels (the router adds lc="<id>"). The snapshot it fills is a plain
// value the caller may then hand across goroutines.
func (c *Cache) MetricsInto(sn *metrics.Snapshot, labels ...metrics.Label) {
	s := c.stat
	loc, rem, waiting := c.Occupancy()
	sn.Counter(MetricProbes, "LR-cache probes.", float64(s.Probes), labels...)
	sn.Counter(MetricHits, "LR-cache set hits (complete entries).", float64(s.Hits), labels...)
	sn.Counter(MetricHitWaiting, "Probes that hit a W-bit (waiting) block.", float64(s.HitWaitings), labels...)
	sn.Counter(MetricVictimHits, "Hits served from the 8-block victim cache.", float64(s.HitVictims), labels...)
	sn.Counter(MetricMisses, "LR-cache misses.", float64(s.Misses), labels...)
	sn.Counter(MetricBypasses, "Misses that bypassed the cache (no block available).", float64(s.Bypasses), labels...)
	sn.Counter(MetricEvictions, "Complete blocks evicted to the victim cache.", float64(s.Evictions), labels...)
	sn.Counter(MetricFills, "Results filled into the cache.", float64(s.Fills), labels...)
	sn.Counter(MetricFlushes, "Whole-cache flushes (routing-table updates).", float64(s.Flushes), labels...)
	sn.Counter(MetricRangeInv, "Targeted InvalidateRange calls (incremental updates).", float64(s.RangeInvalidations), labels...)
	sn.Counter(MetricInvalid, "Complete entries dropped by targeted invalidation.", float64(s.Invalidated), labels...)
	sn.Counter(MetricParked, "Packets parked on waiting blocks.", float64(s.Parked), labels...)
	sn.Gauge(MetricHitRatio, "(Hits + victim hits) / probes since construction.", s.HitRate(), labels...)

	occHelp := "Valid blocks by M-bit origin class (loc/rem) or W-bit waiting state."
	sn.Gauge(MetricOccupancy, occHelp, float64(loc), append(append([]metrics.Label(nil), labels...), metrics.L("origin", "loc"))...)
	sn.Gauge(MetricOccupancy, occHelp, float64(rem), append(append([]metrics.Label(nil), labels...), metrics.L("origin", "rem"))...)
	sn.Gauge(MetricOccupancy, occHelp, float64(waiting), append(append([]metrics.Label(nil), labels...), metrics.L("origin", "waiting"))...)
}

// Occupancy reports the number of valid blocks per class, for mix-policy
// diagnostics.
func (c *Cache) Occupancy() (loc, rem, waiting int) {
	for i := range c.blocks {
		switch e := &c.blocks[i]; {
		case e.state == invalid:
		case e.state != complete: // W bit set; the result shadows the state's name
			waiting++
		case e.origin == LOC:
			loc++
		default:
			rem++
		}
	}
	return loc, rem, waiting
}
