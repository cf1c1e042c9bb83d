package cache

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"spal/internal/ip"
	"spal/internal/rtable"
	"spal/internal/stats"
)

// tiny returns a 2-set, 4-way cache so set behaviour is easy to force.
func tiny() *Cache {
	return New(Config{Blocks: 8, Assoc: 4, VictimBlocks: 2, MixPercent: 50, Policy: LRU})
}

// addrInSet produces the i-th distinct address mapping to the given set of
// a cache with numSets sets.
func addrInSet(set, i, numSets int) ip.Addr {
	return ip.Addr(set + i*numSets)
}

func TestMissRecordFillHit(t *testing.T) {
	c := tiny()
	a := ip.Addr(0x0a000001)
	if r := c.Probe(a); r.Kind != Miss {
		t.Fatalf("cold probe = %v", r.Kind)
	}
	if !c.RecordMiss(a, LOC, 1) {
		t.Fatal("RecordMiss refused with free blocks")
	}
	// Second packet for the same address parks.
	if r := c.Probe(a); r.Kind != HitWaiting {
		t.Fatalf("probe during wait = %v", r.Kind)
	}
	c.AddWaiter(a, 2)
	released := c.Fill(a, 7, LOC)
	if len(released) != 2 || released[0] != 1 || released[1] != 2 {
		t.Fatalf("released = %v", released)
	}
	r := c.Probe(a)
	if r.Kind != Hit || r.NextHop != 7 || r.Origin != LOC {
		t.Fatalf("after fill: %+v", r)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 || s.HitWaitings != 1 || s.Recorded != 1 || s.Fills != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestRecordMissPanicsOnResident(t *testing.T) {
	c := tiny()
	a := ip.Addr(5)
	c.RecordMiss(a, LOC, 1)
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	c.RecordMiss(a, LOC, 2)
}

func TestAddWaiterPanicsWithoutBlock(t *testing.T) {
	c := tiny()
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	c.AddWaiter(9, 1)
}

func TestBypassWhenAllWaiting(t *testing.T) {
	// γ=50 on a 4-way set: two blocks per class. Two waiting LOC blocks
	// exhaust the LOC allocation; a third LOC miss must bypass.
	c := tiny()
	numSets := 2
	for i := 0; i < 2; i++ {
		if !c.RecordMiss(addrInSet(0, i, numSets), LOC, int64(i)) {
			t.Fatalf("RecordMiss %d refused", i)
		}
	}
	if c.RecordMiss(addrInSet(0, 2, numSets), LOC, 99) {
		t.Fatal("expected bypass: LOC allocation full of waiting blocks")
	}
	if c.Stats().Bypasses != 1 {
		t.Errorf("Bypasses = %d", c.Stats().Bypasses)
	}
	// The REM allocation of the same set is independent...
	if !c.RecordMiss(addrInSet(0, 3, numSets), REM, 7) {
		t.Error("REM allocation should still accept")
	}
	// ...and so is the other set.
	if !c.RecordMiss(addrInSet(1, 0, numSets), LOC, 5) {
		t.Error("other set should accept")
	}
}

func TestWaitingBlocksNeverEvicted(t *testing.T) {
	c := tiny()
	numSets := 2
	w := addrInSet(0, 0, numSets)
	c.RecordMiss(w, LOC, 1)
	// Fill the rest of the set with complete entries and force traffic.
	for i := 1; i < 10; i++ {
		a := addrInSet(0, i, numSets)
		if c.Probe(a).Kind == Miss {
			if c.RecordMiss(a, LOC, int64(i)) {
				c.Fill(a, rtable.NextHop(i), LOC)
			}
		}
	}
	if r := c.Probe(w); r.Kind != HitWaiting {
		t.Fatalf("waiting block was evicted: %v", r.Kind)
	}
	// Its waiter is still released by the eventual fill.
	if got := c.Fill(w, 3, LOC); len(got) != 1 || got[0] != 1 {
		t.Fatalf("released = %v", got)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(Config{Blocks: 8, Assoc: 4, VictimBlocks: 0, MixPercent: 100, Policy: LRU})
	numSets := 2
	addrs := make([]ip.Addr, 5)
	for i := range addrs {
		addrs[i] = addrInSet(0, i, numSets)
	}
	for _, a := range addrs[:4] {
		c.RecordMiss(a, REM, 0)
		c.Fill(a, 1, REM)
	}
	// Touch addrs[0] so addrs[1] becomes LRU.
	c.Probe(addrs[0])
	c.RecordMiss(addrs[4], REM, 0)
	c.Fill(addrs[4], 1, REM)
	if c.Probe(addrs[1]).Kind != Miss {
		t.Error("addrs[1] should have been the LRU victim")
	}
	if c.Probe(addrs[0]).Kind != Hit {
		t.Error("addrs[0] was touched and must survive")
	}
}

func TestFIFOIgnoresTouches(t *testing.T) {
	c := New(Config{Blocks: 8, Assoc: 4, VictimBlocks: 0, MixPercent: 100, Policy: FIFO})
	numSets := 2
	addrs := make([]ip.Addr, 5)
	for i := range addrs {
		addrs[i] = addrInSet(0, i, numSets)
	}
	for _, a := range addrs[:4] {
		c.RecordMiss(a, REM, 0)
		c.Fill(a, 1, REM)
	}
	c.Probe(addrs[0]) // FIFO must not refresh
	c.RecordMiss(addrs[4], REM, 0)
	c.Fill(addrs[4], 1, REM)
	if c.Probe(addrs[0]).Kind != Miss {
		t.Error("FIFO should evict the oldest fill (addrs[0])")
	}
}

func TestMixPolicyPrefersOverquotaClass(t *testing.T) {
	// γ=25% of 4 blocks -> REM quota 1. Two REM entries -> REM evicted
	// first even if a LOC entry is older.
	c := New(Config{Blocks: 8, Assoc: 4, VictimBlocks: 0, MixPercent: 25, Policy: LRU})
	numSets := 2
	loc1, loc2 := addrInSet(0, 0, numSets), addrInSet(0, 1, numSets)
	rem1, rem2 := addrInSet(0, 2, numSets), addrInSet(0, 3, numSets)
	for _, x := range []struct {
		a ip.Addr
		o Origin
	}{{loc1, LOC}, {loc2, LOC}, {rem1, REM}, {rem2, REM}} {
		c.RecordMiss(x.a, x.o, 0)
		c.Fill(x.a, 1, x.o)
	}
	// New LOC entry: REM is over quota (2 > 1) -> evict oldest REM (rem1).
	nw := addrInSet(0, 4, numSets)
	c.RecordMiss(nw, LOC, 0)
	c.Fill(nw, 1, LOC)
	if c.Probe(rem1).Kind != Miss {
		t.Error("rem1 should be evicted (REM over quota)")
	}
	if c.Probe(loc1).Kind == Miss {
		t.Error("loc1 must survive despite being oldest overall")
	}
}

func TestMixPolicyZeroPercent(t *testing.T) {
	// γ=0: no blocks are devoted to REM results, so a REM miss bypasses
	// the cache entirely and a REM reply is not inserted.
	c := New(Config{Blocks: 8, Assoc: 4, VictimBlocks: 0, MixPercent: 0, Policy: LRU})
	numSets := 2
	rem := addrInSet(0, 0, numSets)
	if c.RecordMiss(rem, REM, 0) {
		t.Fatal("γ=0 must refuse REM blocks")
	}
	c.Fill(rem, 1, REM) // best-effort insert must also be declined
	if c.Probe(rem).Kind != Miss {
		t.Error("REM result cached despite γ=0")
	}
	// LOC gets the whole set.
	for i := 1; i <= 4; i++ {
		a := addrInSet(0, i, numSets)
		if !c.RecordMiss(a, LOC, 0) {
			t.Fatalf("LOC insert %d refused", i)
		}
		c.Fill(a, 1, LOC)
	}
	for i := 1; i <= 4; i++ {
		if c.Probe(addrInSet(0, i, numSets)).Kind != Hit {
			t.Errorf("LOC entry %d should occupy the set", i)
		}
	}
}

func TestMixPolicyHundredPercent(t *testing.T) {
	// γ=100: the mirror image — LOC results are never cached.
	c := New(Config{Blocks: 8, Assoc: 4, VictimBlocks: 0, MixPercent: 100, Policy: LRU})
	loc := addrInSet(0, 0, 2)
	if c.RecordMiss(loc, LOC, 0) {
		t.Fatal("γ=100 must refuse LOC blocks")
	}
	c.Fill(loc, 1, LOC)
	if c.Probe(loc).Kind != Miss {
		t.Error("LOC result cached despite γ=100")
	}
}

func TestMixHardAllocation(t *testing.T) {
	// γ=50 on a 4-way set: inserting a third REM entry must replace
	// within the REM class even though the set still has free blocks.
	c := New(Config{Blocks: 8, Assoc: 4, VictimBlocks: 0, MixPercent: 50, Policy: LRU})
	numSets := 2
	r0, r1, r2 := addrInSet(0, 0, numSets), addrInSet(0, 1, numSets), addrInSet(0, 2, numSets)
	for _, a := range []ip.Addr{r0, r1} {
		c.RecordMiss(a, REM, 0)
		c.Fill(a, 1, REM)
	}
	c.RecordMiss(r2, REM, 0)
	c.Fill(r2, 1, REM)
	if c.Probe(r0).Kind != Miss {
		t.Error("r0 (LRU REM) should be replaced despite free blocks")
	}
	if c.Probe(r1).Kind != Hit || c.Probe(r2).Kind != Hit {
		t.Error("REM allocation should hold exactly r1 and r2")
	}
	_, rem, _ := c.Occupancy()
	if rem != 2 {
		t.Errorf("REM occupancy = %d, want quota 2", rem)
	}
}

func TestVictimCacheCatchesConflictEvictions(t *testing.T) {
	c := New(Config{Blocks: 8, Assoc: 4, VictimBlocks: 2, MixPercent: 0, Policy: LRU})
	numSets := 2
	addrs := make([]ip.Addr, 6)
	for i := range addrs {
		addrs[i] = addrInSet(0, i, numSets)
	}
	for _, a := range addrs[:5] { // fifth insert evicts addrs[0] to victim
		c.RecordMiss(a, LOC, 0)
		c.Fill(a, rtable.NextHop(a), LOC)
	}
	r := c.Probe(addrs[0])
	if r.Kind != HitVictim || r.NextHop != rtable.NextHop(addrs[0]) {
		t.Fatalf("victim probe = %+v", r)
	}
	// Promotion: the block is back in the main set now.
	if got := c.Probe(addrs[0]); got.Kind != Hit {
		t.Errorf("after promotion kind = %v", got.Kind)
	}
	if c.Stats().HitVictims != 1 {
		t.Errorf("HitVictims = %d", c.Stats().HitVictims)
	}
}

func TestVictimDisabled(t *testing.T) {
	c := New(Config{Blocks: 8, Assoc: 4, VictimBlocks: 0, MixPercent: 50, Policy: LRU})
	numSets := 2
	for i := 0; i < 5; i++ {
		a := addrInSet(0, i, numSets)
		c.RecordMiss(a, LOC, 0)
		c.Fill(a, 1, LOC)
	}
	if c.Probe(addrInSet(0, 0, numSets)).Kind != Miss {
		t.Error("no victim cache: eviction is final")
	}
}

func TestWaitListStats(t *testing.T) {
	c := tiny()
	a := ip.Addr(1)
	c.RecordMiss(a, LOC, 1)
	c.AddWaiter(a, 2)
	c.AddWaiter(a, 3)
	s := c.Stats()
	if s.Parked != 2 {
		t.Errorf("Parked = %d, want 2", s.Parked)
	}
	if s.MaxWaitList != 3 { // first waiter from RecordMiss + two parked
		t.Errorf("MaxWaitList = %d, want 3", s.MaxWaitList)
	}
}

// TestFlushDropsEverything: Flush leaves nothing behind, W blocks and
// their waiting lists included, where a whole-space InvalidateRanges keeps
// the W blocks so their fills still answer the lists.
func TestFlushDropsEverything(t *testing.T) {
	c := tiny()
	a, b := ip.Addr(1), ip.Addr(2)
	c.RecordMiss(a, LOC, 10)
	c.AddWaiter(a, 11)
	c.RecordMiss(b, REM, 20)
	c.Fill(b, 1, REM)
	c.Flush()
	if c.Probe(a).Kind != Miss || c.Probe(b).Kind != Miss {
		t.Error("flush must invalidate everything")
	}
	loc, rem, waiting := c.Occupancy()
	if loc != 0 || rem != 0 || waiting != 0 {
		t.Errorf("occupancy after flush = %d/%d/%d", loc, rem, waiting)
	}
	if got := c.Fill(a, 7, LOC); got != nil {
		t.Errorf("a fill after the flush answered %v; the flushed list must be gone", got)
	}

	c = tiny()
	c.RecordMiss(a, LOC, 10)
	c.AddWaiter(a, 11)
	c.RecordMiss(b, REM, 20)
	c.Fill(b, 1, REM)
	c.InvalidateRanges([]rtable.Range{{Lo: 0, Hi: ^ip.Addr(0)}})
	if c.Probe(b).Kind != Miss {
		t.Error("a whole-space invalidation must drop the complete entry")
	}
	if c.Probe(a).Kind != HitWaiting {
		t.Error("a whole-space invalidation must keep the W block")
	}
	if got := c.Fill(a, 7, LOC); !slices.Equal(got, []int64{10, 11}) {
		t.Errorf("fill after the invalidation answered %v, want [10 11]", got)
	}
}

func TestFillWithoutReservationInserts(t *testing.T) {
	c := tiny()
	a := ip.Addr(3)
	if got := c.Fill(a, 9, REM); got != nil {
		t.Fatalf("waiters = %v", got)
	}
	r := c.Probe(a)
	if r.Kind != Hit || r.NextHop != 9 || r.Origin != REM {
		t.Fatalf("best-effort insert failed: %+v", r)
	}
}

func TestDuplicateFillRefreshes(t *testing.T) {
	c := tiny()
	a := ip.Addr(4)
	c.RecordMiss(a, LOC, 1)
	c.Fill(a, 5, LOC)
	if got := c.Fill(a, 6, REM); got != nil {
		t.Fatalf("duplicate fill released %v", got)
	}
	r := c.Probe(a)
	if r.NextHop != 6 || r.Origin != REM {
		t.Fatalf("refresh failed: %+v", r)
	}
}

func TestGeometryValidation(t *testing.T) {
	bad := []Config{
		{Blocks: 0, Assoc: 4},
		{Blocks: 7, Assoc: 4},
		{Blocks: 24, Assoc: 4}, // 6 sets: not a power of two
		{Blocks: 8, Assoc: 4, MixPercent: 101},
		{Blocks: 8, Assoc: 4, VictimBlocks: -1},
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// TestNewErrGeometry: NewErr reports every bad organization as an error
// naming the field at fault — it is the path operator-supplied flags take —
// and never panics, a negative victim cache included.
func TestNewErrGeometry(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		wantSub string
	}{
		{"no blocks", Config{Blocks: 0, Assoc: 4}, "bad geometry"},
		{"zero assoc", Config{Blocks: 8, Assoc: 0}, "bad geometry"},
		{"blocks not a multiple of assoc", Config{Blocks: 7, Assoc: 4}, "bad geometry"},
		{"six sets", Config{Blocks: 24, Assoc: 4}, "not a power of two"},
		{"250 sets", Config{Blocks: 1000, Assoc: 4, VictimBlocks: 8, MixPercent: 50}, "not a power of two"},
		{"mix above 100", Config{Blocks: 8, Assoc: 4, MixPercent: 101}, "MixPercent"},
		{"negative mix", Config{Blocks: 8, Assoc: 4, MixPercent: -1}, "MixPercent"},
		{"negative victims", Config{Blocks: 8, Assoc: 4, VictimBlocks: -1}, "VictimBlocks"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewErr(tc.cfg)
			if err == nil || c != nil {
				t.Fatalf("NewErr(%+v) = %v, %v; want nil and an error", tc.cfg, c, err)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
	if c, err := NewErr(Config{Blocks: 8, Assoc: 4, MixPercent: 50}); err != nil || c == nil {
		t.Fatalf("a cache without a victim cache rejected: %v", err)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Blocks != 4096 || cfg.Assoc != 4 || cfg.VictimBlocks != 8 || cfg.MixPercent != 50 {
		t.Errorf("DefaultConfig = %+v", cfg)
	}
	New(cfg) // must not panic
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Error("empty HitRate should be 0")
	}
	s = Stats{Probes: 10, Hits: 4, HitVictims: 1}
	if s.HitRate() != 0.5 {
		t.Errorf("HitRate = %v", s.HitRate())
	}
}

func TestOriginString(t *testing.T) {
	if LOC.String() != "LOC" || REM.String() != "REM" {
		t.Error("Origin strings wrong")
	}
}

func TestRandomPolicyStillCorrect(t *testing.T) {
	c := New(Config{Blocks: 8, Assoc: 4, VictimBlocks: 2, MixPercent: 50, Policy: Random, Seed: 1})
	rng := stats.NewRNG(2)
	// Hammer with random addresses; invariants: probe-after-fill hits,
	// occupancy never exceeds capacity.
	for i := 0; i < 5000; i++ {
		a := ip.Addr(rng.Intn(64))
		switch c.Probe(a).Kind {
		case Miss:
			if c.RecordMiss(a, Origin(rng.Intn(2)), int64(i)) {
				c.Fill(a, 1, Origin(rng.Intn(2)))
			}
		case HitWaiting:
			t.Fatal("no waiting blocks should exist: fills are immediate")
		}
		if c.Probe(a).Kind == Miss {
			// Only legal if the insert was bypassed, which cannot happen
			// with immediate fills (no waiting blocks).
			t.Fatal("address vanished immediately after fill")
		}
	}
	loc, rem, waiting := c.Occupancy()
	if loc+rem+waiting > 8 {
		t.Errorf("occupancy exceeds capacity: %d/%d/%d", loc, rem, waiting)
	}
}

// Property: after an arbitrary operation sequence, a filled address that
// was never evicted (tracked shadow) still returns its latest next hop.
func TestShadowConsistencyQuick(t *testing.T) {
	f := func(ops []uint32) bool {
		c := New(Config{Blocks: 16, Assoc: 4, VictimBlocks: 4, MixPercent: 50, Policy: LRU})
		shadow := map[ip.Addr]rtable.NextHop{}
		for _, op := range ops {
			a := ip.Addr(op % 97)
			nh := rtable.NextHop(op % 13)
			switch c.Probe(a).Kind {
			case Miss:
				if c.RecordMiss(a, LOC, 0) {
					c.Fill(a, nh, LOC)
					shadow[a] = nh
				}
			case Hit, HitVictim:
				// Cached value must match the last fill we performed.
				// (Entries may have been evicted and refilled; shadow holds
				// the latest fill, which is the only fill for that addr
				// since fills always use op-derived nh... re-fill paths
				// update shadow too.)
			case HitWaiting:
				return false // impossible: fills are immediate
			}
			if r := c.Probe(a); r.Kind == Hit || r.Kind == HitVictim {
				if want, ok := shadow[a]; ok && r.NextHop != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDuplicateFillRefreshesLRUStamp(t *testing.T) {
	// Regression: the duplicate-fill path updated the result but not the
	// replacement stamp, so under LRU a just-refreshed entry looked like
	// the oldest in its set and was evicted first.
	c := New(Config{Blocks: 4, Assoc: 4, MixPercent: 0, Policy: LRU})
	a, b := ip.Addr(1), ip.Addr(2)
	c.Fill(a, 10, LOC)
	c.Fill(b, 11, LOC)
	c.Fill(ip.Addr(3), 12, LOC)
	c.Fill(ip.Addr(4), 13, LOC)
	c.Fill(a, 20, LOC)          // duplicate fill: a is now the most recent entry
	c.Fill(ip.Addr(5), 14, LOC) // set full: must evict b, the true LRU
	if r := c.Probe(a); r.Kind != Hit || r.NextHop != 20 {
		t.Fatalf("refreshed entry evicted: %+v", r)
	}
	if r := c.Probe(b); r.Kind != Miss {
		t.Fatalf("LRU entry survived: %+v", r)
	}
}

// TestBlockLayout holds the LR-cache at the size the paper counts it: a
// block is 16 bytes and the block array starts on a cache line, so a 4-way
// set is exactly one 64-byte line.
func TestBlockLayout(t *testing.T) {
	if sz := unsafe.Sizeof(entry{}); sz != 16 {
		t.Fatalf("entry is %d bytes, want 16", sz)
	}
	for _, blocks := range []int{64, 1 << 10, 4 << 10, 8 << 10} {
		c := New(Config{Blocks: blocks, Assoc: 4, VictimBlocks: 8, MixPercent: 50})
		if p := uintptr(unsafe.Pointer(&c.blocks[0])); p%64 != 0 {
			t.Errorf("β = %d: blocks start at %#x, not on a 64-byte line", blocks, p)
		}
	}
}

// TestReserveNeverAllocatesWaitLists drives a cache with the router's calls
// only — Probe, Reserve, Fill, InvalidateRanges — leaving some blocks
// waiting, and requires that the out-of-line waiting lists were never made.
func TestReserveNeverAllocatesWaitLists(t *testing.T) {
	c := New(DefaultConfig())
	rng := stats.NewRNG(3)
	for i := 0; i < 100000; i++ {
		a := ip.Addr(rng.Intn(1 << 14))
		switch c.Probe(a).Kind {
		case Miss:
			if o := Origin(rng.Intn(2)); c.Reserve(a, o) && rng.Bool(0.9) {
				c.Fill(a, 1, o)
			}
		case HitWaiting:
			if w := c.Fill(a, 2, REM); w != nil {
				t.Fatalf("Fill of a reserved block returned waiters %v", w)
			}
		}
		if i%10000 == 0 {
			c.InvalidateRanges([]rtable.Range{{Lo: 0, Hi: 99}, {Lo: 4096, Hi: 5000}})
		}
	}
	if _, _, waiting := c.Occupancy(); waiting == 0 {
		t.Fatal("no block left waiting; the run proves nothing")
	}
	if c.wait != nil {
		t.Fatal("a cache that only reserves allocated its waiting lists")
	}
}

// TestInvalidateRangesAllocs: a list invalidation allocates nothing.
func TestInvalidateRangesAllocs(t *testing.T) {
	rs := []rtable.Range{{Lo: 1, Hi: 2}, {Lo: 5, Hi: 9}}
	c := New(Config{Blocks: 64, Assoc: 4, VictimBlocks: 4, MixPercent: 50, Policy: LRU})
	if n := testing.AllocsPerRun(100, func() { c.InvalidateRanges(rs) }); n != 0 {
		t.Errorf("InvalidateRanges allocates %v times a call, want 0", n)
	}
}
