package cache

import (
	"slices"
	"testing"

	"spal/internal/ip"
	"spal/internal/rtable"
)

// corruptTestConfig is a small, valid cache geometry for the corruption
// tests.
func corruptTestConfig() Config {
	return Config{Blocks: 64, Assoc: 4, VictimBlocks: 4, MixPercent: 50, Policy: LRU}
}

// corrupted is a cache with its CorruptStore hook installed, and both
// method sets: the tests drive the cache and read the hook's counters.
type corrupted struct {
	*Cache
	*CorruptStore
}

func newCorrupted(c *Cache, cfg CorruptConfig) corrupted {
	s := corrupted{c, NewCorrupt(cfg)}
	c.SetFaultHook(s.CorruptStore)
	return s
}

// TestCorruptStoreWrongFill: a firing draw stores value^1 (and delivers it
// to any waiters — the silent-wrong-verdict failure mode), a quiet draw
// stores the true value. Rate 1 makes every draw fire.
func TestCorruptStoreWrongFill(t *testing.T) {
	s := newCorrupted(New(corruptTestConfig()), CorruptConfig{Seed: 1, WrongFillRate: 1})
	a := ip.Addr(0x0a000001)
	s.Fill(a, 6, LOC)
	if got := s.Probe(a); got.Kind != Hit || got.NextHop != 7 {
		t.Fatalf("probe after corrupted fill = %+v, want hit with 6^1=7", got)
	}
	if s.WrongFills() != 1 || s.Events() != 1 {
		t.Fatalf("WrongFills=%d Events=%d, want 1,1", s.WrongFills(), s.Events())
	}
}

// TestCorruptStoreDropInvalidate: a dropped InvalidateRange leaves the
// stale entry resident and reports 0 evictions.
func TestCorruptStoreDropInvalidate(t *testing.T) {
	s := newCorrupted(New(corruptTestConfig()), CorruptConfig{Seed: 1, DropInvalidateRate: 1})
	a := ip.Addr(0x0a000001)
	s.Fill(a, 6, LOC)
	if n := s.InvalidateRange(a, a); n != 0 {
		t.Fatalf("dropped InvalidateRange returned %d evictions", n)
	}
	if got := s.Probe(a); got.Kind != Hit || got.NextHop != 6 {
		t.Fatalf("entry did not survive the dropped invalidation: %+v", got)
	}
	if s.DroppedInvalidations() != 1 {
		t.Fatalf("DroppedInvalidations = %d, want 1", s.DroppedInvalidations())
	}
}

// TestCorruptStoreDeterminism: the same seed and call sequence produce the
// same corruption schedule; a different seed produces a different one
// eventually.
func TestCorruptStoreDeterminism(t *testing.T) {
	run := func(seed uint64) []bool {
		s := newCorrupted(New(corruptTestConfig()), CorruptConfig{Seed: seed, WrongFillRate: 0.5})
		fired := make([]bool, 64)
		for i := range fired {
			a := ip.Addr(0x0a000000 + uint32(i))
			s.Fill(a, 6, LOC)
			fired[i] = s.Probe(a).NextHop == 7
			s.InvalidateRange(a, a) // keep the cache small; draws only on rates > 0
		}
		return fired
	}
	a1, a2 := run(42), run(42)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same seed diverged at fill %d", i)
		}
	}
	b := run(43)
	same := true
	for i := range a1 {
		if a1[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical schedules over 64 draws")
	}
}

// TestCorruptStoreMaxEvents: each kind has its own cap, Exhausted flips
// only once every enabled kind is dry, and post-cap calls pass through
// uncorrupted.
func TestCorruptStoreMaxEvents(t *testing.T) {
	s := newCorrupted(New(corruptTestConfig()), CorruptConfig{
		Seed: 7, WrongFillRate: 1, DropInvalidateRate: 1, MaxEvents: 3,
	})
	if s.Exhausted() {
		t.Fatal("exhausted before any draw")
	}
	for i := 0; i < 10; i++ {
		s.Fill(ip.Addr(0x0a000000+uint32(i)), 6, LOC)
	}
	if s.WrongFills() != 3 {
		t.Fatalf("WrongFills = %d, want the cap 3", s.WrongFills())
	}
	if s.Exhausted() {
		t.Fatal("Exhausted with the invalidation kind still armed")
	}
	for i := 0; i < 10; i++ {
		a := ip.Addr(0x0a000000 + uint32(i))
		s.InvalidateRange(a, a)
	}
	if s.DroppedInvalidations() != 3 || s.Events() != 6 {
		t.Fatalf("DroppedInvalidations=%d Events=%d, want 3 and 6", s.DroppedInvalidations(), s.Events())
	}
	if !s.Exhausted() {
		t.Fatal("both caps reached but not Exhausted")
	}
	// Past the cap every operation is faithful.
	a := ip.Addr(0x0b000001)
	s.Fill(a, 6, LOC)
	if got := s.Probe(a); got.Kind != Hit || got.NextHop != 6 {
		t.Fatalf("post-cap fill corrupted: %+v", got)
	}
	if n := s.InvalidateRange(a, a); n != 1 {
		t.Fatalf("post-cap InvalidateRange evicted %d, want 1", n)
	}
}

// TestCorruptStoreKindsIndependent: which fills are corrupted depends only
// on the seed and the fill count — interleaving InvalidateRange calls (whose
// number the router's goroutine scheduling decides) must not move it, and
// neither kind may spend the other's cap.
func TestCorruptStoreKindsIndependent(t *testing.T) {
	run := func(invalidatesPerFill int) []bool {
		s := newCorrupted(New(corruptTestConfig()), CorruptConfig{
			Seed: 11, WrongFillRate: 0.3, DropInvalidateRate: 0.3, MaxEvents: 8,
		})
		fired := make([]bool, 200)
		for i := range fired {
			before := s.WrongFills()
			s.Fill(ip.Addr(0x0a000000+uint32(i)), 6, LOC)
			fired[i] = s.WrongFills() > before
			for k := 0; k < invalidatesPerFill; k++ {
				s.InvalidateRange(0x0b000000, 0x0b0000ff)
			}
		}
		if s.WrongFills() != 8 {
			t.Fatalf("%d invalidations per fill: WrongFills = %d, want the cap 8", invalidatesPerFill, s.WrongFills())
		}
		if want := int64(min(invalidatesPerFill, 1) * 8); s.DroppedInvalidations() != want {
			t.Fatalf("%d invalidations per fill: DroppedInvalidations = %d, want %d", invalidatesPerFill, s.DroppedInvalidations(), want)
		}
		return fired
	}
	alone := run(0)
	for _, k := range []int{1, 5} {
		for i, f := range run(k) {
			if f != alone[i] {
				t.Fatalf("fill %d: corrupted=%v with %d interleaved invalidations, %v with none", i, f, k, alone[i])
			}
		}
	}
}

// TestCorruptStoreUncappedNeverExhausted: MaxEvents=0 means unlimited.
func TestCorruptStoreUncappedNeverExhausted(t *testing.T) {
	s := newCorrupted(New(corruptTestConfig()), CorruptConfig{Seed: 7, WrongFillRate: 1})
	for i := 0; i < 20; i++ {
		s.Fill(ip.Addr(0x0a000000+uint32(i)), 6, LOC)
	}
	if s.Exhausted() {
		t.Fatal("uncapped store reported Exhausted")
	}
	if s.Events() != 20 {
		t.Fatalf("Events = %d, want 20", s.Events())
	}
}

// TestCorruptStoreAuditPassesThrough: AuditEntries must expose the cache
// as it really is — including corrupted values — or the scrubber could
// never find them.
func TestCorruptStoreAuditPassesThrough(t *testing.T) {
	s := newCorrupted(New(corruptTestConfig()), CorruptConfig{Seed: 1, WrongFillRate: 1})
	a := ip.Addr(0x0a000001)
	s.Fill(a, 6, LOC)
	var sawAddr ip.Addr
	var sawNH rtable.NextHop
	n := s.AuditEntries(func(addr ip.Addr, nh rtable.NextHop) bool {
		sawAddr, sawNH = addr, nh
		return true
	})
	if n != 0 {
		t.Fatalf("audit evicted %d entries with an always-true visitor", n)
	}
	if sawAddr != a || sawNH != 7 {
		t.Fatalf("audit saw (%v,%d), want the corrupted (%v,7)", sawAddr, sawNH, a)
	}
}

// TestCorruptStoreScheduleGolden pins the schedule itself, which
// TestCorruptStoreDeterminism cannot: which fills are corrupted and which
// ranges dropped for a seed, as CorruptStore produced them at d7a459c when
// it was still a wrapper around the cache. Every chaos seed in CI replays
// a history that depends on these. The script is 256 fills; after fill i a
// list of length 0 (i%4 = 0, 2), 1 (the address of fill i-1) or 3 (those of
// fills i-2..i), so that range k of the run covers exactly address k and is
// dropped if and only if the entry survives.
func TestCorruptStoreScheduleGolden(t *testing.T) {
	for _, tc := range []struct {
		seed               uint64
		wrong, dropped     []int
		rangeInvalidations int64
	}{
		{
			seed:               1,
			wrong:              []int{1, 9, 15, 17, 21, 23, 25, 27, 31, 36, 40, 43, 46, 47, 48, 49, 51, 61, 62, 64, 69, 70, 71, 78, 79, 82, 83, 84, 87, 93, 96, 97, 98, 99, 101, 104, 105, 106, 109, 117, 129, 130, 132, 133, 145, 150, 153, 155, 163, 164, 169, 171, 175, 176, 177, 178, 187, 194, 200, 201, 203, 210, 215, 217, 218, 219, 222, 223, 225, 230, 231, 238, 241, 244, 245, 246, 251, 255},
			dropped:            []int{3, 6, 13, 16, 18, 19, 23, 28, 33, 34, 35, 47, 51, 60, 62, 65, 70, 80, 83, 85, 94, 95, 106, 108, 115, 116, 117, 124, 128, 131, 136, 137, 139, 143, 144, 146, 148, 149, 152, 155, 161, 163, 168, 172, 175, 180, 184, 187, 188, 189, 191, 194, 195, 203, 207, 210, 214, 217, 223, 229, 231, 239, 243, 245, 247, 250, 255},
			rangeInvalidations: 189,
		},
		{
			seed:               1337,
			wrong:              []int{1, 3, 9, 11, 14, 15, 19, 20, 23, 24, 36, 37, 38, 43, 52, 53, 58, 60, 61, 64, 72, 79, 81, 86, 89, 97, 102, 104, 111, 113, 117, 120, 122, 123, 126, 136, 144, 147, 154, 159, 161, 162, 165, 176, 178, 182, 189, 191, 192, 193, 198, 200, 202, 208, 214, 215, 216, 219, 222, 227, 239, 241, 247, 250, 254},
			dropped:            []int{8, 21, 27, 28, 32, 34, 37, 39, 43, 54, 56, 59, 62, 67, 69, 74, 75, 77, 78, 79, 91, 97, 100, 101, 108, 109, 113, 120, 121, 141, 143, 149, 151, 159, 160, 166, 167, 169, 170, 171, 177, 183, 188, 193, 196, 201, 205, 206, 211, 215, 225, 226, 227, 237, 240, 241, 246, 254},
			rangeInvalidations: 198,
		},
	} {
		// 512 sets under 256 consecutive addresses: nothing is ever evicted
		// but by an invalidation.
		s := newCorrupted(New(Config{Blocks: 2048, Assoc: 4, VictimBlocks: 4, MixPercent: 50, Policy: LRU}),
			CorruptConfig{Seed: tc.seed, WrongFillRate: 0.25, DropInvalidateRate: 0.25})
		addr := func(i int) ip.Addr { return ip.Addr(0x0a000000 + uint32(i)) }
		var wrong, dropped []int
		invalidate := func(first, n int) {
			rs := make([]rtable.Range, n)
			for k := range rs {
				rs[k] = rtable.Range{Lo: addr(first + k), Hi: addr(first + k)}
			}
			evicted := s.InvalidateRanges(rs)
			for k := range rs {
				if s.Probe(addr(first+k)).Kind == Hit {
					dropped = append(dropped, first+k)
					evicted++
				}
			}
			if evicted != n {
				t.Fatalf("seed %d, list at %d: evicted + surviving = %d, want %d", tc.seed, first, evicted, n)
			}
		}
		for i := 0; i < 256; i++ {
			s.Fill(addr(i), 6, LOC)
			if s.Probe(addr(i)).NextHop == 7 {
				wrong = append(wrong, i)
			}
			switch i % 4 {
			case 0, 2:
				invalidate(i, 0)
			case 1:
				invalidate(i-1, 1)
			case 3:
				invalidate(i-2, 3)
			}
		}
		if !slices.Equal(wrong, tc.wrong) {
			t.Errorf("seed %d: corrupted fills\n got %v\nwant %v", tc.seed, wrong, tc.wrong)
		}
		if !slices.Equal(dropped, tc.dropped) {
			t.Errorf("seed %d: dropped ranges\n got %v\nwant %v", tc.seed, dropped, tc.dropped)
		}
		if got, want := s.WrongFills(), int64(len(tc.wrong)); got != want {
			t.Errorf("seed %d: WrongFills = %d, want %d", tc.seed, got, want)
		}
		if got, want := s.DroppedInvalidations(), int64(len(tc.dropped)); got != want {
			t.Errorf("seed %d: DroppedInvalidations = %d, want %d", tc.seed, got, want)
		}
		if got := s.Stats().RangeInvalidations; got != tc.rangeInvalidations {
			t.Errorf("seed %d: RangeInvalidations = %d, want %d", tc.seed, got, tc.rangeInvalidations)
		}
	}
}

// TestInvalidateRangesAllocs: a list invalidation allocates only for the
// ranges a hook may drop. A fill-only corruption policy cannot drop any, so
// it gets the caller's list back.
func TestInvalidateRangesAllocs(t *testing.T) {
	rs := []rtable.Range{{Lo: 1, Hi: 2}, {Lo: 5, Hi: 9}}
	plain := New(corruptTestConfig())
	fillOnly := newCorrupted(New(corruptTestConfig()), CorruptConfig{Seed: 1, WrongFillRate: 0.5})
	for name, c := range map[string]*Cache{"no hook": plain, "fill-only hook": fillOnly.Cache} {
		if n := testing.AllocsPerRun(100, func() { c.InvalidateRanges(rs) }); n != 0 {
			t.Errorf("%s: InvalidateRanges allocates %v times a call, want 0", name, n)
		}
	}
	if got := fillOnly.DroppedInvalidations(); got != 0 {
		t.Errorf("a fill-only policy dropped %d invalidations", got)
	}
}
