package cache

import (
	"testing"

	"spal/internal/ip"
	"spal/internal/rtable"
)

// corruptTestConfig is a small, valid cache geometry for the wrapper
// tests.
func corruptTestConfig() Config {
	return Config{Blocks: 64, Assoc: 4, VictimBlocks: 4, MixPercent: 50, Policy: LRU}
}

// TestCorruptStoreWrongFill: a firing draw stores value^1 (and delivers it
// to any waiters — the silent-wrong-verdict failure mode), a quiet draw
// stores the true value. Rate 1 makes every draw fire.
func TestCorruptStoreWrongFill(t *testing.T) {
	s := NewCorrupt(New(corruptTestConfig()), CorruptConfig{Seed: 1, WrongFillRate: 1})
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
	s := NewCorrupt(New(corruptTestConfig()), CorruptConfig{Seed: 1, DropInvalidateRate: 1})
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
		s := NewCorrupt(New(corruptTestConfig()), CorruptConfig{Seed: seed, WrongFillRate: 0.5})
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
	s := NewCorrupt(New(corruptTestConfig()), CorruptConfig{
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
		s := NewCorrupt(New(corruptTestConfig()), CorruptConfig{
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
	s := NewCorrupt(New(corruptTestConfig()), CorruptConfig{Seed: 7, WrongFillRate: 1})
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
	s := NewCorrupt(New(corruptTestConfig()), CorruptConfig{Seed: 1, WrongFillRate: 1})
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
