package cache_test

import (
	"sort"
	"testing"

	"spal/internal/cache"
	"spal/internal/ip"
	"spal/internal/rtable"
)

// FuzzInvalidateRange checks the range-invalidation boundary math: after
// InvalidateRange(lo, hi), exactly the resident entries with lo <= addr <=
// hi are gone, everything else survives with its value intact, and the
// return value counts the evictions. An inverted range (lo > hi) must evict
// nothing. The seeds cover the boundary cases: inverted, full-range, and
// single-address. It then holds
// InvalidateRanges, over a list drawn from the same inputs, to the
// per-range loop (see checkRangesMatchLoop).
func FuzzInvalidateRange(f *testing.F) {
	f.Add(uint32(0x0a000010), uint32(0x0a000001), uint64(1)) // lo > hi: no-op
	f.Add(uint32(0), ^uint32(0), uint64(2))                  // full range: flush-equivalent
	f.Add(uint32(0x0a000003), uint32(0x0a000003), uint64(3)) // single address
	f.Add(uint32(0x0a000000), uint32(0x0b000000), uint64(4))
	f.Fuzz(func(t *testing.T, lo, hi uint32, seed uint64) {
		cfg := cache.Config{Blocks: 64, Assoc: 4, VictimBlocks: 4, MixPercent: 50, Policy: cache.LRU, Seed: seed}
		s := cache.New(cfg)
		// Populate with a seed-derived working set, then snapshot what
		// is actually resident (fills can evict one another).
		x := seed
		for i := 0; i < 48; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			s.Fill(ip.Addr(x>>32), rtable.NextHop(i), cache.LOC)
		}
		before := map[ip.Addr]rtable.NextHop{}
		s.AuditEntries(func(a ip.Addr, nh rtable.NextHop) bool {
			before[a] = nh
			return true
		})

		evicted := s.InvalidateRange(lo, hi)

		after := map[ip.Addr]rtable.NextHop{}
		s.AuditEntries(func(a ip.Addr, nh rtable.NextHop) bool {
			after[a] = nh
			return true
		})

		wantEvicted := 0
		for a, nh := range before {
			inRange := lo <= hi && a >= ip.Addr(lo) && a <= ip.Addr(hi)
			if inRange {
				wantEvicted++
				if _, still := after[a]; still {
					t.Fatalf("entry %v inside [%v,%v] survived", a, lo, hi)
				}
				continue
			}
			got, ok := after[a]
			if !ok {
				t.Fatalf("entry %v outside [%v,%v] was evicted", a, lo, hi)
			}
			if got != nh {
				t.Fatalf("entry %v changed value %d -> %d across invalidation", a, nh, got)
			}
		}
		if evicted != wantEvicted {
			t.Fatalf("InvalidateRange(%v,%v) returned %d, actual evictions %d",
				lo, hi, evicted, wantEvicted)
		}
		if len(after) != len(before)-wantEvicted {
			t.Fatalf("%d entries after, want %d", len(after), len(before)-wantEvicted)
		}

		// A list around [lo, hi]: ranges of every width scattered by the
		// seed, the narrow ones packed into the low addresses the fills
		// below land on.
		rs := []rtable.Range{{Lo: lo, Hi: hi}}
		x = seed
		for i := 0; i < int(seed%24); i++ {
			x = x*6364136223846793005 + 1442695040888963407
			l := ip.Addr(x >> 32 >> (i % 28))
			rs = append(rs, rtable.Range{Lo: l, Hi: l + ip.Addr(x&0xffff)>>(i%16)})
		}
		checkRangesMatchLoop(t, seed, disjoint(rs))
	})
}

// disjoint sorts rs and merges the ranges that overlap, dropping inverted
// ones. Ranges that merely touch stay apart: sorted and disjoint is all
// InvalidateRanges asks for.
func disjoint(rs []rtable.Range) []rtable.Range {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Lo < rs[j].Lo })
	var out []rtable.Range
	for _, r := range rs {
		switch last := len(out) - 1; {
		case r.Lo > r.Hi:
		case last >= 0 && r.Lo <= out[last].Hi:
			out[last].Hi = max(out[last].Hi, r.Hi)
		default:
			out = append(out, r)
		}
	}
	return out
}

// checkRangesMatchLoop builds a cache twice, gives both copies the same
// fills and the same waiting blocks, then invalidates rs through one
// InvalidateRanges call on one copy and through a loop of InvalidateRange on
// the other. Everything observable must agree: the resident entries, the
// waiting blocks left alone, the return total and Stats.
func checkRangesMatchLoop(t *testing.T, seed uint64, rs []rtable.Range) {
	t.Helper()
	cfg := cache.Config{Blocks: 64, Assoc: 4, VictimBlocks: 4, MixPercent: 50, Policy: cache.LRU, Seed: seed}
	type state struct {
		resident             map[ip.Addr]rtable.NextHop
		loc, rem, waiting, n int
		stats                cache.Stats
	}
	observe := func(s *cache.Cache, n int) state {
		st := state{resident: map[ip.Addr]rtable.NextHop{}, n: n, stats: s.Stats()}
		s.AuditEntries(func(a ip.Addr, nh rtable.NextHop) bool {
			st.resident[a] = nh
			return true
		})
		st.loc, st.rem, st.waiting = s.Occupancy()
		return st
	}
	batch, loop := cache.New(cfg), cache.New(cfg)
	for _, s := range []*cache.Cache{batch, loop} {
		// Low addresses, where the narrow ranges are; every sixth one a
		// waiting block, in range as often as not, that no invalidation
		// may touch.
		x := seed
		for i := 0; i < 96; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			a := ip.Addr(x >> 32 >> (i % 24))
			switch {
			case s.Probe(a).Kind != cache.Miss:
			case i%6 == 5:
				s.Reserve(a, cache.Origin(i%2))
			default:
				s.Fill(a, rtable.NextHop(i), cache.Origin(i%2))
			}
		}
	}
	before := observe(batch, 0)
	if len(before.resident) == 0 || before.waiting == 0 {
		t.Fatalf("%d resident, %d waiting before invalidation; nothing to compare", len(before.resident), before.waiting)
	}
	got := observe(batch, batch.InvalidateRanges(rs))
	n := 0
	for _, rg := range rs {
		n += loop.InvalidateRange(rg.Lo, rg.Hi)
	}
	want := observe(loop, n)
	if len(got.resident) != len(want.resident) {
		t.Fatalf("%d ranges: %d entries resident after InvalidateRanges, %d after the loop", len(rs), len(got.resident), len(want.resident))
	}
	for a, nh := range want.resident {
		if g, ok := got.resident[a]; !ok || g != nh {
			t.Fatalf("entry %v survives the loop with %d; after InvalidateRanges present=%v value=%d", a, nh, ok, g)
		}
	}
	got.resident, want.resident = nil, nil
	if got.n != want.n || got.stats != want.stats ||
		got.loc != want.loc || got.rem != want.rem || got.waiting != want.waiting {
		t.Fatalf("%d ranges:\nInvalidateRanges %+v\nper-range loop   %+v", len(rs), got, want)
	}
	if got.waiting != before.waiting {
		t.Fatalf("%d waiting blocks before, %d after; invalidation must leave them", before.waiting, got.waiting)
	}
	if len(rs) == 0 && (got.n != 0 || got.stats != before.stats || got.loc != before.loc || got.rem != before.rem) {
		t.Fatalf("an empty list is not a no-op: %+v, before %+v", got, before)
	}
}

// TestInvalidateRangesMatchesLoop runs the equivalence over the lists the
// fuzz seeds do not pin down: none, everything, and ranges that touch.
func TestInvalidateRangesMatchesLoop(t *testing.T) {
	top := ^ip.Addr(0)
	for name, rs := range map[string][]rtable.Range{
		"empty":              nil,
		"everything":         {{Lo: 0, Hi: top}},
		"touching-in-shift":  {{Lo: 0x10, Hi: 0x11}, {Lo: 0x12, Hi: 0x13}, {Lo: 0x14, Hi: 0x14}, {Lo: 0x15, Hi: 0x1b}},
		"split-mid-shift":    {{Lo: 0, Hi: 5}, {Lo: 7, Hi: 7}, {Lo: 9, Hi: 0x3e}, {Lo: 0x41, Hi: 0xfff}},
		"single-addresses":   {{Lo: 0, Hi: 0}, {Lo: 1, Hi: 1}, {Lo: 2, Hi: 2}, {Lo: 3, Hi: 3}, {Lo: 4, Hi: 4}, {Lo: top, Hi: top}},
		"halves":             {{Lo: 0, Hi: top >> 1}, {Lo: top>>1 + 1, Hi: top}},
		"top-of-space":       {{Lo: top - 7, Hi: top - 4}, {Lo: top - 3, Hi: top}},
		"low-then-the-rest":  {{Lo: 0, Hi: 0xff}, {Lo: 0x100, Hi: 0xffff}, {Lo: 0x1_0000, Hi: top}},
		"gaps-between-every": {{Lo: 2, Hi: 3}, {Lo: 8, Hi: 11}, {Lo: 32, Hi: 47}, {Lo: 128, Hi: 191}, {Lo: 1 << 20, Hi: 1<<21 - 1}},
	} {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 8; seed++ {
				checkRangesMatchLoop(t, seed, rs)
			}
		})
	}
}
