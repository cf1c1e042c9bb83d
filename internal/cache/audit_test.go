package cache

import (
	"testing"

	"spal/internal/ip"
	"spal/internal/rtable"
)

// TestAuditEntriesVisitsAndEvicts: the audit sees every complete entry
// (sets and victim) with its stored value, skips waiting blocks, and
// evicts exactly the entries the visitor rejects.
func TestAuditEntriesVisitsAndEvicts(t *testing.T) {
	c := New(Config{Blocks: 64, Assoc: 4, VictimBlocks: 4, MixPercent: 50, Policy: LRU})
	addrs := []ip.Addr{0x0a000001, 0x0a000002, 0x0b000003}
	for i, a := range addrs {
		c.Fill(a, rtable.NextHop(10+i), LOC)
	}
	waiting := ip.Addr(0x0c000004)
	c.RecordMiss(waiting, LOC, 99) // waiting block: value undecided, must be skipped

	seen := map[ip.Addr]rtable.NextHop{}
	if n := c.AuditEntries(func(a ip.Addr, nh rtable.NextHop) bool {
		seen[a] = nh
		return true
	}); n != 0 {
		t.Fatalf("always-true visitor evicted %d entries", n)
	}
	if len(seen) != len(addrs) {
		t.Fatalf("audit saw %d entries, want %d (waiting block must be skipped)", len(seen), len(addrs))
	}
	for i, a := range addrs {
		if seen[a] != rtable.NextHop(10+i) {
			t.Fatalf("audit saw %v -> %d, want %d", a, seen[a], 10+i)
		}
	}

	// Reject exactly one address: it must be evicted, the rest must stay.
	evict := addrs[1]
	if n := c.AuditEntries(func(a ip.Addr, nh rtable.NextHop) bool { return a != evict }); n != 1 {
		t.Fatalf("single-reject audit evicted %d entries, want 1", n)
	}
	if got := c.Probe(evict); got.Kind != Miss {
		t.Fatalf("rejected entry still resident: %+v", got)
	}
	if got := c.Probe(addrs[0]); got.Kind != Hit {
		t.Fatalf("surviving entry lost: %+v", got)
	}
	// The waiting block is untouched by audits.
	if got := c.Probe(waiting); got.Kind != HitWaiting {
		t.Fatalf("waiting block disturbed by audit: %+v", got)
	}
}

// TestAuditEntriesVictimCache: entries demoted into the victim cache are
// audited (and evictable) too.
func TestAuditEntriesVictimCache(t *testing.T) {
	cfg := Config{Blocks: 8, Assoc: 2, VictimBlocks: 4, MixPercent: 50, Policy: LRU}
	c := New(cfg)
	// Overfill one set so a demotion lands in the victim cache: addresses
	// with identical index bits conflict.
	var conflict []ip.Addr
	for i := 0; i < 3; i++ {
		conflict = append(conflict, ip.Addr(uint32(i)<<16)) // same low bits, same set
	}
	for i, a := range conflict {
		c.Fill(a, rtable.NextHop(20+i), LOC)
	}
	total := 0
	c.AuditEntries(func(a ip.Addr, nh rtable.NextHop) bool {
		total++
		return true
	})
	if total != len(conflict) {
		t.Fatalf("audit saw %d entries across sets+victim, want %d", total, len(conflict))
	}
	// Reject everything: every entry in both structures is evicted.
	if n := c.AuditEntries(func(ip.Addr, rtable.NextHop) bool { return false }); n != len(conflict) {
		t.Fatalf("reject-all evicted %d, want %d", n, len(conflict))
	}
	for _, a := range conflict {
		if got := c.Probe(a); got.Kind != Miss {
			t.Fatalf("entry %v survived reject-all audit: %+v", a, got)
		}
	}
}
