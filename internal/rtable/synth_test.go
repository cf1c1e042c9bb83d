package rtable

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"spal/internal/ip"
	"spal/internal/stats"
)

// synthHash is an FNV-64a hash of a table's (value, length, next hop)
// triples in table order.
func synthHash(t *Table) uint64 {
	h := fnv.New64a()
	var b [7]byte
	for _, r := range t.Routes() {
		binary.BigEndian.PutUint32(b[:4], r.Prefix.Value)
		b[4] = r.Prefix.Len
		binary.BigEndian.PutUint16(b[5:], uint16(r.NextHop))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestSynthGolden pins the synthesized tables route for route: a change to
// the generator that moves one prefix or next hop, or one RNG call, moves a
// hash.
func TestSynthGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		tbl  func() *Table
		want uint64
	}{
		{"RT1", RT1, 0x5c6be6f2119ef70c},
		{"RT2", RT2, 0x794b3f9ec32e6c0d},
		{"Small(5000,1)", func() *Table { return Small(5000, 1) }, 0xc908565d61a0f98f},
		{"Small(3000,77)", func() *Table { return Small(3000, 77) }, 0xd69a4dd58d8947ef},
	} {
		if got := synthHash(tc.tbl()); got != tc.want {
			t.Errorf("%s: hash %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}

// TestSynthesizeMillion builds a table at the ~1 M-prefix scale of a
// present-day backbone: exactly N prefixes, no length past what the
// generator can draw.
func TestSynthesizeMillion(t *testing.T) {
	const n = 1_000_000
	tbl := Synthesize(SynthConfig{N: n, NextHops: 16, NestProb: 0.35, Seed: 0x5e3d_0003})
	if tbl.Len() != n {
		t.Fatalf("Len = %d, want %d", tbl.Len(), n)
	}
	for l, c := range tbl.LengthHistogram() {
		if c > genCapacity(uint8(l)) {
			t.Errorf("/%d: %d prefixes, capacity %d", l, c, genCapacity(uint8(l)))
		}
	}
}

// TestPrefixSetMatchesMap drives prefixSet and a map[ip.Prefix]bool with the
// same inserts and lookups: duplicates, /1 and /32, sets filled to the n they
// were made for, and keys that share a home slot, so probes run long and
// wrap past the end of the table.
func TestPrefixSetMatchesMap(t *testing.T) {
	rng := stats.NewRNG(43)
	check := func(name string, n int, draw func() ip.Prefix) {
		s, ref := newPrefixSet(n), make(map[ip.Prefix]bool, n)
		for len(ref) < n {
			p := draw()
			if got := s.insert(p); got == ref[p] {
				t.Fatalf("%s: insert(%v) = %v, map holds it: %v", name, p, got, ref[p])
			}
			ref[p] = true
			// A lookup that inserts nothing: p is found, a fresh draw is
			// found exactly when the map holds it.
			if q := draw(); (s.slots[s.find(prefixKey(q))] != 0) != ref[q] || s.slots[s.find(prefixKey(p))] == 0 {
				t.Fatalf("%s: lookup of %v or %v differs from the map", name, p, q)
			}
		}
		used := 0
		for _, k := range s.slots {
			if k != 0 {
				used++
			}
		}
		if used != n {
			t.Errorf("%s: %d slots used for %d prefixes", name, used, n)
		}
	}
	random := func() ip.Prefix {
		l := uint8(1 + rng.Intn(32))
		return ip.Prefix{Value: rng.Uint32() & ip.Mask(l), Len: l}
	}
	check("random", 5000, random)
	check("n=1", 1, random)
	few := func() ip.Prefix { // 2 /1s and 200 /32s: many repeats
		if rng.Bool(0.5) {
			return ip.Prefix{Value: rng.Uint32() & ip.Mask(1), Len: 1}
		}
		return ip.Prefix{Value: 10<<24 | uint32(rng.Intn(200)), Len: 32}
	}
	check("/1 and /32", 202, few)

	// Prefixes whose keys hash to the last slot of a 512-slot set: each insert
	// probes past every earlier one and wraps to slot 0.
	const n = 256
	probe := newPrefixSet(n)
	var same []ip.Prefix
	for v := uint32(0); len(same) < n; v++ {
		p := ip.Prefix{Value: v << 8, Len: 24}
		if probe.home(prefixKey(p)) == len(probe.slots)-1 {
			same = append(same, p)
		}
	}
	check("one home slot", n, func() ip.Prefix { return same[rng.Intn(n)] })
}

// BenchmarkSynthesize prices the tables set-up synthesizes: RT2, which every
// router, simulator and ladder workload starts from, and the Small tables
// the tests build by the hundred.
func BenchmarkSynthesize(b *testing.B) {
	b.Run("table=RT2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			RT2()
		}
	})
	b.Run("table=Small3000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Small(3000, 77)
		}
	})
}
