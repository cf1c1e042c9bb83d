package lulea

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"testing"

	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/partition"
	"spal/internal/rtable"
	"spal/internal/stats"
)

func table(cidrs ...string) *rtable.Table {
	var routes []rtable.Route
	for i, c := range cidrs {
		routes = append(routes, rtable.Route{Prefix: ip.MustPrefix(c), NextHop: rtable.NextHop(i + 1)})
	}
	return rtable.New(routes)
}

func TestLevel1OnlyLookup(t *testing.T) {
	tr := New(table("10.0.0.0/8", "10.1.0.0/16"))
	a, _ := ip.ParseAddr("10.1.0.5")
	nh, acc, ok := tr.Lookup(a)
	if !ok || nh != 2 {
		t.Fatalf("Lookup = (%d,%v)", nh, ok)
	}
	if acc != 4 {
		t.Errorf("level-1 lookup must cost exactly 4 accesses, got %d", acc)
	}
	l2, l3 := tr.Chunks()
	if l2 != 0 || l3 != 0 {
		t.Errorf("short prefixes must not allocate chunks: %d/%d", l2, l3)
	}
}

func TestLevel2ChunkCreation(t *testing.T) {
	tr := New(table("10.1.0.0/16", "10.1.2.0/24"))
	l2, l3 := tr.Chunks()
	if l2 != 1 || l3 != 0 {
		t.Fatalf("chunks = %d/%d, want 1/0", l2, l3)
	}
	// Inside the /24.
	a, _ := ip.ParseAddr("10.1.2.9")
	nh, acc, ok := tr.Lookup(a)
	if !ok || nh != 2 {
		t.Fatalf("Lookup = (%d,%v)", nh, ok)
	}
	if acc < 6 || acc > 8 {
		t.Errorf("two-level lookup accesses = %d, want 6..8", acc)
	}
	// Inside the /16 but outside the /24: the chunk default must be the
	// genuine /16 result.
	a, _ = ip.ParseAddr("10.1.99.1")
	if nh, _, _ := tr.Lookup(a); nh != 1 {
		t.Errorf("chunk default = %d, want 1", nh)
	}
}

func TestLevel3ChunkCreation(t *testing.T) {
	tr := New(table("10.1.0.0/16", "10.1.2.0/24", "10.1.2.128/25", "10.1.2.255/32"))
	l2, l3 := tr.Chunks()
	if l2 != 1 || l3 != 1 {
		t.Fatalf("chunks = %d/%d, want 1/1", l2, l3)
	}
	cases := []struct {
		addr string
		want rtable.NextHop
	}{
		{"10.1.2.255", 4}, // /32
		{"10.1.2.200", 3}, // /25
		{"10.1.2.7", 2},   // /24 (level-3 default)
		{"10.1.9.9", 2},   // wait: /24 covers only 10.1.2.x
	}
	cases[3].want = 1 // 10.1.9.9 matches only the /16
	for _, c := range cases {
		a, _ := ip.ParseAddr(c.addr)
		if nh, _, _ := tr.Lookup(a); nh != c.want {
			t.Errorf("Lookup(%s) = %d, want %d", c.addr, nh, c.want)
		}
	}
}

// A /16 containing only a >24-bit prefix (no 17..24 route) must still get
// a level-2 chunk routing into the level-3 chunk.
func TestDeepPrefixWithoutMidLevel(t *testing.T) {
	tr := New(table("10.0.0.0/8", "10.1.2.240/28"))
	l2, l3 := tr.Chunks()
	if l2 != 1 || l3 != 1 {
		t.Fatalf("chunks = %d/%d, want 1/1", l2, l3)
	}
	a, _ := ip.ParseAddr("10.1.2.245")
	if nh, _, _ := tr.Lookup(a); nh != 2 {
		t.Error("/28 not reachable")
	}
	a, _ = ip.ParseAddr("10.1.2.1")
	if nh, _, _ := tr.Lookup(a); nh != 1 {
		t.Error("level-3 default should fall back to /8")
	}
}

func TestNoRoute(t *testing.T) {
	tr := New(table("10.0.0.0/8"))
	a, _ := ip.ParseAddr("11.0.0.1")
	if _, _, ok := tr.Lookup(a); ok {
		t.Error("should miss outside 10/8")
	}
}

func TestChunkDensities(t *testing.T) {
	// Head counts follow the complete-prune (aligned leaf) rule. A /25
	// splitting a /24 chunk in half costs 2 heads -> sparse. n alternating
	// /32s in the first 2n slots cost 2n single-slot heads plus the
	// log-many leaves covering the rest: 16 routes -> 35 heads (dense),
	// 64 routes -> 129 heads (very dense).
	alt := func(n int) *rtable.Table {
		var routes []rtable.Route
		routes = append(routes, rtable.Route{Prefix: ip.MustPrefix("10.1.0.0/16"), NextHop: 1})
		for i := 0; i < n; i++ {
			p := ip.Prefix{Value: 0x0a010200 | uint32(i*2), Len: 32}
			routes = append(routes, rtable.Route{Prefix: p, NextHop: rtable.NextHop(i + 2)})
		}
		return rtable.New(routes)
	}
	sparseT := New(rtable.New([]rtable.Route{
		{Prefix: ip.MustPrefix("10.1.0.0/16"), NextHop: 1},
		{Prefix: ip.MustPrefix("10.1.2.128/25"), NextHop: 2},
	}))
	denseT := New(alt(16))
	vdenseT := New(alt(64))
	// The kind of the level-3 chunk level 2's slot for 10.1.2 points to.
	l3kind := func(tr *Trie) chunkKind {
		p, _ := tr.descend(tr.level1(0x0a010200), 2)
		return p.kind()
	}
	if k := l3kind(sparseT); k != sparse {
		t.Errorf("2 host routes: kind = %d, want sparse", k)
	}
	if k := l3kind(denseT); k != dense {
		t.Errorf("32 host routes: kind = %d, want dense", k)
	}
	if k := l3kind(vdenseT); k != veryDense {
		t.Errorf("128 host routes: kind = %d, want veryDense", k)
	}
	// All three must still answer correctly at every slot of the /24.
	for name, tr := range map[string]*Trie{"sparse": sparseT, "dense": denseT, "vdense": vdenseT} {
		for s := 0; s < 256; s++ {
			a := ip.Addr(0x0a010200 | uint32(s))
			nh, _, ok := tr.Lookup(a)
			if !ok {
				t.Fatalf("%s: miss at slot %d", name, s)
			}
			_ = nh
		}
	}
}

func TestHeadIndex(t *testing.T) {
	// mask 1000 0000 1000 0000: two size-8 leaves — a legal complete-prune
	// mask with heads at slots 0 and 8.
	id := idOf(0x8080)
	if headIndex(id, 0) != 1 {
		t.Errorf("headIndex(.,0) = %d", headIndex(id, 0))
	}
	if headIndex(id, 7) != 1 {
		t.Errorf("headIndex(.,7) = %d", headIndex(id, 7))
	}
	if headIndex(id, 8) != 2 {
		t.Errorf("headIndex(.,8) = %d", headIndex(id, 8))
	}
	if headIndex(id, 15) != 2 {
		t.Errorf("headIndex(.,15) = %d", headIndex(id, 15))
	}
}

func TestMaskRegistry(t *testing.T) {
	// The paper's constant: 677 pruned-tree masks plus the zero mask.
	if MaskCount() != 678 {
		t.Fatalf("MaskCount = %d, want 678", MaskCount())
	}
	// Zero mask is id 0 with zero counts.
	if idOf(0) != 0 {
		t.Error("zero mask should be id 0")
	}
	for slot := uint32(0); slot < 16; slot++ {
		if headIndex(0, slot) != 0 {
			t.Error("zero mask must count no heads")
		}
	}
	// The array marks exactly the zero mask and the enumerated masks legal,
	// with ids in ascending mask order.
	want := []uint16{0}
	for _, m := range enumerateMasks(16) {
		if !slices.Contains(want, uint16(m)) {
			want = append(want, uint16(m))
		}
	}
	slices.Sort(want)
	var legal []uint16
	for m, id := range maskTable {
		if id == illegalMask {
			continue
		}
		if int(id) != len(legal) {
			t.Fatalf("mask %016b has id %d, want %d", m, id, len(legal))
		}
		legal = append(legal, uint16(m))
	}
	if !slices.Equal(legal, want) {
		t.Fatalf("%d legal masks, want the %d enumerated", len(legal), len(want))
	}
	// An illegal mask (head at slot 3 without one at slot 0) panics.
	defer func() {
		if recover() == nil {
			t.Error("illegal mask should panic")
		}
	}()
	idOf(0x1000)
}

func TestMemoryAccounting(t *testing.T) {
	tr := New(table("10.0.0.0/8"))
	// Base cost: maptable + codewords + base indexes + at least 3 pointers
	// (noroute, 10/8 head, noroute tail).
	min := maptableBytes + 4096*codewordBytes + 1024*baseIndexBytes
	if tr.MemoryBytes() <= min {
		t.Errorf("MemoryBytes = %d, want > %d", tr.MemoryBytes(), min)
	}
	if tr.Name() != "lulea" {
		t.Error("Name mismatch")
	}
}

// Head compression: a table whose /16 slots all share one next hop must
// produce very few level-1 pointers.
func TestRunCompression(t *testing.T) {
	tr := New(table("0.0.0.0/0"))
	if len(tr.ptrs1) != 1 {
		t.Errorf("default route should compress to 1 head, got %d", len(tr.ptrs1))
	}
}

func TestAccessBounds(t *testing.T) {
	tbl := rtable.Small(20000, 23)
	tr := New(tbl)
	for i, r := range tbl.Routes() {
		if i%50 != 0 {
			continue
		}
		_, acc, _ := tr.Lookup(r.Prefix.FirstAddr())
		if acc < 4 || acc > 12 {
			t.Fatalf("accesses = %d outside [4,12] for %s", acc, r.Prefix)
		}
	}
}

// crafted builds a table with a level-2 chunk of every shape the slab
// stores, each under its own 10.k.0.0/16 (next hop 1; every other route
// gets a next hop of its own, so no two neighbouring leaves merge), and
// returns the kind each /16's chunk must have. Head counts follow the
// complete-prune rule.
func crafted() (*rtable.Table, map[ip.Addr]chunkKind) {
	var routes []rtable.Route
	next := rtable.NextHop(1)
	add := func(format string, args ...any) {
		next++
		routes = append(routes, rtable.Route{Prefix: ip.MustPrefix(fmt.Sprintf(format, args...)), NextHop: next})
	}
	kinds := map[ip.Addr]chunkKind{}
	slash16 := func(k int, kind chunkKind) {
		routes = append(routes, rtable.Route{Prefix: ip.MustPrefix(fmt.Sprintf("10.%d.0.0/16", k)), NextHop: 1})
		kinds[ip.Addr(10<<24|k<<16)] = kind
	}
	// One head: a /17 that repeats the /16's next hop.
	slash16(1, sparse)
	routes = append(routes, rtable.Route{Prefix: ip.MustPrefix("10.1.128.0/17"), NextHop: 1})
	// k = 2..9 heads: the upper half split k-1 times — heads at slots 0,
	// 128, 192, ..., so eight heads end at slot 254 and the ninth lands on
	// slot 255. A head at 255 takes all eight splits above it: the densest
	// sparse chunk cannot have one, the sparsest dense chunk here does.
	for k := 2; k <= 9; k++ {
		kind := sparse
		if k > sparseChunkHeads {
			kind = dense
		}
		slash16(k, kind)
		for split := 1; split < k; split++ {
			add("10.%d.%d.0/%d", k, 256-256>>split, 16+split)
		}
	}
	// 64 heads: 64 /22s. 65: the last of them as two /23s.
	slash16(64, dense)
	slash16(65, veryDense)
	for i := 0; i < 63; i++ {
		add("10.64.%d.0/22", 4*i)
		add("10.65.%d.0/22", 4*i)
	}
	add("10.64.252.0/22")
	add("10.65.252.0/23")
	add("10.65.254.0/23")
	// 256 heads: a /24 on every slot; one of them over a level-3 chunk of
	// alternating host routes (35 heads: dense).
	slash16(100, veryDense)
	for u := 0; u < 256; u++ {
		add("10.100.%d.0/24", u)
	}
	for i := 0; i < 16; i++ {
		add("10.100.7.%d/32", 2*i)
	}
	// A level-3 chunk under a /16 that has no 17..24-bit prefix, and one
	// whose /24 is the last slot of its level-2 chunk.
	add("11.0.0.0/8")
	add("11.1.2.240/28")
	add("11.1.255.255/32")
	return rtable.New(routes), kinds
}

// agree requires rtable.LongestMatch's verdict for every address from both
// Lookup and LookupBatch, and the same access count from the two.
func agree(t *testing.T, tbl *rtable.Table, tr *Trie, addrs []ip.Addr) {
	t.Helper()
	out := make([]lpm.Result, len(addrs))
	tr.LookupBatch(addrs, out)
	for i, a := range addrs {
		want, wantOK := tbl.LongestMatch(a)
		nh, acc, ok := tr.Lookup(a)
		if ok != wantOK || nh != want.NextHop {
			t.Fatalf("Lookup(%s) = (%d,%v), table says (%d,%v)", ip.FormatAddr(a), nh, ok, want.NextHop, wantOK)
		}
		if out[i] != (lpm.Result{NextHop: nh, Accesses: int32(acc), OK: ok}) {
			t.Fatalf("LookupBatch[%d] for %s = %+v, Lookup says (%d,%d,%v)", i, ip.FormatAddr(a), out[i], nh, acc, ok)
		}
	}
}

// edges lists, for every prefix of the table, the addresses either side of
// both its ends (wrapping at the ends of the address space, where the
// neighbour is an address all the same): where a walk changes slot, word,
// chunk or level.
func edges(tbl *rtable.Table) []ip.Addr {
	var addrs []ip.Addr
	for _, r := range tbl.Routes() {
		first, last := r.Prefix.FirstAddr(), r.Prefix.LastAddr()
		addrs = append(addrs, first-1, first, last, last+1)
	}
	return addrs
}

func TestSlabEdges(t *testing.T) {
	craftedTbl, _ := crafted()
	tables := map[string]*rtable.Table{
		"RT1":          rtable.RT1(),
		"RT2/psi4/lc2": partition.Partition(rtable.RT2(), 4).Table(2),
		"crafted":      craftedTbl,
		"default-only": table("0.0.0.0/0"),
		"empty":        rtable.New(nil),
	}
	if !testing.Short() {
		tables["RT2"] = rtable.RT2()
	}
	for name, tbl := range tables {
		agree(t, tbl, New(tbl), append(edges(tbl), 0, 1<<32-1))
		if t.Failed() {
			t.Fatalf("on %s", name)
		}
	}
}

// TestSlabChunkShapes checks that each crafted /16 got the encoding its
// head count calls for, charges the accesses of that encoding, and answers
// correctly on every slot — and every address of the two level-3 chunks.
func TestSlabChunkShapes(t *testing.T) {
	tbl, kinds := crafted()
	tr := New(tbl)
	var addrs []ip.Addr
	for base, kind := range kinds {
		p := tr.level1(base)
		if !p.isChunk() || p.kind() != kind {
			t.Errorf("%s/16: chunk %v kind %d, want kind %d", ip.FormatAddr(base), p.isChunk(), p.kind(), kind)
		}
		if _, acc, _ := tr.Lookup(base | 1<<8); acc != 4+2+int(kind) {
			t.Errorf("%s/16: a level-2 leaf cost %d accesses, want %d", ip.FormatAddr(base), acc, 4+2+int(kind))
		}
		for u := ip.Addr(0); u < chunkSlots; u++ {
			addrs = append(addrs, base|u<<8, base|u<<8|255)
		}
	}
	for _, s := range []string{"10.100.7.0", "11.1.2.0", "11.1.255.0"} {
		base, _ := ip.ParseAddr(s)
		for u := ip.Addr(0); u < chunkSlots; u++ {
			addrs = append(addrs, base|u)
		}
	}
	agree(t, tbl, tr, addrs)
	if l2, l3 := tr.Chunks(); l2 != len(kinds)+1 || l3 != 3 {
		t.Errorf("chunks = %d/%d, want %d/3", l2, l3, len(kinds)+1)
	}
}

// TestLookupBatchGroupEdges runs LookupBatch at lengths around the group
// size and checks it writes out[:len(addrs)] and nothing past it.
func TestLookupBatchGroupEdges(t *testing.T) {
	tbl := rtable.Small(5000, 11)
	tr := New(tbl)
	rng := stats.NewRNG(12)
	for _, n := range []int{0, 1, batchGroup - 1, batchGroup, batchGroup + 1, 2*batchGroup + 1, 1000} {
		addrs := make([]ip.Addr, n)
		for i := range addrs {
			addrs[i] = tbl.RandomMatchedAddr(rng)
			if i%3 == 0 {
				addrs[i] = rng.Uint32()
			}
		}
		guard := lpm.Result{NextHop: 0xbeef, Accesses: -1}
		out := make([]lpm.Result, n+1)
		out[n] = guard
		tr.LookupBatch(addrs, out)
		if out[n] != guard {
			t.Fatalf("n = %d: LookupBatch wrote past len(addrs)", n)
		}
		agree(t, tbl, tr, addrs)
	}
}

func TestLookupAllocs(t *testing.T) {
	tbl := rtable.Small(5000, 11)
	tr := New(tbl)
	rng := stats.NewRNG(13)
	addrs := make([]ip.Addr, 100)
	for i := range addrs {
		addrs[i] = tbl.RandomMatchedAddr(rng)
	}
	out := make([]lpm.Result, len(addrs))
	if n := testing.AllocsPerRun(100, func() {
		lpm.LookupAll(tr, addrs, out)
		tr.Lookup(addrs[0])
	}); n != 0 {
		t.Fatalf("LookupBatch + Lookup allocate %.1f per run", n)
	}
}

// TestConcurrentLookups shares one trie among four goroutines: LookupBatch
// keeps its state on the stack, so -race must stay quiet and every
// goroutine must read the answers a lone caller reads.
func TestConcurrentLookups(t *testing.T) {
	tbl := rtable.Small(5000, 11)
	tr := New(tbl)
	rng := stats.NewRNG(14)
	addrs := make([]ip.Addr, 999)
	for i := range addrs {
		addrs[i] = tbl.RandomMatchedAddr(rng)
	}
	want := make([]lpm.Result, len(addrs))
	tr.LookupBatch(addrs, want)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]lpm.Result, len(addrs))
			for round := 0; round < 50; round++ {
				tr.LookupBatch(addrs, out)
				for i, a := range addrs {
					nh, acc, ok := tr.Lookup(a)
					if out[i] != want[i] || want[i] != (lpm.Result{NextHop: nh, Accesses: int32(acc), OK: ok}) {
						t.Errorf("round %d: %s resolved differently under concurrency", round, ip.FormatAddr(a))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestRealBytes gates the bytes the three arrays really occupy against the
// bytes the paper's model counts (Fig. 3): a slab word is 4 bytes where the
// model counts 2, so about 1.9x; the chunk-per-allocation layout before the
// slab retained 7.2x.
func TestRealBytes(t *testing.T) {
	full := rtable.RT2()
	parts := partition.Partition(full, 4)
	tables := append([]*rtable.Table{full}, parts.Tables()...)
	for i, tbl := range tables {
		tr := New(tbl)
		if real, model := tr.realBytes(), tr.MemoryBytes(); float64(real) > 2.2*float64(model) {
			t.Errorf("table %d: %d real bytes for %d modelled (%.2fx), want <= 2.2x", i, real, model, float64(real)/float64(model))
		}
		if cap(tr.slab) != len(tr.slab) {
			t.Errorf("table %d: slab keeps %d words of slack", i, cap(tr.slab)-len(tr.slab))
		}
	}
}

// TestBuildGolden pins what New builds for RT2 and its ψ = 4 partitions —
// code1, ptrs1, slab, MemoryBytes and the chunk counts, by FNV-64a hash —
// as the map-backed maptable built them.
func TestBuildGolden(t *testing.T) {
	full := rtable.RT2()
	parts := partition.Partition(full, 4)
	tables := append([]*rtable.Table{full}, parts.Tables()...)
	want := []uint64{0x3a762613f8f295b9, 0x35db663f5f20124f, 0xd1883cf1377bcca8, 0xb2061fd98d1ae9e8, 0x56c4ea6e32f90faf}
	for i, tbl := range tables {
		tr := New(tbl)
		h := fnv.New64a()
		put := func(v uint32) { h.Write(binary.LittleEndian.AppendUint32(nil, v)) }
		for _, w := range tr.code1 {
			put(w)
		}
		for _, p := range tr.ptrs1 {
			put(uint32(p))
		}
		for _, w := range tr.slab {
			put(w)
		}
		l2, l3 := tr.Chunks()
		put(uint32(tr.MemoryBytes()))
		put(uint32(l2))
		put(uint32(l3))
		if got := h.Sum64(); got != want[i] {
			t.Errorf("table %d: build hash %#x, want %#x", i, got, want[i])
		}
	}
}

// paint writes routes into a slot array. Routes come in table order —
// (value, length), so a prefix precedes every prefix nested in it — and
// longer prefixes therefore overwrite shorter ones. levelLen is the address
// depth the level's last slot bit corresponds to (16, 24 or 32); the slot
// index is the address bits ending at levelLen, modulo the array size.
func paint(vals []pointer, routes []rtable.Route, levelLen uint8) {
	for _, r := range routes {
		span := 1 << (levelLen - r.Prefix.Len)
		start := int(r.Prefix.Value>>(32-levelLen)) & (len(vals) - 1)
		for s := start; s < start+span; s++ {
			vals[s] = leaf(r.NextHop)
		}
	}
}

func fill(vals []pointer, p pointer) {
	for i := range vals {
		vals[i] = p
	}
}

// slotNew is the slot builder New replaced, kept as its oracle: each level
// painted into a 2^16- or 256-slot value array, heads marked by markHeads
// over the slots, codewords and pointers encoded from the marks.
func slotNew(t *rtable.Table) *Trie {
	// Prefixes by the level that stores them, each list still in table order.
	var short, mid, deep []rtable.Route // length <= 16, 17..24, 25..32
	for _, r := range t.Routes() {
		switch {
		case r.Prefix.Len <= 16:
			short = append(short, r)
		case r.Prefix.Len <= 24:
			mid = append(mid, r)
		default:
			deep = append(deep, r)
		}
	}
	tr := &Trie{memBytes: maptableBytes}

	// Level 1: paint the 2^16 genuine values.
	vals := make([]pointer, level1Slots)
	fill(vals, noRoute)
	paint(vals, short, 16)

	// A /16 slot needs a level-2 chunk when it has a 17..24-bit prefix, or
	// a deeper (25..32) one even when no mid-length one exists. Both lists
	// ascend, so the next such slot is at the head of one of them.
	var c2, c3 [chunkSlots]pointer
	for len(mid)+len(deep) > 0 {
		s := uint32(level1Slots)
		if len(mid) > 0 {
			s = mid[0].Prefix.Value >> 16
		}
		if len(deep) > 0 {
			s = min(s, deep[0].Prefix.Value>>16)
		}
		var m, d, d3 []rtable.Route
		m, mid = under(mid, 16, s)
		d, deep = under(deep, 16, s)
		fill(c2[:], vals[s]) // genuine <=16 LPM for the whole /16
		paint(c2[:], m, 24)
		// Level-3 chunks nested under this /16: one per /24 with a deep prefix.
		for len(d) > 0 {
			u := d[0].Prefix.Value >> 8
			d3, d = under(d, 8, u)
			fill(c3[:], c2[u%chunkSlots])
			paint(c3[:], d3, 32)
			c2[u%chunkSlots] = slotEmit(tr, c3[:])
			tr.chunks[1]++
		}
		vals[s] = slotEmit(tr, c2[:])
		tr.chunks[0]++
	}
	if len(tr.slab) > int(slabOffsetMask) {
		panic("lulea: slab outgrew the chunk pointers' offset bits")
	}
	// Clip to the exact length: append's slack would live as long as the trie.
	tr.slab = append(make([]uint32, 0, len(tr.slab)), tr.slab...)

	// Compress level 1 into codewords and pointers. Heads follow the
	// complete-prune rule (aligned leaves), so every word's mask is one of
	// the 678 legal maptable masks.
	heads := make([]bool, level1Slots)
	tr.code1 = make([]uint32, level1Slots/slotsPerWord)
	tr.ptrs1 = make([]pointer, markHeads(vals, heads, 0, level1Slots))
	slotEncode(vals, heads, tr.code1, tr.ptrs1)
	tr.memBytes += len(tr.code1)*codewordBytes + len(tr.code1)/wordsPerBase*baseIndexBytes + len(tr.ptrs1)*pointerBytes
	return tr
}

// slotEncode compresses vals into one codeword per 16 slots and the head
// pointers in slot order; the caller sizes code and ptrs.
func slotEncode[T ~uint32](vals []pointer, heads []bool, code []uint32, ptrs []T) {
	n := 0
	for w := range code {
		var mask uint16
		before := n
		for i := 0; i < slotsPerWord; i++ {
			if s := w*slotsPerWord + i; heads[s] {
				mask |= 1 << (15 - uint(i))
				ptrs[n] = T(vals[s])
				n++
			}
		}
		code[w] = codeword(mask, before)
	}
}

// slotEmit appends a 256-slot value array to the slab as one self-contained
// chunk, choosing the density by head count and charging the chunk's
// modelled bytes, and returns the pointer to it. Heads follow the
// complete-prune rule so dense and very dense chunks get legal maptable
// masks.
func slotEmit(tr *Trie, vals []pointer) pointer {
	var heads [chunkSlots]bool
	n, at := markHeads(vals, heads[:], 0, chunkSlots), len(tr.slab)
	tr.memBytes += chunkHandleBytes + n*pointerBytes
	if n <= sparseChunkHeads {
		// Two words of head offsets, ascending from the low byte of the
		// first, then the eight pointers. Places past the last head repeat
		// it, so descend's scan needs no length.
		tr.memBytes += sparseChunkHeads
		tr.slab = append(tr.slab, make([]uint32, sparseWords+sparseChunkHeads)...)
		c := tr.slab[at:]
		s := 0 // slot 0 is always a head
		for k := 0; k < sparseChunkHeads; k++ {
			c[k/4] |= uint32(s) << (k % 4 * 8)
			c[sparseWords+k] = uint32(vals[s])
			for next := s + 1; next < chunkSlots; next++ {
				if heads[next] {
					s = next
					break
				}
			}
		}
		return chunkTag | pointer(sparse)<<kindShift | pointer(at)
	}
	// Sixteen codewords, then the pointers they index.
	kind := dense
	tr.memBytes += chunkWords * codewordBytes
	if n > denseChunkHeads {
		kind = veryDense
		tr.memBytes += chunkWords / wordsPerBase * baseIndexBytes
	}
	tr.slab = append(tr.slab, make([]uint32, chunkWords+n)...)
	slotEncode(vals, heads[:], tr.slab[at:at+chunkWords], tr.slab[at+chunkWords:])
	return chunkTag | pointer(kind)<<kindShift | pointer(at)
}

// markHeads sets the head positions of vals[lo:lo+size] (size a power of
// two) per the complete-prune rule: a region of equal pointers is one
// leaf with a single head at its start; otherwise split in half and
// recurse. heads must be pre-sized to len(vals). It returns the number of
// heads it set.
func markHeads(vals []pointer, heads []bool, lo, size int) int {
	uniform := true
	for i := lo + 1; i < lo+size; i++ {
		if vals[i] != vals[lo] {
			uniform = false
			break
		}
	}
	if uniform {
		heads[lo] = true
		return 1
	}
	return markHeads(vals, heads, lo, size/2) + markHeads(vals, heads, lo+size/2, size/2)
}

// sameBuild requires the trie New built to be the slot builder's, array for
// array.
func sameBuild(t *testing.T, tbl *rtable.Table) {
	t.Helper()
	got, want := New(tbl), slotNew(tbl)
	gl2, gl3 := got.Chunks()
	wl2, wl3 := want.Chunks()
	switch {
	case !slices.Equal(got.code1, want.code1):
		t.Fatal("code1 differs from the slot builder's")
	case !slices.Equal(got.ptrs1, want.ptrs1):
		t.Fatalf("ptrs1: %d heads, the slot builder's %d", len(got.ptrs1), len(want.ptrs1))
	case !slices.Equal(got.slab, want.slab):
		t.Fatalf("slab: %d words, the slot builder's %d", len(got.slab), len(want.slab))
	case got.MemoryBytes() != want.MemoryBytes():
		t.Fatalf("MemoryBytes %d, the slot builder's %d", got.MemoryBytes(), want.MemoryBytes())
	case gl2 != wl2 || gl3 != wl3:
		t.Fatalf("chunks %d/%d, the slot builder's %d/%d", gl2, gl3, wl2, wl3)
	}
}

// TestBuildMatchesSlotBuilder holds the run-based New to the slot builder
// it replaced on the tables the router and the simulator build: RT1, RT2
// and RT2's partitions at ψ = 1, 4 and 16, small synthetic tables and the
// crafted chunk shapes.
func TestBuildMatchesSlotBuilder(t *testing.T) {
	craftedTbl, _ := crafted()
	tables := map[string]*rtable.Table{
		"RT1":          rtable.RT1(),
		"RT2":          rtable.RT2(),
		"crafted":      craftedTbl,
		"default-only": table("0.0.0.0/0"),
		"empty":        rtable.New(nil),
	}
	for _, seed := range []uint64{1, 2, 3} {
		tables[fmt.Sprintf("Small/seed=%d", seed)] = rtable.Small(5000, seed)
	}
	for _, psi := range []int{1, 4, 16} {
		for i, tbl := range partition.Partition(tables["RT2"], psi).Tables() {
			tables[fmt.Sprintf("RT2/psi=%d/lc=%d", psi, i)] = tbl
		}
	}
	for name, tbl := range tables {
		t.Run(name, func(t *testing.T) { sameBuild(t, tbl) })
	}
}

// fuzzTable decodes four bytes a route. Byte 0 gives the length (mod 33)
// and one of three next hops, so neighbouring runs often share one; bytes
// 1..3 the address, under 10.0.0.0/14 — a few /16s, so prefixes nest and
// share chunks — or, when byte 1's top bit is set, anywhere from its top
// 16 bits.
func fuzzTable(data []byte) *rtable.Table {
	var routes []rtable.Route
	for ; len(data) >= 4; data = data[4:] {
		a := 10<<24 | uint32(data[1]&3)<<16 | uint32(data[2])<<8 | uint32(data[3])
		if data[1]&0x80 != 0 {
			a = uint32(data[1])<<24 | uint32(data[2])<<16 | uint32(data[3])<<8
		}
		p := ip.Prefix{Value: a, Len: data[0] % 33}
		routes = append(routes, rtable.Route{Prefix: p.Canon(), NextHop: rtable.NextHop(1 + data[0]/33%3)})
	}
	return rtable.New(routes)
}

// fuzzRoute is fuzzTable's encoding of a route under 10.0.0.0/14 with next
// hop 1..3.
func fuzzRoute(cidr string, nh int) []byte {
	p := ip.MustPrefix(cidr)
	return []byte{p.Len + 33*byte(nh-1), byte(p.Value >> 16 & 3), byte(p.Value >> 8), byte(p.Value)}
}

// fuzzSeeds are route sets around the levels' boundaries: /0, /16–/17 and
// /24–/25, /32s, a chunk pointer between runs of one next hop, and chunks
// of exactly 8, 9, 64 and 65 heads at both levels.
func fuzzSeeds() (seeds [][]byte) {
	seed := func(routes ...[]byte) { seeds = append(seeds, slices.Concat(routes...)) }
	seed(fuzzRoute("0.0.0.0/0", 1), fuzzRoute("10.0.0.0/16", 2), fuzzRoute("10.0.128.0/17", 1),
		fuzzRoute("10.0.1.0/24", 3), fuzzRoute("10.0.1.128/25", 2), fuzzRoute("10.0.1.255/32", 1),
		fuzzRoute("10.1.255.255/32", 3), fuzzRoute("10.3.0.0/32", 2))
	// A chunk pointer at 10.1/16 between /16s of its own next hop.
	seed(fuzzRoute("10.0.0.0/16", 1), fuzzRoute("10.1.0.0/16", 1), fuzzRoute("10.1.7.0/24", 2),
		fuzzRoute("10.2.0.0/15", 1))
	// k heads: the upper half split k-1 times, next hops alternating.
	splits := func(base string, k int) []byte {
		p := ip.MustPrefix(base)
		var b []byte
		for split := 1; split < k; split++ {
			q := ip.Prefix{Value: p.Value | (1<<(32-p.Len) - 1<<(32-p.Len-uint8(split))), Len: p.Len + uint8(split)}
			b = append(b, fuzzRoute(q.String(), 1+split%2)...)
		}
		return b
	}
	for _, k := range []int{8, 9} {
		seed(fuzzRoute("10.0.0.0/16", 3), splits("10.0.0.0/16", k), splits("10.1.4.0/24", k))
	}
	// 64 and 65 heads: 64 blocks of alternating next hops, the last split.
	blocks := func(base string, l uint8, n int, last bool) []byte {
		p := ip.MustPrefix(base)
		var b []byte
		for i := 0; i < n; i++ {
			q := ip.Prefix{Value: p.Value + uint32(i)<<(32-l), Len: l}
			nh := 1 + i%2
			if i == n-1 && last {
				b = append(b, fuzzRoute(ip.Prefix{Value: q.Value, Len: l + 1}.String(), nh)...)
				q, nh = ip.Prefix{Value: q.Value | 1<<(31-l), Len: l + 1}, 3
			}
			b = append(b, fuzzRoute(q.String(), nh)...)
		}
		return b
	}
	for _, last := range []bool{false, true} {
		seed(blocks("10.2.0.0/16", 22, 64, last), blocks("10.1.9.0/24", 30, 64, last))
	}
	return seeds
}

// FuzzBuildMatchesSlotBuilder holds New to the slot builder on fuzzTable's
// route sets, starting from fuzzSeeds.
func FuzzBuildMatchesSlotBuilder(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sameBuild(t, fuzzTable(data))
	})
}
