package trace

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"testing"

	"spal/internal/ip"
	"spal/internal/rtable"
	"spal/internal/stats"
)

func testPool(t *testing.T, cfg Config) (*Pool, *rtable.Table) {
	t.Helper()
	tbl := rtable.Small(3000, 7)
	return NewPool(tbl, cfg), tbl
}

func TestPoolAddressesMatchTable(t *testing.T) {
	cfg := Config{PoolSize: 500, ZipfS: 1.0, MeanTrain: 2, Seed: 1}
	pool, tbl := testPool(t, cfg)
	if pool.Size() != 500 {
		t.Fatalf("Size = %d", pool.Size())
	}
	for _, a := range pool.addrs {
		if _, ok := tbl.LookupLinear(a); !ok {
			t.Fatalf("pool address %s unmatched", ip.FormatAddr(a))
		}
	}
	// Distinctness.
	seen := make(map[ip.Addr]bool)
	for _, a := range pool.addrs {
		if seen[a] {
			t.Fatal("duplicate pool address")
		}
		seen[a] = true
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	cfg := Config{PoolSize: 100, ZipfS: 1.0, MeanTrain: 3, Seed: 5}
	pool, _ := testPool(t, cfg)
	a := Slice(NewSynthetic(pool, cfg, 2), 1000)
	b := Slice(NewSynthetic(pool, cfg, 2), 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same salt must give identical streams")
		}
	}
	c := Slice(NewSynthetic(pool, cfg, 3), 1000)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different salts should diverge")
	}
}

func TestTrainsProduceRuns(t *testing.T) {
	cfg := Config{PoolSize: 5000, ZipfS: 0.5, MeanTrain: 5, Seed: 9}
	pool, _ := testPool(t, cfg)
	addrs := Slice(NewSynthetic(pool, cfg, 1), 50000)
	repeats := 0
	for i := 1; i < len(addrs); i++ {
		if addrs[i] == addrs[i-1] {
			repeats++
		}
	}
	frac := float64(repeats) / float64(len(addrs)-1)
	// MeanTrain 5 -> repeat probability 0.8 (plus accidental repeats).
	if frac < 0.75 || frac > 0.87 {
		t.Errorf("repeat fraction = %.3f, want ~0.80", frac)
	}
}

func TestMeanTrainOneDisablesRuns(t *testing.T) {
	cfg := Config{PoolSize: 5000, ZipfS: 0.2, MeanTrain: 1, Seed: 9}
	pool, _ := testPool(t, cfg)
	addrs := Slice(NewSynthetic(pool, cfg, 1), 20000)
	repeats := 0
	for i := 1; i < len(addrs); i++ {
		if addrs[i] == addrs[i-1] {
			repeats++
		}
	}
	if frac := float64(repeats) / float64(len(addrs)-1); frac > 0.05 {
		t.Errorf("repeat fraction = %.3f with trains disabled", frac)
	}
}

func TestZipfSkewConcentratesTraffic(t *testing.T) {
	flat := Config{PoolSize: 2000, ZipfS: 0.1, MeanTrain: 1, Seed: 3}
	skew := Config{PoolSize: 2000, ZipfS: 1.3, MeanTrain: 1, Seed: 3}
	poolF, _ := testPool(t, flat)
	poolS, _ := testPool(t, skew)
	aF := Slice(NewSynthetic(poolF, flat, 1), 40000)
	aS := Slice(NewSynthetic(poolS, skew, 1), 40000)
	shareF := TopShare(aF, 200) // top 10%
	shareS := TopShare(aS, 200)
	if shareS <= shareF {
		t.Errorf("skewed TopShare %.3f should exceed flat %.3f", shareS, shareF)
	}
	if shareS < 0.6 {
		t.Errorf("skewed top-10%% share = %.3f, want heavy concentration", shareS)
	}
}

func TestPresetsProduceLocalityRegime(t *testing.T) {
	// The paper's premise: a 4K-entry cache sees hit rates >= 0.93 on
	// these streams. StackHitRatio at depth 4096 is the geometry-free
	// upper-bound analogue; require > 0.90 for every preset.
	tbl := rtable.Small(20000, 4)
	for _, p := range Presets {
		cfg := PresetConfig(p)
		pool := NewPool(tbl, cfg)
		addrs := Slice(NewSynthetic(pool, cfg, 0), 60000)
		r := StackHitRatio(addrs, 4096)
		if r < 0.90 {
			t.Errorf("%s: stack hit ratio %.3f at depth 4096, want >= 0.90", p, r)
		}
	}
}

func TestPresetsAreDistinct(t *testing.T) {
	seen := make(map[int]bool)
	for _, p := range Presets {
		cfg := PresetConfig(p)
		if seen[cfg.PoolSize] {
			t.Errorf("%s: duplicate pool size %d", p, cfg.PoolSize)
		}
		seen[cfg.PoolSize] = true
	}
}

func TestPresetConfigPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	PresetConfig(Preset("nope"))
}

func TestWriteReadRoundTrip(t *testing.T) {
	cfg := Config{PoolSize: 50, ZipfS: 1, MeanTrain: 2, Seed: 2}
	pool, _ := testPool(t, cfg)
	addrs := Slice(NewSynthetic(pool, cfg, 0), 500)
	var buf bytes.Buffer
	if err := Write(&buf, addrs); err != nil {
		t.Fatal(err)
	}
	fs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Len() != len(addrs) {
		t.Fatalf("Len = %d, want %d", fs.Len(), len(addrs))
	}
	back := Slice(fs, len(addrs)+10)
	for i := range addrs {
		if back[i] != addrs[i] {
			t.Fatal("round trip altered addresses")
		}
	}
	// Exhaustion then rewind.
	if _, ok := fs.Next(); ok {
		t.Error("exhausted source should return ok=false")
	}
	fs.Rewind()
	if _, ok := fs.Next(); !ok {
		t.Error("rewind should restart")
	}
}

func TestReadSkipsCommentsAndRejectsGarbage(t *testing.T) {
	fs, err := Read(strings.NewReader("# hi\n\n1.2.3.4\n"))
	if err != nil || fs.Len() != 1 {
		t.Fatalf("Read: %v len=%d", err, fs.Len())
	}
	if _, err := Read(strings.NewReader("not-an-ip\n")); err == nil {
		t.Error("want parse error")
	}
}

func TestStackHitRatio(t *testing.T) {
	// a b a b ... : depth 2 catches every re-reference, depth 1 none.
	addrs := make([]ip.Addr, 100)
	for i := range addrs {
		addrs[i] = ip.Addr(i % 2)
	}
	if r := StackHitRatio(addrs, 2); r != 0.98 {
		t.Errorf("depth 2 ratio = %v, want 0.98 (98 hits / 100)", r)
	}
	if r := StackHitRatio(addrs, 1); r != 0 {
		t.Errorf("depth 1 ratio = %v, want 0", r)
	}
	if StackHitRatio(nil, 4) != 0 || StackHitRatio(addrs, 0) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestStackHitRatioEviction(t *testing.T) {
	// Cyclic scan over 3 addresses with depth 2: every access misses
	// (classic LRU pathological case).
	addrs := make([]ip.Addr, 90)
	for i := range addrs {
		addrs[i] = ip.Addr(i % 3)
	}
	if r := StackHitRatio(addrs, 2); r != 0 {
		t.Errorf("cyclic scan ratio = %v, want 0", r)
	}
	if r := StackHitRatio(addrs, 3); r < 0.95 {
		t.Errorf("depth 3 should capture the cycle: %v", r)
	}
}

func TestWorkingSet(t *testing.T) {
	addrs := []ip.Addr{1, 1, 2, 2, 3, 3, 4, 4}
	if ws := WorkingSet(addrs, 4); ws != 2 {
		t.Errorf("WorkingSet = %v, want 2", ws)
	}
	if WorkingSet(nil, 4) != 0 || WorkingSet(addrs, 0) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestTopShare(t *testing.T) {
	addrs := []ip.Addr{1, 1, 1, 1, 2, 3, 4, 5}
	if s := TopShare(addrs, 1); s != 0.5 {
		t.Errorf("TopShare(1) = %v, want 0.5", s)
	}
	if s := TopShare(addrs, 100); s != 1.0 {
		t.Errorf("TopShare(all) = %v, want 1", s)
	}
	if TopShare(nil, 1) != 0 {
		t.Error("empty TopShare should be 0")
	}
}

func TestNewPoolPanicsOnZeroSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewPool(rtable.Small(10, 1), Config{PoolSize: 0})
}

// A table that matches fewer distinct addresses than the pool holds used
// to make NewPool redraw forever; now it panics naming both counts. One
// that matches exactly enough still fills the pool.
func TestNewPoolPanicsOnTooFewAddrs(t *testing.T) {
	tbl := rtable.New([]rtable.Route{
		{Prefix: ip.MustPrefix("10.0.0.0/24"), NextHop: 1},
		{Prefix: ip.MustPrefix("10.0.0.128/25"), NextHop: 2}, // nested: adds no address
		{Prefix: ip.MustPrefix("10.0.1.7/32"), NextHop: 3},
	})
	if n := matchedAddrs(tbl); n != 257 {
		t.Fatalf("matchedAddrs = %d, want 257", n)
	}
	if p := NewPool(tbl, Config{PoolSize: 257, ZipfS: 1, Seed: 1}); p.Size() != 257 {
		t.Fatalf("Size = %d, want 257", p.Size())
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "257") || !strings.Contains(msg, "24000") {
			t.Errorf("panic %q, want one naming 257 addresses and PoolSize 24000", msg)
		}
	}()
	NewPool(tbl, PresetConfig(D75))
}

// TestPoolDrawMatchesSearch holds the guide-table draw to the bisection it
// replaced, sort.SearchFloat64s clamped to the last rank, at every CDF
// value, its neighbours either side, both ends of [0, 1) and 10^6 random
// draws, for the five presets and pool sizes around guideSize.
func TestPoolDrawMatchesSearch(t *testing.T) {
	search := func(cdf []float64, u float64) int {
		return min(sort.SearchFloat64s(cdf, u), len(cdf)-1)
	}
	type shape struct {
		n int
		s float64
	}
	var shapes []shape
	for _, p := range Presets {
		cfg := PresetConfig(p)
		shapes = append(shapes, shape{cfg.PoolSize, cfg.ZipfS})
	}
	for _, n := range []int{1, 2, 3, guideSize - 1, guideSize, guideSize + 1, 65537} {
		shapes = append(shapes, shape{n, PresetConfig(D75).ZipfS})
	}
	rng := stats.NewRNG(1)
	for _, sh := range shapes {
		cdf := zipfCDF(sh.n, sh.s)
		p := &Pool{cdf: cdf, guide: cutpoints(cdf)}
		us := []float64{0, 1 - 0x1p-53}
		for _, c := range cdf {
			us = append(us, c, math.Nextafter(c, 0), math.Nextafter(c, 2))
		}
		for i := 0; i < 1e6; i++ {
			us = append(us, rng.Float64())
		}
		for _, u := range us {
			if u < 0 || u >= 1 {
				continue
			}
			if got, want := p.index(u), search(cdf, u); got != want {
				t.Fatalf("n=%d s=%v u=%v: index %d, search %d", sh.n, sh.s, u, got, want)
			}
		}
	}
}

// TestStreamGolden pins the first 2^20 addresses of every preset's stream
// (salt 0) over RT2 and a small table by their FNV-64a hash, as the
// bisection draw produced them before the guide table replaced it.
func TestStreamGolden(t *testing.T) {
	want := map[string]map[Preset]uint64{
		"RT2": {
			D75: 0x6121f9cc4a4257b9, D81: 0x36249a4b67cbbf4b, L920: 0x2839bf93bbcff208,
			L921: 0xe1b31692a487c040, BL: 0x2ede0d491a77e783,
		},
		"Small(5000,1)": {
			D75: 0x1a8af8eda222b57f, D81: 0x321e47d529fb8e38, L920: 0xa5089edeb349868d,
			L921: 0xe9b830bbb985a904, BL: 0xdfe331e737d48b4e,
		},
	}
	tables := map[string]*rtable.Table{"RT2": rtable.RT2(), "Small(5000,1)": rtable.Small(5000, 1)}
	for name, tbl := range tables {
		for _, p := range Presets {
			cfg := PresetConfig(p)
			src := NewSynthetic(NewPool(tbl, cfg), cfg, 0)
			h := fnv.New64a()
			var b [4]byte
			for i := 0; i < 1<<20; i++ {
				a, _ := src.Next()
				binary.BigEndian.PutUint32(b[:], uint32(a))
				h.Write(b[:])
			}
			if got := h.Sum64(); got != want[name][p] {
				t.Errorf("%s %s: stream hash %#x, want %#x", name, p, got, want[name][p])
			}
		}
	}
}
