package lpm_test

import (
	"testing"
	"testing/quick"

	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/lpm/engines"
	"spal/internal/lpm/lulea"
	"spal/internal/lpm/stride24"
	"spal/internal/rtable"
	"spal/internal/stats"
)

// tooLargeToSweep is the one registered engine the high-volume sweeps
// (the tests below that build an engine per table, and both fuzzers)
// leave out: 32 MiB per build. Its own cross-checks below cover it.
const tooLargeToSweep = "stride24"

// builders is every other registered engine, in name order.
var builders = func() []lpm.Builder {
	all := engines.Builders()
	var out []lpm.Builder
	for _, name := range engines.Names() {
		if name != tooLargeToSweep {
			out = append(out, all[name])
		}
	}
	return out
}()

// checkAgainstOracle verifies that an engine agrees with the hash oracle on
// a mixed workload of matched and uniform-random addresses.
func checkAgainstOracle(t *testing.T, e lpm.Engine, tbl *rtable.Table, n int, seed uint64) {
	t.Helper()
	oracle := lpm.NewReference(tbl)
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		var a ip.Addr
		if i%2 == 0 && tbl.Len() > 0 {
			a = tbl.RandomMatchedAddr(rng)
		} else {
			a = rng.Uint32()
		}
		wantNH, _, wantOK := oracle.Lookup(a)
		gotNH, acc, gotOK := e.Lookup(a)
		if gotOK != wantOK || (gotOK && gotNH != wantNH) {
			t.Fatalf("%s: Lookup(%s) = (%d,%v), oracle says (%d,%v)",
				e.Name(), ip.FormatAddr(a), gotNH, gotOK, wantNH, wantOK)
		}
		if acc < 0 {
			t.Fatalf("%s: negative access count", e.Name())
		}
	}
}

func TestEnginesAgreeWithOracleSynthetic(t *testing.T) {
	sizes := []int{1, 5, 73, 1000, 20000}
	for _, size := range sizes {
		tbl := rtable.Small(size, uint64(size)*13+1)
		for _, build := range builders {
			e := build(tbl)
			checkAgainstOracle(t, e, tbl, 4000, uint64(size))
		}
	}
}

func TestStride24AgreesWithOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates 32 MiB per table")
	}
	tbl := rtable.Small(5000, 99)
	checkAgainstOracle(t, stride24.NewEngine(tbl), tbl, 4000, 7)
}

// TestEnginesAgreeOnAdversarialTables exercises hand-built corner cases:
// default routes, nested chains, adjacent short/long prefixes (the LC-trie
// rescue path), and host routes.
func TestEnginesAgreeOnAdversarialTables(t *testing.T) {
	tables := map[string][]string{
		"default-only": {"0.0.0.0/0"},
		"deep-nest": {
			"0.0.0.0/0", "128.0.0.0/1", "192.0.0.0/2", "224.0.0.0/3",
			"240.0.0.0/4", "248.0.0.0/5", "252.0.0.0/6", "254.0.0.0/7",
			"255.0.0.0/8", "255.255.255.255/32",
		},
		"short-long-siblings": {
			// A short leaf next to a deep cluster: stresses level
			// compression over padded strings.
			"10.128.0.0/9", "10.0.0.0/15", "10.2.0.0/15", "10.4.1.0/24",
			"10.4.2.0/24", "10.4.3.0/24", "10.4.4.0/24", "10.4.5.0/24",
		},
		"host-routes": {
			"1.2.3.4/32", "1.2.3.5/32", "1.2.3.0/24", "1.2.0.0/16",
		},
		"exceptions": {
			"20.0.0.0/8", "20.1.0.0/16", "20.1.1.0/24", "20.1.1.128/25",
			"20.1.1.192/26", "20.1.1.224/27",
		},
	}
	for name, cidrs := range tables {
		var routes []rtable.Route
		for i, c := range cidrs {
			routes = append(routes, rtable.Route{Prefix: ip.MustPrefix(c), NextHop: rtable.NextHop(i + 1)})
		}
		tbl := rtable.New(routes)
		for _, build := range builders {
			e := build(tbl)
			// Exhaustive-ish: probe all boundary addresses of every prefix
			// plus randoms.
			oracle := lpm.NewReference(tbl)
			probe := func(a ip.Addr) {
				wantNH, _, wantOK := oracle.Lookup(a)
				gotNH, _, gotOK := e.Lookup(a)
				if gotOK != wantOK || (gotOK && gotNH != wantNH) {
					t.Errorf("%s/%s: Lookup(%s) = (%d,%v), want (%d,%v)",
						name, e.Name(), ip.FormatAddr(a), gotNH, gotOK, wantNH, wantOK)
				}
			}
			for _, r := range tbl.Routes() {
				probe(r.Prefix.FirstAddr())
				probe(r.Prefix.LastAddr())
				if r.Prefix.Len < 32 {
					probe(r.Prefix.FirstAddr() + 1)
					probe(r.Prefix.LastAddr() - 1)
				}
			}
			rng := stats.NewRNG(3)
			for i := 0; i < 2000; i++ {
				probe(rng.Uint32())
			}
		}
	}
}

func TestEnginesEmptyTable(t *testing.T) {
	tbl := rtable.New(nil)
	all := append(append([]lpm.Builder{}, builders...), stride24.NewEngine)
	if testing.Short() {
		all = builders
	}
	for _, build := range all {
		e := build(tbl)
		if nh, _, ok := e.Lookup(0x01020304); ok || nh != rtable.NoNextHop {
			t.Errorf("%s: empty table lookup should miss, got (%d,%v)", e.Name(), nh, ok)
		}
	}
}

// Property test: random tiny tables generated via quick must agree with
// the oracle at random addresses. This hits degenerate shapes (duplicate
// values, chains, /0, /32) the synthetic generator avoids.
func TestEnginesQuickProperty(t *testing.T) {
	f := func(raw []uint64, addrs []uint32) bool {
		var routes []rtable.Route
		for i, v := range raw {
			if i >= 50 {
				break
			}
			l := uint8((v >> 32) % 33)
			routes = append(routes, rtable.Route{
				Prefix:  ip.Prefix{Value: uint32(v), Len: l}.Canon(),
				NextHop: rtable.NextHop(i),
			})
		}
		tbl := rtable.New(routes)
		oracle := lpm.NewReference(tbl)
		for _, build := range builders {
			e := build(tbl)
			for _, a := range addrs {
				wantNH, _, wantOK := oracle.Lookup(a)
				gotNH, _, gotOK := e.Lookup(a)
				if gotOK != wantOK || (gotOK && gotNH != wantNH) {
					return false
				}
			}
			// Also probe each prefix's own base address.
			for _, r := range tbl.Routes() {
				wantNH, _, wantOK := oracle.Lookup(r.Prefix.FirstAddr())
				gotNH, _, gotOK := e.Lookup(r.Prefix.FirstAddr())
				if gotOK != wantOK || (gotOK && gotNH != wantNH) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestBatchEngineMatchesSingle is the BatchEngine ≡ Engine property: for
// every engine, resolving a slice through lpm.LookupAll (native
// LookupBatch where implemented, the single-key adapter otherwise) must
// yield element-for-element the same (next hop, accesses, ok) triples as
// per-key Lookup calls — including on duplicate addresses and across
// batch-chunk boundaries.
func TestBatchEngineMatchesSingle(t *testing.T) {
	check := func(tbl *rtable.Table, e lpm.Engine, seed uint64) {
		t.Helper()
		rng := stats.NewRNG(seed)
		// 200 addresses: crosses lulea's 16-key group boundary, mixes
		// matched, random, and duplicated keys.
		addrs := make([]ip.Addr, 200)
		for i := range addrs {
			switch i % 3 {
			case 0:
				addrs[i] = tbl.RandomMatchedAddr(rng)
			case 1:
				addrs[i] = rng.Uint32()
			default:
				addrs[i] = addrs[i/2]
			}
		}
		out := make([]lpm.Result, len(addrs))
		lpm.LookupAll(e, addrs, out)
		for i, a := range addrs {
			nh, acc, ok := e.Lookup(a)
			got := out[i]
			if got.NextHop != nh || got.Accesses != int32(acc) || got.OK != ok {
				t.Fatalf("%s: batch[%d] for %s = (%d,%d,%v), single says (%d,%d,%v)",
					e.Name(), i, ip.FormatAddr(a), got.NextHop, got.Accesses, got.OK, nh, acc, ok)
			}
		}
	}
	for _, size := range []int{1, 73, 5000} {
		tbl := rtable.Small(size, uint64(size)*17+5)
		for _, build := range builders {
			check(tbl, build(tbl), uint64(size)+101)
		}
	}
	if !testing.Short() {
		tbl := rtable.Small(5000, 99) // one 32 MiB stride24 build per run
		check(tbl, stride24.NewEngine(tbl), 7)
	}
}

func TestMeanAccesses(t *testing.T) {
	tbl := rtable.Small(5000, 3)
	e := lulea.New(tbl)
	rng := stats.NewRNG(8)
	addrs := make([]ip.Addr, 2000)
	for i := range addrs {
		addrs[i] = tbl.RandomMatchedAddr(rng)
	}
	m := lpm.MeanAccesses(e, addrs)
	if m < 4 || m > 12 {
		t.Errorf("lulea mean accesses = %.2f, want within [4,12]", m)
	}
	if lpm.MeanAccesses(e, nil) != 0 {
		t.Error("MeanAccesses over no addresses should be 0")
	}
}

func TestReferenceMemoryAndName(t *testing.T) {
	tbl := rtable.Small(10, 2)
	r := lpm.NewReference(tbl)
	if r.Name() != "reference" || r.MemoryBytes() != 70 {
		t.Errorf("got %s/%d", r.Name(), r.MemoryBytes())
	}
}

// TestApplyInPlace: a dynamic engine takes an update stream in place and
// then answers as the table the stream leaves; any other engine reports
// false and is left answering as the table it was built from.
func TestApplyInPlace(t *testing.T) {
	initial := rtable.Small(800, 21)
	batch := rtable.GenerateUpdates(initial, rtable.UpdateStreamConfig{
		RatePerSecond: 1e6, CycleNS: 5, Duration: 60000, WithdrawProb: 0.4, NewPrefixProb: 0.5, Seed: 3,
	})
	if len(batch) == 0 {
		t.Fatal("empty update stream")
	}
	final := initial.ApplyAll(batch)
	rng := stats.NewRNG(5)
	var addrs []ip.Addr
	for i := 0; i < 2000; i++ {
		addrs = append(addrs, rng.Uint32())
	}
	for _, u := range batch {
		addrs = append(addrs, u.Route.Prefix.FirstAddr(), u.Route.Prefix.LastAddr())
	}
	kinds := map[bool]int{}
	for _, build := range builders {
		e := build(initial)
		_, dynamic := e.(lpm.DynamicEngine)
		kinds[dynamic]++
		if got := lpm.ApplyInPlace(e, batch); got != dynamic {
			t.Fatalf("%s: ApplyInPlace = %v, want %v (dynamic)", e.Name(), got, dynamic)
		}
		want := lpm.NewReference(initial)
		if dynamic {
			want = lpm.NewReference(final)
		}
		for _, a := range addrs {
			wantNH, _, wantOK := want.Lookup(a)
			if nh, _, ok := e.Lookup(a); ok != wantOK || (ok && nh != wantNH) {
				t.Fatalf("%s (dynamic %v): Lookup(%s) = (%d,%v), want (%d,%v)", e.Name(), dynamic, ip.FormatAddr(a), nh, ok, wantNH, wantOK)
			}
		}
	}
	if kinds[true] == 0 || kinds[false] == 0 {
		t.Fatalf("engines swept: %d dynamic, %d not; want some of each", kinds[true], kinds[false])
	}
}
