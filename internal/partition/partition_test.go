package partition

import (
	"fmt"
	"testing"
	"testing/quick"

	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/rtable"
	"spal/internal/stats"
)

// paperTable builds the 7-prefix example of Sec. 3.1 (8-bit simplified
// prefixes mapped into the top byte of IPv4 space).
func paperTable() *rtable.Table {
	// P1=101*, P2=1011*, P3=01*, P4=001110*, P5=10010011, P6=10011*,
	// P7=011001*.
	mk := func(bits string, nh rtable.NextHop) rtable.Route {
		var v uint32
		for i, c := range bits {
			if c == '1' {
				v |= 1 << (31 - i)
			}
		}
		return rtable.Route{Prefix: ip.Prefix{Value: v, Len: uint8(len(bits))}, NextHop: nh}
	}
	return rtable.New([]rtable.Route{
		mk("101", 1), mk("1011", 2), mk("01", 3), mk("001110", 4),
		mk("10010011", 5), mk("10011", 6), mk("011001", 7),
	})
}

// TestPaperExamplePartitionSizes reproduces the Sec. 3.1 example: using
// bits b0 and b4 gives partitions {P3,P7},{P3,P4},{P1,P2,P5},{P1,P2,P6}
// (each 2-3 prefixes), strictly better than bits b2,b4 whose largest
// partitions have 4 prefixes.
func TestPaperExamplePartitionSizes(t *testing.T) {
	tbl := paperTable()

	good := WithBits(tbl, 4, []int{0, 4})
	gs := good.Stats()
	if gs.Min < 2 || gs.Max > 3 {
		t.Errorf("bits {0,4}: sizes %v, want all in [2,3]", gs.Sizes)
	}

	bad := WithBits(tbl, 4, []int{2, 4})
	bs := bad.Stats()
	if bs.Max != 4 {
		t.Errorf("bits {2,4}: max = %d, want 4 (the paper's inferior split)", bs.Max)
	}

	// The selection algorithm must do at least as well as the paper's good
	// choice on criterion totals.
	auto := Partition(tbl, 4)
	as := auto.Stats()
	sum := func(sz []int) int {
		s := 0
		for _, v := range sz {
			s += v
		}
		return s
	}
	if sum(as.Sizes) > sum(gs.Sizes) {
		t.Errorf("auto bits %v total %d worse than paper's {0,4} total %d",
			auto.Bits, sum(as.Sizes), sum(gs.Sizes))
	}
}

// TestHomeInvariant is invariant 1 of DESIGN.md: home-partition LPM equals
// full-table LPM for every address.
func TestHomeInvariant(t *testing.T) {
	tbl := rtable.Small(3000, 77)
	for _, psi := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
		p := Partition(tbl, psi)
		oracle := lpm.NewReference(tbl)
		engines := make([]*lpm.Reference, psi)
		for lc, lt := range p.Tables() {
			engines[lc] = lpm.NewReference(lt)
		}
		rng := stats.NewRNG(uint64(psi))
		for i := 0; i < 3000; i++ {
			var a ip.Addr
			if i%2 == 0 {
				a = tbl.RandomMatchedAddr(rng)
			} else {
				a = rng.Uint32()
			}
			home := p.HomeLC(a)
			if home < 0 || home >= psi {
				t.Fatalf("psi=%d: HomeLC out of range: %d", psi, home)
			}
			wantNH, _, wantOK := oracle.Lookup(a)
			gotNH, _, gotOK := engines[home].Lookup(a)
			if gotOK != wantOK || (gotOK && gotNH != wantNH) {
				t.Fatalf("psi=%d addr=%s: home LPM (%d,%v) != full LPM (%d,%v)",
					psi, ip.FormatAddr(a), gotNH, gotOK, wantNH, wantOK)
			}
		}
	}
}

// Property: the home invariant holds on adversarial quick-generated tables.
func TestHomeInvariantQuick(t *testing.T) {
	f := func(raw []uint64, addrs []uint32, psiSeed uint8) bool {
		psi := 1 + int(psiSeed)%8
		var routes []rtable.Route
		for i, v := range raw {
			if i >= 40 {
				break
			}
			routes = append(routes, rtable.Route{
				Prefix:  ip.Prefix{Value: uint32(v), Len: uint8((v >> 32) % 33)}.Canon(),
				NextHop: rtable.NextHop(i),
			})
		}
		tbl := rtable.New(routes)
		p := Partition(tbl, psi)
		oracle := lpm.NewReference(tbl)
		for _, a := range addrs {
			home := p.HomeLC(a)
			wantNH, _, wantOK := oracle.Lookup(a)
			gotNH, gotOK := p.Table(home).LookupLinear(a)
			if gotOK != wantOK || (gotOK && gotNH != wantNH) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestEveryPrefixInSomePartition(t *testing.T) {
	tbl := rtable.Small(2000, 5)
	p := Partition(tbl, 6)
	seen := make(map[ip.Prefix]bool)
	for _, lt := range p.Tables() {
		for _, r := range lt.Routes() {
			seen[r.Prefix] = true
		}
	}
	for _, r := range tbl.Routes() {
		if !seen[r.Prefix] {
			t.Fatalf("prefix %s lost by partitioning", r.Prefix)
		}
	}
}

func TestStarPrefixReplication(t *testing.T) {
	// A prefix whose control bits are all "*" must be in every pattern's
	// partition (like P3 in the paper's example).
	tbl := rtable.New([]rtable.Route{
		{Prefix: ip.MustPrefix("0.0.0.0/0"), NextHop: 9},
		{Prefix: ip.MustPrefix("10.1.0.0/16"), NextHop: 1},
		{Prefix: ip.MustPrefix("10.2.0.0/16"), NextHop: 2},
		{Prefix: ip.MustPrefix("10.3.0.0/16"), NextHop: 3},
		{Prefix: ip.MustPrefix("192.168.0.0/16"), NextHop: 4},
	})
	p := Partition(tbl, 4)
	for lc, lt := range p.Tables() {
		if nh, ok := lt.LookupLinear(0xf0000001); !ok || nh != 9 {
			t.Errorf("LC %d lost the default route", lc)
		}
	}
}

func TestNonPowerOfTwoFolding(t *testing.T) {
	tbl := rtable.Small(1000, 3)
	p := Partition(tbl, 3) // eta = 2, 4 patterns on 3 LCs
	if len(p.Bits) != 2 {
		t.Fatalf("eta = %d, want 2", len(p.Bits))
	}
	// Patterns 0 and 3 share LC 0.
	counts := make(map[int]int)
	for pat := 0; pat < 4; pat++ {
		counts[p.home.patternToLC[pat]]++
	}
	if counts[0] != 2 || counts[1] != 1 || counts[2] != 1 {
		t.Errorf("pattern folding = %v", counts)
	}
}

func TestPsiOneDegenerate(t *testing.T) {
	tbl := rtable.Small(500, 9)
	p := Partition(tbl, 1)
	if len(p.Bits) != 0 {
		t.Errorf("psi=1 should choose no bits, got %v", p.Bits)
	}
	if p.Table(0).Len() != tbl.Len() {
		t.Errorf("psi=1 partition size = %d, want %d", p.Table(0).Len(), tbl.Len())
	}
	if p.HomeLC(0x12345678) != 0 {
		t.Error("psi=1: everything is home")
	}
}

func TestSelectBitsPrefersLowStar(t *testing.T) {
	// All prefixes are /16: any bit position <= 15 has zero stars; the
	// selector must not choose positions >= 16 (all stars there).
	var routes []rtable.Route
	rng := stats.NewRNG(2)
	for i := 0; i < 200; i++ {
		routes = append(routes, rtable.Route{
			Prefix:  ip.Prefix{Value: rng.Uint32() & 0xffff0000, Len: 16},
			NextHop: 1,
		})
	}
	tbl := rtable.New(routes)
	for _, b := range SelectBits(tbl, 4) {
		if b >= 16 {
			t.Errorf("selected bit %d beyond all prefix lengths", b)
		}
	}
}

// TestFirstBitIsCriteriaOptimal re-scores every candidate position by
// brute force and checks SelectBits' first choice achieves the lexical
// minimum of (criterion 1, criterion 2).
func TestFirstBitIsCriteriaOptimal(t *testing.T) {
	tbl := rtable.Small(4000, 29)
	chosen := SelectBits(tbl, 1)[0]

	score := func(pos int) (total, spread int) {
		var n0, n1, nStar int
		for _, r := range tbl.Routes() {
			b, known := r.Prefix.Bit(pos)
			switch {
			case !known:
				nStar++
			case b == 0:
				n0++
			default:
				n1++
			}
		}
		s0, s1 := n0+nStar, n1+nStar
		total = s0 + s1
		spread = s0 - s1
		if spread < 0 {
			spread = -spread
		}
		return total, spread
	}
	bestT, bestS := score(chosen)
	for pos := 0; pos < 32; pos++ {
		tt, ss := score(pos)
		if tt < bestT || (tt == bestT && ss < bestS) {
			t.Fatalf("bit %d scores (%d,%d), beating chosen bit %d at (%d,%d)",
				pos, tt, ss, chosen, bestT, bestS)
		}
	}
}

func TestPartitionSizesRoughlyBalanced(t *testing.T) {
	tbl := rtable.Small(20000, 41)
	p := Partition(tbl, 16)
	s := p.Stats()
	if s.Min == 0 {
		t.Fatal("empty partition")
	}
	if ratio := float64(s.Max) / float64(s.Min); ratio > 3.0 {
		t.Errorf("max/min partition ratio = %.2f (sizes %v)", ratio, s.Sizes)
	}
	// Each partition must be far smaller than the full table: the paper's
	// headline storage claim.
	if s.Max > tbl.Len()/4 {
		t.Errorf("largest partition %d not a small fraction of %d", s.Max, tbl.Len())
	}
	if s.Replication < 1.0 || s.Replication > 3.0 {
		t.Errorf("replication = %.2f", s.Replication)
	}
}

func TestWithBitsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic when 2^bits < numLCs")
		}
	}()
	WithBits(rtable.Small(10, 1), 4, []int{0})
}

func TestPartitionPanicsOnZeroLCs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for numLCs < 1")
		}
	}()
	Partition(rtable.Small(10, 1), 0)
}

func TestLengthPartition(t *testing.T) {
	tbl := rtable.Small(5000, 13)
	parts := LengthPartition(tbl)
	total := 0
	maxPart := 0
	for _, p := range parts {
		total += p.Len()
		if p.Len() > maxPart {
			maxPart = p.Len()
		}
		// Every partition holds exactly one length.
		h := p.LengthHistogram()
		nonzero := 0
		for _, c := range h {
			if c > 0 {
				nonzero++
			}
		}
		if nonzero != 1 {
			t.Fatalf("length partition mixes %d lengths", nonzero)
		}
	}
	if total != tbl.Len() {
		t.Errorf("length partitions lose prefixes: %d != %d", total, tbl.Len())
	}
	// The comparator's known weakness: /24 dominates, so the largest
	// partition is a large fraction of the table (~46%+ here), unlike
	// SPAL's balanced split.
	if frac := float64(maxPart) / float64(tbl.Len()); frac < 0.40 {
		t.Errorf("expected dominant /24 partition, got fraction %.2f", frac)
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 17: 5}
	for n, want := range cases {
		if got := ceilLog2(n); got != want {
			t.Errorf("ceilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestPatternsMatchHome: the byte-table pattern the route passes use is
// home.pattern, the one HomeLC uses, for control bits in every byte and at
// both ends of one, in selection orders that are not sorted.
func TestPatternsMatchHome(t *testing.T) {
	rng := stats.NewRNG(43)
	for _, bits := range [][]int{nil, {0}, {31}, {7, 8}, {24, 3, 16, 0, 31}, {12, 13, 11, 14}} {
		h, pt := home{bits: bits}, newPatterns(bits)
		for i := 0; i < 2000; i++ {
			a := rng.Uint32()
			if got, want := pt.of(a), h.pattern(a); got != want {
				t.Fatalf("bits %v: pattern of %s is %b, home.pattern %b", bits, ip.FormatAddr(a), got, want)
			}
		}
	}
}

// BenchmarkTables prices deriving every LC's forwarding table from RT2: in
// one pass (Tables), as router.New builds its engines at ψ = 4 and sim.New
// at ψ = 16, and one LC at a time (Table, a pass each), as the benchmark
// harness's ladder builds its ψ = 16 engines.
func BenchmarkTables(b *testing.B) {
	full := rtable.RT2()
	for _, psi := range []int{4, 16} {
		p := Partition(full, psi)
		b.Run(fmt.Sprintf("table=RT2/psi=%d", psi), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Tables()
			}
		})
	}
	p := Partition(full, 16)
	b.Run("table=RT2/psi=16/each", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for lc := range p.NumLCs {
				p.Table(lc)
			}
		}
	})
}
