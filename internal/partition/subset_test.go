package partition

import (
	"slices"
	"testing"

	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/rtable"
	"spal/internal/stats"
)

// TestSubsetHomeInvariant is the re-homing correctness property: for any
// table, any chassis size, and any non-empty alive subset, every address
// is homed on an alive LC and longest-prefix matching over that LC's
// partition equals matching over the whole table.
func TestSubsetHomeInvariant(t *testing.T) {
	rng := stats.NewRNG(41)
	for _, numLCs := range []int{2, 3, 5, 8, 16} {
		tbl := rtable.Small(1200, 7+uint64(numLCs))
		oracle := lpm.NewReference(tbl)
		// Every subset for small chassis, random subsets for larger ones.
		subsets := [][]int{}
		for mask := 1; mask < 1<<numLCs; mask++ {
			var alive []int
			for lc := 0; lc < numLCs; lc++ {
				if mask&(1<<lc) != 0 {
					alive = append(alive, lc)
				}
			}
			subsets = append(subsets, alive)
		}
		if len(subsets) > 40 {
			picked := subsets[:0]
			for i := 0; i < 40; i++ {
				picked = append(picked, subsets[rng.Intn(len(subsets))])
			}
			subsets = picked
		}
		for _, alive := range subsets {
			p := Subset(tbl, numLCs, alive)
			aliveSet := map[int]bool{}
			for _, lc := range alive {
				aliveSet[lc] = true
			}
			for i := 0; i < 200; i++ {
				var a ip.Addr
				if i%2 == 0 {
					a = tbl.RandomMatchedAddr(rng)
				} else {
					a = rng.Uint32()
				}
				home := p.HomeLC(a)
				if !aliveSet[home] {
					t.Fatalf("psi=%d alive=%v: HomeLC(%s) = %d is not alive",
						numLCs, alive, ip.FormatAddr(a), home)
				}
				wNH, _, wOK := oracle.Lookup(a)
				gNH, gOK := p.Table(home).LookupLinear(a)
				if wOK != gOK || (wOK && wNH != gNH) {
					t.Fatalf("psi=%d alive=%v addr=%s: home (%d,%v) != full (%d,%v)",
						numLCs, alive, ip.FormatAddr(a), gNH, gOK, wNH, wOK)
				}
			}
		}
	}
}

// TestSubsetDeadSlotsEmpty: slots outside the alive set own nothing.
func TestSubsetDeadSlotsEmpty(t *testing.T) {
	tbl := rtable.Small(500, 3)
	p := Subset(tbl, 4, []int{0, 2})
	if n := p.Table(1).Len(); n != 0 {
		t.Errorf("dead slot 1 holds %d prefixes, want 0", n)
	}
	if n := p.Table(3).Len(); n != 0 {
		t.Errorf("dead slot 3 holds %d prefixes, want 0", n)
	}
	if p.Table(0).Len() == 0 || p.Table(2).Len() == 0 {
		t.Error("alive slots must hold the table")
	}
}

// TestSubsetFullSetMatchesPartition: the degenerate subset (everyone
// alive) is byte-for-byte the standard partitioning.
func TestSubsetFullSetMatchesPartition(t *testing.T) {
	tbl := rtable.Small(800, 9)
	std := Partition(tbl, 4)
	sub := Subset(tbl, 4, []int{0, 1, 2, 3})
	if len(std.Bits) != len(sub.Bits) {
		t.Fatalf("bit counts differ: %v vs %v", std.Bits, sub.Bits)
	}
	for i := range std.Bits {
		if std.Bits[i] != sub.Bits[i] {
			t.Fatalf("bits differ: %v vs %v", std.Bits, sub.Bits)
		}
	}
	stdT, subT := std.Tables(), sub.Tables()
	for lc := range stdT {
		if stdT[lc].Len() != subT[lc].Len() {
			t.Errorf("LC %d sizes differ: %d vs %d", lc, stdT[lc].Len(), subT[lc].Len())
		}
	}
	rng := stats.NewRNG(11)
	for i := 0; i < 500; i++ {
		a := rng.Uint32()
		if std.HomeLC(a) != sub.HomeLC(a) {
			t.Fatalf("HomeLC(%s) differs: %d vs %d", ip.FormatAddr(a), std.HomeLC(a), sub.HomeLC(a))
		}
	}
}

// TestSubsetValidation: malformed alive sets must panic loudly rather
// than silently misroute.
func TestSubsetValidation(t *testing.T) {
	tbl := rtable.Small(100, 5)
	for name, fn := range map[string]func(){
		"empty":      func() { Subset(tbl, 4, nil) },
		"outOfRange": func() { Subset(tbl, 4, []int{0, 4}) },
		"duplicate":  func() { Subset(tbl, 4, []int{1, 1}) },
		"unsorted":   func() { Subset(tbl, 4, []int{2, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s alive set did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestSubsetTablesMatchDefinition rebuilds every LC's table from the
// definition — a route belongs to every pattern that agrees with it on each
// control bit it fixes, a pattern to the LC it folds onto, duplicates
// resolved by rtable.New — and compares SubsetWithBits with it route for
// route, Tables and Table alike, and its kept sizes (Stats) with the
// definition's counts. On a small
// table it does so on foldings where several of a route's patterns land on
// one LC (ψ = 3, 5, and a chassis with dead slots) and ones where none do;
// on RT2 at the ψ the router and the simulator build.
func TestSubsetTablesMatchDefinition(t *testing.T) {
	type folding struct {
		numLCs int
		alive  []int
	}
	all := func(n int) folding {
		f := folding{numLCs: n}
		for lc := 0; lc < n; lc++ {
			f.alive = append(f.alive, lc)
		}
		return f
	}
	for _, tc := range []struct {
		name     string
		tbl      *rtable.Table
		foldings []folding
	}{
		{"Small(3000,19)", rtable.Small(3000, 19), []folding{
			all(1), all(2), all(3), all(4), all(5), {8, []int{1, 4, 6}},
			{16, []int{0, 2, 3, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
		}},
		{"RT2", rtable.RT2(), []folding{all(3), all(4), all(16)}},
	} {
		for _, f := range tc.foldings {
			p := Subset(tc.tbl, f.numLCs, f.alive)
			perLC := make([][]rtable.Route, f.numLCs)
			for _, r := range tc.tbl.Routes() {
				for pat := 0; pat < 1<<len(p.Bits); pat++ {
					agrees := true
					for i, pos := range p.Bits {
						if b, known := r.Prefix.Bit(pos); known && int(b) != pat>>(len(p.Bits)-1-i)&1 {
							agrees = false
						}
					}
					if agrees {
						lc := f.alive[pat%len(f.alive)]
						perLC[lc] = append(perLC[lc], r)
					}
				}
			}
			sizes := p.Stats().Sizes
			for lc, lt := range p.Tables() {
				want := rtable.New(perLC[lc]).Routes()
				if got := lt.Routes(); !slices.Equal(got, want) {
					t.Errorf("%s ψ=%d alive=%v: LC %d holds %d routes, the definition gives %d", tc.name, f.numLCs, f.alive, lc, len(got), len(want))
				}
				if got := p.Table(lc).Routes(); !slices.Equal(got, want) {
					t.Errorf("%s ψ=%d alive=%v: Table(%d) holds %d routes, the definition gives %d", tc.name, f.numLCs, f.alive, lc, len(got), len(want))
				}
				if sizes[lc] != len(want) {
					t.Errorf("%s ψ=%d alive=%v: LC %d size %d, the definition gives %d", tc.name, f.numLCs, f.alive, lc, sizes[lc], len(want))
				}
			}
		}
	}
}
