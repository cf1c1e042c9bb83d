package partition

import (
	"slices"
	"testing"

	"spal/internal/rtable"
	"spal/internal/stats"
)

// TestApplyUpdatesMatchesRebuild: applying an update batch incrementally
// (same bits, same folding) must give exactly the per-LC tables a full
// rebuild with those bits over the updated table would, for full and
// subset alive sets — so the incremental plane and the two-phase swap can
// never disagree about what an LC stores.
func TestApplyUpdatesMatchesRebuild(t *testing.T) {
	rng := stats.NewRNG(17)
	for _, tc := range []struct {
		numLCs int
		alive  []int
	}{
		{4, []int{0, 1, 2, 3}},
		{5, []int{0, 1, 2, 3, 4}},
		{8, []int{0, 2, 3, 5, 7}},
	} {
		tbl := rtable.Small(900, 11+uint64(tc.numLCs))
		p := Subset(tbl, tc.numLCs, tc.alive)
		cur := tbl
		for round := 0; round < 5; round++ {
			stream := rtable.GenerateUpdates(cur, rtable.UpdateStreamConfig{
				RatePerSecond: 1000, CycleNS: 5, Duration: 8_000_000,
				WithdrawProb: 0.4, NewPrefixProb: 0.2,
				Seed: rng.Uint64(),
			})
			if len(stream) == 0 {
				t.Fatal("empty update stream")
			}
			np, sub := p.ApplyUpdates(stream)
			cur = cur.ApplyAll(stream)
			if got, want := np.Full().Len(), cur.Len(); got != want {
				t.Fatalf("psi=%d round=%d: full table %d entries, want %d", tc.numLCs, round, got, want)
			}
			want := SubsetWithBits(cur, tc.numLCs, tc.alive, p.Bits)
			tables, sizes := np.Tables(), np.Stats().Sizes
			for lc := 0; lc < tc.numLCs; lc++ {
				g := np.Table(lc).Routes()
				if w := want.Table(lc).Routes(); !slices.Equal(g, w) {
					t.Fatalf("psi=%d round=%d lc=%d: %d routes incremental vs %d rebuilt",
						tc.numLCs, round, lc, len(g), len(w))
				}
				if !slices.Equal(tables[lc].Routes(), g) {
					t.Fatalf("psi=%d round=%d lc=%d: Tables() and Table(lc) disagree", tc.numLCs, round, lc)
				}
				if sizes[lc] != len(g) {
					t.Fatalf("psi=%d round=%d lc=%d: kept size %d, table holds %d", tc.numLCs, round, lc, sizes[lc], len(g))
				}
			}
			// Sub-batches name every LC whose table can change: one with an
			// empty sub-batch holds the same routes as before.
			for lc := range sub {
				if len(sub[lc]) == 0 && !slices.Equal(np.Table(lc).Routes(), p.Table(lc).Routes()) {
					t.Fatalf("lc=%d: table changed without a sub-batch", lc)
				}
			}
			p = np
		}
	}
}
