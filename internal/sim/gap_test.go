package sim

import (
	"math"
	"testing"

	"spal/internal/rtable"
	"spal/internal/stats"
)

// TestGapModMatchesModulo checks gapMod against % at spans from 1 to
// 2⁶⁴−1, at the edges of each span and over a million random draws.
func TestGapModMatchesModulo(t *testing.T) {
	spans := []uint64{1, 2, 17, 69, 1<<32 + 15, 1<<63 + 5, math.MaxUint64}
	for _, d := range spans {
		m := newGapMod(d)
		check := func(x uint64) {
			if got, want := m.mod(x), x%d; got != want {
				t.Fatalf("%d mod %d = %d, want %d", x, d, got, want)
			}
		}
		for _, x := range []uint64{0, d - 1, d, d + 1, math.MaxUint64} {
			check(x)
		}
		rng := stats.NewRNG(d)
		for range 1_000_000 {
			check(rng.Uint64())
		}
	}
}

// FuzzGapMod checks gapMod against % at any x and any span d ≥ 1 (a d of 0
// is read as 1).
func FuzzGapMod(f *testing.F) {
	f.Add(uint64(0), uint64(1))
	f.Add(uint64(math.MaxUint64), uint64(17))
	f.Add(uint64(1<<63+4), uint64(1<<63+5))
	f.Add(uint64(math.MaxUint64-1), uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, x, d uint64) {
		d = max(d, 1)
		if got, want := newGapMod(d).mod(x), x%d; got != want {
			t.Fatalf("%d mod %d = %d, want %d", x, d, got, want)
		}
	})
}

// rangeGap is the gap draw drawGap replaced: RNG.Range and the float64
// scaling at every load factor.
func rangeGap(rng *stats.RNG, loadFactor float64, gmin, gmax int) int64 {
	g := float64(rng.Range(gmin, gmax))
	if loadFactor != 1.0 {
		g /= loadFactor
	}
	if g < 1 {
		g = 1
	}
	return int64(g)
}

// TestDrawGapMatchesRange: each LC's first 10⁵ gaps are rangeGap's, at
// both line speeds and at load factors 1.0, 0.7 and 2.5.
func TestDrawGapMatchesRange(t *testing.T) {
	tbl := rtable.Small(500, 1)
	for _, gaps := range []func() (int, int){Gaps40Gbps, Gaps10Gbps} {
		for _, lf := range []float64{1.0, 0.7, 2.5} {
			cfg := testConfig(tbl)
			cfg.GapMin, cfg.GapMax = gaps()
			cfg.LoadFactors = []float64{lf, lf, lf, lf}
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range r.lcs {
				ref := *l.rng
				for i := range 100_000 {
					got, want := l.drawGap(cfg.GapMin, &r.gaps), rangeGap(&ref, lf, cfg.GapMin, cfg.GapMax)
					if got != want {
						t.Fatalf("gaps [%d,%d], load %v, LC %d, draw %d: %d, want %d",
							cfg.GapMin, cfg.GapMax, lf, l.id, i, got, want)
					}
				}
			}
		}
	}
}
