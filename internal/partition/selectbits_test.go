package partition

import (
	"slices"
	"testing"

	"spal/internal/ip"
	"spal/internal/rtable"
)

// scoreBit is the per-position scorer scoreBits replaced, kept as its
// reference: one pass over every group for one bit position.
func scoreBit(groups [][]ip.Prefix, pos int) (total, spread int) {
	minSz, maxSz := -1, 0
	for _, g := range groups {
		var n0, n1, nStar int
		for _, pr := range g {
			b, known := pr.Bit(pos)
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
		total += s0 + s1
		for _, sz := range [2]int{s0, s1} {
			if minSz < 0 || sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
		}
	}
	return total, maxSz - minSz
}

// TestSelectBitsMatchesReference replays the greedy selection with the
// reference scorer: at every step each position's (total, spread) must be
// scoreBits' exactly, the reference's choice (lowest total, then spread,
// then position) SelectBits', for η = 1…5 on RT1, RT2 and two small tables.
func TestSelectBitsMatchesReference(t *testing.T) {
	const maxEta = 5
	tables := []struct {
		name string
		tbl  *rtable.Table
	}{
		{"RT1", rtable.RT1()},
		{"RT2", rtable.RT2()},
		{"Small(3000,77)", rtable.Small(3000, 77)},
		{"Small(20000,41)", rtable.Small(20000, 41)},
	}
	for _, tc := range tables {
		groups := [][]ip.Prefix{tc.tbl.Prefixes()}
		var ref []int
		for k := 0; k < maxEta; k++ {
			got := scoreBits(groups)
			best, bestT, bestS := -1, 0, 0
			for pos := 0; pos < 32; pos++ {
				total, spread := scoreBit(groups, pos)
				if got[pos] != (bitScore{total, spread}) {
					t.Fatalf("%s step %d bit %d: scoreBits %+v, reference (%d, %d)", tc.name, k, pos, got[pos], total, spread)
				}
				if slices.Contains(ref, pos) {
					continue
				}
				if best < 0 || total < bestT || (total == bestT && spread < bestS) {
					best, bestT, bestS = pos, total, spread
				}
			}
			ref = append(ref, best)
			groups = splitGroups(groups, best)
		}
		for eta := 1; eta <= maxEta; eta++ {
			if got := SelectBits(tc.tbl, eta); !slices.Equal(got, ref[:eta]) {
				t.Errorf("%s η=%d: SelectBits %v, reference %v", tc.name, eta, got, ref[:eta])
			}
		}
		t.Logf("%s: bits %v", tc.name, ref)
	}
}
