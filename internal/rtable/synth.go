package rtable

import (
	"fmt"
	"math/bits"

	"spal/internal/ip"
	"spal/internal/stats"
)

// lengthDistribution is the per-length share of prefixes in a 2003-era
// backbone BGP table (per-mille, summing to 1000). It follows the shape
// reported by the measurement literature the paper cites: /24 dominates at
// roughly 55%, more than 83% of prefixes are /24 or shorter at lengths
// concentrated in /16../24, the classful lengths /8 and /16 spike, and a
// small tail of host routes (/25../32, including /32 exceptions) exists.
var lengthDistribution = [33]int{
	8:  3,
	9:  1,
	10: 2,
	11: 4,
	12: 6,
	13: 12,
	14: 18,
	15: 20,
	16: 80,
	17: 25,
	18: 40,
	19: 65,
	20: 55,
	21: 50,
	22: 60,
	23: 60,
	24: 465,
	25: 5,
	26: 6,
	27: 5,
	28: 4,
	29: 5,
	30: 5,
	31: 1,
	32: 3,
}

// SynthConfig controls synthetic table generation.
type SynthConfig struct {
	// N is the exact number of prefixes to generate.
	N int
	// NextHops is the number of distinct next hops to assign (>= 1).
	NextHops int
	// NestProb is the probability that a new prefix is generated inside an
	// already-generated shorter prefix, creating the covering/more-specific
	// pairs ("prefix exceptions") real tables exhibit.
	NestProb float64
	// NextHopLocality is the probability that a prefix takes the next hop
	// shared by its /12 neighbourhood instead of a uniformly random one.
	// Real BGP tables are strongly correlated this way (address blocks
	// aggregate toward the same peer), which is what run-compressing
	// structures like the Lulea trie exploit. Negative disables; zero
	// selects the default of 0.75.
	NextHopLocality float64
	// Seed drives all randomness.
	Seed uint64
}

// Synthesize generates a routing table per cfg. The result has exactly
// cfg.N distinct prefixes with the package's published length distribution.
func Synthesize(cfg SynthConfig) *Table {
	if cfg.N <= 0 {
		panic("rtable: Synthesize with N <= 0")
	}
	if cfg.NextHops < 1 {
		cfg.NextHops = 1
	}
	switch {
	case cfg.NextHopLocality == 0:
		cfg.NextHopLocality = 0.75
	case cfg.NextHopLocality < 0:
		cfg.NextHopLocality = 0
	}
	rng := stats.NewRNG(cfg.Seed)

	// Exact per-length quotas via largest-remainder apportionment, then
	// capped by how many distinct prefixes of each length actually exist
	// under the generator's unicast filter (e.g. only ~223 /8s are
	// available, so a 140k-prefix table cannot hold 3 per mille of /8s);
	// the excess shifts to /24, the dominant length, which has capacity
	// for any realistic table.
	quota := apportion(cfg.N, lengthDistribution[:])
	overflow := 0
	for l := 1; l <= 32; l++ {
		if c := genCapacity(uint8(l)); quota[l] > c {
			overflow += quota[l] - c
			quota[l] = c
		}
	}
	quota[24] += overflow
	if c := genCapacity(24); quota[24] > c {
		panic(fmt.Sprintf("rtable: table of %d prefixes exceeds generator capacity", cfg.N))
	}

	seen := newPrefixSet(cfg.N)
	// parents holds generated prefixes shorter than the one being generated,
	// bucketed by length, so nesting can pick a random covering prefix.
	var parents [33][]ip.Prefix

	// Allocation blocks: real address space is clumpy — /24-class
	// prefixes concentrate into a limited set of /16 neighbourhoods
	// (allocated blocks) rather than spreading uniformly. Long prefixes
	// mostly land inside one of these blocks.
	numBlocks := cfg.N / 6
	if numBlocks < 1024 {
		numBlocks = 1024
	}
	blocks := make([]uint32, numBlocks)
	for i := range blocks {
		for {
			v := rng.Uint32() & 0xffff0000
			if top := v >> 28; top >= 0xE || v>>24 == 0 {
				continue
			}
			blocks[i] = v
			break
		}
	}

	routes := make([]Route, 0, cfg.N)
	for length := 1; length <= 32; length++ {
		for k := 0; k < quota[length]; k++ {
			p := genPrefix(rng, uint8(length), &parents, cfg.NestProb, &seen, blocks)
			parents[length] = append(parents[length], p)
			nh := NextHop(rng.Intn(cfg.NextHops))
			if rng.Bool(cfg.NextHopLocality) {
				nh = regionNextHop(p.Value, cfg.Seed, cfg.NextHops)
			}
			routes = append(routes, Route{Prefix: p, NextHop: nh})
		}
	}
	t := New(routes)
	if t.Len() != cfg.N {
		// New dedups by prefix; seen guarantees uniqueness, so this would be
		// a generator bug worth failing loudly on.
		panic(fmt.Sprintf("rtable: generated %d prefixes, want %d", t.Len(), cfg.N))
	}
	return t
}

// regionNextHop deterministically maps a /12 address block onto a next
// hop, giving neighbouring prefixes the shared egress real aggregation
// produces.
func regionNextHop(v uint32, seed uint64, n int) NextHop {
	h := (uint64(v>>20) + 1) * (seed | 1) * 0x9e3779b97f4a7c15
	return NextHop((h >> 33) % uint64(n))
}

// genCapacity conservatively bounds how many distinct prefixes of a given
// length the random path can produce: 2^len values, scaled by 3/4 for the
// excluded class-D/E and zero-leading-octet space plus collision headroom.
// Beyond /24 the bound is never reached: those quotas are a few per mille.
func genCapacity(length uint8) int {
	if length > 24 {
		return 1 << 30
	}
	c := (1 << length) * 3 / 4
	if c < 1 {
		c = 1
	}
	return c
}

// genPrefix draws one new unique prefix of the given length and adds it to
// seen.
func genPrefix(rng *stats.RNG, length uint8, parents *[33][]ip.Prefix, nestProb float64, seen *prefixSet, blocks []uint32) ip.Prefix {
	for attempt := 0; ; attempt++ {
		if attempt > 1<<22 {
			panic(fmt.Sprintf("rtable: cannot find a fresh /%d prefix (capacity exhausted)", length))
		}
		var v uint32
		switch {
		case rng.Bool(nestProb):
			if parent, ok := pickParent(rng, length, parents); ok {
				// Keep the parent's bits, randomize the extension.
				extra := uint(length) - uint(parent.Len)
				v = parent.Value | (rng.Uint32()&((1<<extra)-1))<<(32-uint(length))
			} else {
				v = rng.Uint32() & ip.Mask(length)
			}
		case length >= 16 && rng.Bool(0.85):
			// Land inside an allocation block, clumping the deep prefixes
			// into a bounded set of /16 neighbourhoods.
			block := blocks[rng.Intn(len(blocks))]
			v = block | rng.Uint32()&^ip.Mask(16)&ip.Mask(length)
		default:
			v = rng.Uint32() & ip.Mask(length)
			// Keep unicast-looking space: avoid 0/1, class D/E (top nibble
			// >= 0xE) so addresses resemble routable space.
			if top := v >> 28; top >= 0xE || v>>24 == 0 {
				continue
			}
		}
		p := ip.Prefix{Value: v, Len: length}.Canon()
		if seen.insert(p) {
			return p
		}
	}
}

// prefixSet is the set of prefixes a Synthesize call has drawn: open
// addressing with linear probing over packed 1<<63 | value<<8 | length keys
// (0 marks a free slot), sized once to a power of two of at least twice the
// table, so it is never more than half full and never grows.
type prefixSet struct {
	slots []uint64
	shift uint // 64 − log2(len(slots)): a key's home slot is its hash's top bits
}

func newPrefixSet(n int) prefixSet {
	lg := bits.Len(uint(2*n - 1))
	return prefixSet{slots: make([]uint64, 1<<lg), shift: uint(64 - lg)}
}

// find returns the slot holding key k, or the free slot where it would go.
func (s *prefixSet) find(k uint64) int {
	mask := len(s.slots) - 1
	i := s.home(k)
	for s.slots[i] != k && s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// home is k's first probe: the top bits of a Fibonacci hash, so keys that
// differ only in their low bits spread over the table.
func (s *prefixSet) home(k uint64) int { return int(k * 0x9e3779b97f4a7c15 >> s.shift) }

func prefixKey(p ip.Prefix) uint64 { return 1<<63 | uint64(p.Value)<<8 | uint64(p.Len) }

// insert adds p unless the set holds it already, and reports whether it
// did. The set holds at most the n it was made for.
func (s *prefixSet) insert(p ip.Prefix) bool {
	k := prefixKey(p)
	i := s.find(k)
	if s.slots[i] != 0 {
		return false
	}
	s.slots[i] = k
	return true
}

// pickParent selects a random already-generated prefix strictly shorter
// than length, preferring nearby lengths (a /24 nests in a /20 more often
// than in a /8, as in real tables).
func pickParent(rng *stats.RNG, length uint8, parents *[33][]ip.Prefix) (ip.Prefix, bool) {
	// Try a handful of draws biased toward longer (closer) parents.
	for attempt := 0; attempt < 8; attempt++ {
		l := int(length) - 1 - rng.Intn(int(length))
		if l < 1 {
			continue
		}
		if n := len(parents[l]); n > 0 {
			return parents[l][rng.Intn(n)], true
		}
	}
	return ip.Prefix{}, false
}

// apportion splits n into integer quotas proportional to weights (largest
// remainder method), skipping zero weights. Quotas sum to exactly n.
func apportion(n int, weights []int) []int {
	total := 0
	for _, w := range weights {
		total += w
	}
	quotas := make([]int, len(weights))
	type frac struct {
		idx int
		rem int
	}
	var fracs []frac
	assigned := 0
	for i, w := range weights {
		if w == 0 {
			continue
		}
		num := n * w
		quotas[i] = num / total
		assigned += quotas[i]
		fracs = append(fracs, frac{idx: i, rem: num % total})
	}
	// Distribute the remainder to the largest fractional parts; ties break
	// toward lower index for determinism.
	for assigned < n {
		best := -1
		for j, f := range fracs {
			if best < 0 || f.rem > fracs[best].rem {
				best = j
			}
		}
		quotas[fracs[best].idx]++
		fracs[best].rem = -1
		assigned++
	}
	return quotas
}

// RT1 synthesizes the stand-in for the paper's RT_1 (FUNET, 41,709
// prefixes). 16 next hops match a mid-size router's port count.
func RT1() *Table {
	return Synthesize(SynthConfig{N: 41709, NextHops: 16, NestProb: 0.35, Seed: 0x5e3d_0001})
}

// RT2 synthesizes the stand-in for the paper's RT_2 (AS1221 snapshot,
// 140,838 prefixes).
func RT2() *Table {
	return Synthesize(SynthConfig{N: 140838, NextHops: 16, NestProb: 0.35, Seed: 0x5e3d_0002})
}

// Small synthesizes a small table for unit tests and examples.
func Small(n int, seed uint64) *Table {
	return Synthesize(SynthConfig{N: n, NextHops: 8, NestProb: 0.35, Seed: seed})
}
