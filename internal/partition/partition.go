// Package partition implements SPAL's routing-table fragmentation (Sec. 3.1
// of the paper): selecting η = ceil(log2 ψ) control-bit positions from the
// prefixes of a routing table and splitting the table into ψ ROT-partitions,
// one forwarding table per line card.
//
// Bit selection follows the paper's two criteria, applied greedily and
// recursively:
//
//	(1) minimize replication: a prefix whose candidate bit is "*" (beyond
//	    its length) must appear in both subsets, so the best bit minimizes
//	    Φ*, the count of don't-care prefixes;
//	(2) minimize imbalance: among prefixes with a concrete candidate bit,
//	    |Φ0 − Φ1| should be smallest.
//
// When choosing the k-th control bit the criteria are evaluated jointly
// over all 2^(k-1) pattern groups produced by the bits chosen so far
// (primary score: total prefix count after the split, which is exactly
// Σ groups (Φ + Φ*); tie-break: resulting max−min group size; final
// tie-break: lowest bit position).
//
// ψ does not have to be a power of two: the 2^η bit patterns are folded
// onto LCs by pattern mod ψ, so some LCs serve two patterns.
//
// The home-LC invariant — longest-prefix matching over an address's home
// partition always equals matching over the whole table — holds by
// construction: every prefix matching address a is compatible with a's
// control-bit pattern (each control bit of the prefix is either "*" or
// equal to a's bit), so it is placed in a's pattern group.
package partition

import (
	"fmt"
	"math/bits"
	"slices"

	"spal/internal/ip"
	"spal/internal/rtable"
)

// Partitioning is the result of fragmenting a routing table for ψ LCs. It
// holds one copy of the routes, the full table: an LC's forwarding table is
// the subset of it the control bits place there, derived on demand (Table,
// Tables) for building that LC's engine and dropped after, so the routes are
// never stored twice. What it keeps per LC is the size of that subset.
type Partitioning struct {
	// Bits holds the chosen control-bit positions in selection order; the
	// first selected bit is the most significant bit of the pattern.
	Bits []int
	// NumLCs is ψ.
	NumLCs int

	home  *home
	pt    *patterns // home.pattern as a table, for the passes over routes
	free  [33]int   // per prefix length: the pattern bits such a prefix leaves "*"
	full  *rtable.Table
	sizes []int // routes per LC: Table(lc).Len(), kept without the table
}

// home is the address → home-LC map of a partitioning and nothing else:
// the control bits and the pattern → LC folding, no route.
type home struct {
	bits        []int
	patternToLC []int // 2^η -> LC index
}

// lc returns a's home LC.
func (h *home) lc(a ip.Addr) int { return h.patternToLC[h.pattern(a)] }

// pattern returns a's control-bit pattern: the first chosen bit is its most
// significant.
func (h *home) pattern(a ip.Addr) int {
	pat := 0
	for i, pos := range h.bits {
		pat |= int(ip.AddrBit(a, pos)) << (len(h.bits) - 1 - i)
	}
	return pat
}

// ceilLog2 returns the smallest η with 2^η >= n (η = 0 for n <= 1).
func ceilLog2(n int) int {
	e := 0
	for 1<<e < n {
		e++
	}
	return e
}

// Partition fragments t for numLCs line cards, selecting control bits per
// the paper's criteria. numLCs may be any integer >= 1; numLCs == 1
// degenerates to the unpartitioned table.
func Partition(t *rtable.Table, numLCs int) *Partitioning {
	if numLCs < 1 {
		panic("partition: numLCs must be >= 1")
	}
	eta := ceilLog2(numLCs)
	bits := SelectBits(t, eta)
	return WithBits(t, numLCs, bits)
}

// Subset fragments t for a chassis of numLCs slots of which only the
// alive ones currently own ROT-partitions: η = ceil(log2 len(alive))
// control bits are selected per the paper's criteria and the 2^η
// patterns are folded onto the alive slots in order (pattern i →
// alive[i mod len(alive)]). Slots not in alive receive an empty
// forwarding table and are never returned by HomeLC, so the home-LC
// invariant holds over the survivors alone — this is what lets the
// router re-home partitions away from a dead or draining line card
// without touching the routing table itself. alive must be non-empty,
// strictly increasing, and within [0, numLCs). Subset(t, ψ, [0..ψ)) is
// exactly Partition(t, ψ).
func Subset(t *rtable.Table, numLCs int, alive []int) *Partitioning {
	eta := ceilLog2(len(alive))
	bits := SelectBits(t, eta)
	return SubsetWithBits(t, numLCs, alive, bits)
}

// WithBits fragments t using explicitly chosen control bits (η =
// len(bits)); 2^η patterns are folded onto numLCs by pattern mod numLCs.
// It panics when 2^len(bits) < numLCs, which would leave some LC without
// a pattern.
func WithBits(t *rtable.Table, numLCs int, bits []int) *Partitioning {
	alive := make([]int, numLCs)
	for i := range alive {
		alive[i] = i
	}
	return SubsetWithBits(t, numLCs, alive, bits)
}

// SubsetWithBits is Subset with explicitly chosen control bits. It
// panics when 2^len(bits) < len(alive), which would leave some alive LC
// without a pattern, and on a malformed alive set.
func SubsetWithBits(t *rtable.Table, numLCs int, alive []int, bits []int) *Partitioning {
	if numLCs < 1 {
		panic("partition: numLCs must be >= 1")
	}
	if len(alive) == 0 {
		panic("partition: alive set must be non-empty")
	}
	for i, lc := range alive {
		if lc < 0 || lc >= numLCs {
			panic(fmt.Sprintf("partition: alive LC %d outside [0, %d)", lc, numLCs))
		}
		if i > 0 && alive[i-1] >= lc {
			panic("partition: alive set must be strictly increasing")
		}
	}
	if 1<<len(bits) < len(alive) {
		panic(fmt.Sprintf("partition: %d bits cannot address %d LCs", len(bits), len(alive)))
	}
	p := &Partitioning{
		Bits:   append([]int(nil), bits...),
		NumLCs: numLCs,
		full:   t,
		sizes:  make([]int, numLCs),
	}
	p.home = &home{bits: p.Bits, patternToLC: make([]int, 1<<len(bits))}
	p.pt = newPatterns(p.Bits)
	for pat := range p.home.patternToLC {
		p.home.patternToLC[pat] = alive[pat%len(alive)]
	}
	for l := range p.free {
		for i, pos := range bits {
			if pos >= l {
				p.free[l] |= 1 << (len(bits) - 1 - i)
			}
		}
	}
	p.place(func(lc int, _ rtable.Route) { p.sizes[lc]++ })
	return p
}

// place is the one pass that decides where routes live: it calls add(lc,
// r) for each route r of the full table, in table order, and each LC lc
// whose forwarding table holds r — once per LC, however many of r's
// patterns fold onto it.
func (p *Partitioning) place(add func(lc int, r rtable.Route)) {
	var lcs []int
	for _, r := range p.full.Routes() {
		lcs = p.lcsOf(lcs[:0], r.Prefix)
		for _, lc := range lcs {
			add(lc, r)
		}
	}
}

// patterns is home.pattern as a table, for the passes that take the
// pattern of every route: entry [i][x] holds the pattern bits that byte i
// of an address (the most significant first) sets when its value is x, so
// an address's pattern is the OR of four loads, not a loop over the bits.
type patterns [4][256]int

func newPatterns(bits []int) *patterns {
	pt := new(patterns)
	for i, pos := range bits {
		for x := range pt[pos/8] {
			if x>>(7-pos%8)&1 == 1 {
				pt[pos/8][x] |= 1 << (len(bits) - 1 - i)
			}
		}
	}
	return pt
}

func (pt *patterns) of(a ip.Addr) int {
	return pt[0][a>>24] | pt[1][a>>16&0xff] | pt[2][a>>8&0xff] | pt[3][a&0xff]
}

// lcsOf appends to dst, which the caller passes in empty, each LC whose
// forwarding table holds prefix pr once: the LCs its compatible patterns
// fold onto. A pattern is compatible when it agrees with pr on every
// control bit pr fixes; a bit at or beyond pr's length is "*" and takes
// both values.
func (p *Partitioning) lcsOf(dst []int, pr ip.Prefix) []int {
	free := p.free[pr.Len]
	pat := p.pt.of(pr.Value) &^ free
	for sub := free; ; sub = (sub - 1) & free {
		if lc := p.home.patternToLC[pat|sub]; !slices.Contains(dst, lc) {
			dst = append(dst, lc)
		}
		if sub == 0 {
			return dst
		}
	}
}

// ApplyUpdates returns a new Partitioning with the update batch applied
// under the SAME control bits and pattern→LC folding — the incremental
// path for route churn, where re-selecting bits (and re-homing every
// address) would be a full two-phase swap. The home-LC invariant is
// preserved by construction: an updated prefix lands on exactly the LCs
// lcsOf assigns it, the same rule the full rebuild uses. The second result
// is the per-LC sub-batch: update i appears in subBatches[lc] iff lc's
// forwarding table would hold its prefix, which is what the router streams
// into each LC's dynamic trie. The only routes it copies are the full
// table's; the per-LC sizes move by ±1 for each prefix the batch adds to or
// removes from it.
func (p *Partitioning) ApplyUpdates(batch []rtable.Update) (*Partitioning, [][]rtable.Update) {
	perLC := make([][]rtable.Update, p.NumLCs)
	var lcs []int
	for _, u := range batch {
		lcs = p.lcsOf(lcs[:0], u.Route.Prefix)
		for _, lc := range lcs {
			perLC[lc] = append(perLC[lc], u)
		}
	}
	np := &Partitioning{
		Bits:   p.Bits,
		NumLCs: p.NumLCs,
		home:   p.home,
		pt:     p.pt,
		free:   p.free,
		sizes:  slices.Clone(p.sizes),
	}
	np.full = p.full.ApplyAllFunc(batch, func(pr ip.Prefix, delta int) {
		lcs = p.lcsOf(lcs[:0], pr)
		for _, lc := range lcs {
			np.sizes[lc] += delta
		}
	})
	return np, perLC
}

// HomeLC returns the home line card of an address: the LC whose forwarding
// table is guaranteed to contain every prefix matching it.
func (p *Partitioning) HomeLC(a ip.Addr) int { return p.home.lc(a) }

// Home returns HomeLC as a function bound to the control bits and the
// pattern→LC map alone: a forwarding plane that keeps it keeps no route.
// Partitionings derived by ApplyUpdates share it.
func (p *Partitioning) Home() func(ip.Addr) int { return p.home.lc }

// Table derives LC lc's forwarding table (its ROT-partition union) from
// the full table: one pass over every route, and a fresh table each call.
// To build several LCs' tables call Tables, which makes that pass once.
func (p *Partitioning) Table(lc int) *rtable.Table {
	routes := make([]rtable.Route, 0, p.sizes[lc])
	p.place(func(l int, r rtable.Route) {
		if l == lc {
			routes = append(routes, r)
		}
	})
	return rtable.NewSorted(routes)
}

// Tables derives every LC's forwarding table in one pass over the full
// table: Tables()[lc] is Table(lc).
func (p *Partitioning) Tables() []*rtable.Table {
	perLC := make([][]rtable.Route, p.NumLCs)
	for lc, n := range p.sizes {
		perLC[lc] = make([]rtable.Route, 0, n)
	}
	p.place(func(lc int, r rtable.Route) { perLC[lc] = append(perLC[lc], r) })
	tables := make([]*rtable.Table, p.NumLCs)
	for lc, routes := range perLC {
		tables[lc] = rtable.NewSorted(routes)
	}
	return tables
}

// Full returns the unpartitioned routing table.
func (p *Partitioning) Full() *rtable.Table { return p.full }

// Stats summarizes partition quality.
type Stats struct {
	Sizes       []int   // prefixes per LC
	Min, Max    int     // smallest / largest partition
	Replication float64 // Σ sizes / original size (1.0 = no copies)
}

// Stats computes partition-quality measures from the kept sizes: O(ψ).
func (p *Partitioning) Stats() Stats {
	s := Stats{Sizes: slices.Clone(p.sizes)}
	total := 0
	for i, n := range p.sizes {
		total += n
		if i == 0 || n < s.Min {
			s.Min = n
		}
		if n > s.Max {
			s.Max = n
		}
	}
	if p.full.Len() > 0 {
		s.Replication = float64(total) / float64(p.full.Len())
	}
	return s
}

// SelectBits picks eta control bits per the paper's criteria.
func SelectBits(t *rtable.Table, eta int) []int {
	// groups: prefix sets per pattern of the bits chosen so far. Prefixes
	// with "*" at a chosen bit appear in several groups, exactly as they
	// will be replicated across ROT-partitions.
	groups := [][]ip.Prefix{t.Prefixes()}
	var chosen []int
	var used [32]bool
	for k := 0; k < eta; k++ {
		scores, best := scoreBits(groups), -1
		for pos, s := range scores {
			if !used[pos] && (best < 0 || s.less(scores[best])) {
				best = pos
			}
		}
		chosen = append(chosen, best)
		used[best] = true
		if k < eta-1 {
			groups = splitGroups(groups, best)
		}
	}
	return chosen
}

// bitScore rates splitting every current group at one bit: total is the
// prefix count after the split (criterion 1: Σ (Φ + Φ*)); spread is
// max−min over the resulting subgroup sizes (criterion 2 generalized).
type bitScore struct{ total, spread int }

// less orders candidates: lower total first, then lower spread. Ties go to
// the lower bit position, the order SelectBits scans them in.
func (s bitScore) less(o bitScore) bool {
	return s.total < o.total || (s.total == o.total && s.spread < o.spread)
}

// scoreBits scores all 32 bit positions in one pass over each group. A
// prefix is "*" at every position from its length on, so a histogram of
// lengths gives Φ* at each position; its bits below its length, counted
// a byte at a time in four 256-bin histograms, give Φ1 at each position;
// and the 0-side subgroup, Φ0 + Φ*, is the rest: |g| − Φ1.
func scoreBits(groups [][]ip.Prefix) [32]bitScore {
	var total, minSz, maxSz [32]int
	for gi, g := range groups {
		var lens [33]int
		var bytes [4][256]int
		for _, pr := range g {
			lens[pr.Len]++
			v := pr.Value & ip.Mask(pr.Len)
			bytes[0][v>>24]++
			bytes[1][v>>16&0xff]++
			bytes[2][v>>8&0xff]++
			bytes[3][v&0xff]++
		}
		var n1 [32]int
		for b := range bytes {
			for x, c := range bytes[b] {
				for m := uint8(x); m != 0; m &= m - 1 {
					n1[8*b+7-bits.TrailingZeros8(m)] += c
				}
			}
		}
		nStar := 0
		for pos := range n1 {
			nStar += lens[pos] // prefixes no longer than pos
			s0, s1 := len(g)-n1[pos], n1[pos]+nStar
			total[pos] += s0 + s1
			if lo := min(s0, s1); gi == 0 || lo < minSz[pos] {
				minSz[pos] = lo
			}
			maxSz[pos] = max(maxSz[pos], s0, s1)
		}
	}
	var out [32]bitScore
	for pos := range out {
		out[pos] = bitScore{total[pos], maxSz[pos] - minSz[pos]}
	}
	return out
}

// splitGroups applies the chosen bit, doubling the group list: each group g
// becomes g0, its prefixes whose bit pos is 0 or "*", then g1, those whose
// bit is 1 or "*". Earlier-chosen bits thus stay more significant in the
// group order and the new bit is the least, as in home.pattern. A first
// pass counts both sides, so every subgroup is cut at its exact size from
// one allocation.
func splitGroups(groups [][]ip.Prefix, pos int) [][]ip.Prefix {
	sizes := make([]int, 2*len(groups))
	total := 0
	for i, g := range groups {
		for _, pr := range g {
			b, known := pr.Bit(pos)
			if !known || b == 0 {
				sizes[2*i]++
			}
			if !known || b == 1 {
				sizes[2*i+1]++
			}
		}
		total += sizes[2*i] + sizes[2*i+1]
	}
	backing := make([]ip.Prefix, total)
	out := make([][]ip.Prefix, 2*len(groups))
	for i, n := range sizes {
		out[i], backing = backing[:0:n], backing[n:]
	}
	for i, g := range groups {
		g0, g1 := out[2*i], out[2*i+1]
		for _, pr := range g {
			b, known := pr.Bit(pos)
			if !known || b == 0 {
				g0 = append(g0, pr)
			}
			if !known || b == 1 {
				g1 = append(g1, pr)
			}
		}
		out[2*i], out[2*i+1] = g0, g1
	}
	return out
}

// LengthPartition implements the comparator scheme of Akhbarizadeh &
// Nourani (ICC 2002) the paper contrasts with in Sec. 2.3: one partition
// per distinct prefix length, every partition kept at every FE. It returns
// the partitions ordered by length and is used to demonstrate their size
// imbalance versus SPAL's criteria-driven split.
func LengthPartition(t *rtable.Table) []*rtable.Table {
	byLen := make(map[uint8][]rtable.Route)
	for _, r := range t.Routes() {
		byLen[r.Prefix.Len] = append(byLen[r.Prefix.Len], r)
	}
	var out []*rtable.Table
	for l := 0; l <= 32; l++ {
		if rs, ok := byLen[uint8(l)]; ok {
			out = append(out, rtable.New(rs))
		}
	}
	return out
}
