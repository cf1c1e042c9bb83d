// Package lulea implements the Degermark/Brodnik/Carlsson/Pink compressed
// forwarding table ("Small Forwarding Tables for Fast Routing Lookups",
// SIGCOMM 1997) — the "Lulea trie" the SPAL paper adopts for its 40-cycle
// FE lookup model.
//
// The structure has three levels with strides 16, 8 and 8. Each level is a
// conceptual array of slots (2^16 for level 1, 256 per chunk for levels 2
// and 3) compressed with the head/bit-vector scheme:
//
//   - a slot is a *head* when its pointer differs from the previous slot's
//     (slot 0 is always a head), so runs of equal pointers cost one entry;
//   - the bit vector is split into 16-bit masks; a codeword per mask holds
//     the mask plus a 6-bit offset (heads since the enclosing base point);
//   - a base index per four codewords anchors the offsets;
//   - maptable[mask][bit] gives the number of heads in the mask up to a bit
//     position, so pointer index = base + offset + maptable(...) - 1.
//
// Pointers are tagged: a leaf pointer carries the next hop (or "no route"),
// a chunk pointer names a next-level chunk. Level 2/3 chunks come in the
// paper's three densities: sparse (<= 8 heads: eight 1-byte offsets +
// pointers, 2 memory accesses), dense (<= 64 heads: codewords without base
// indexes, 3 accesses) and very dense (codewords + base indexes, 4
// accesses, same as level 1).
//
// Layout. A Trie is three flat arrays and nothing else: code1 (the 4,096
// level-1 codewords), ptrs1 (the level-1 head pointers) and slab, one
// []uint32 holding every level-2/3 chunk back to back. A chunk is
// self-contained at the slab offset its pointer carries, and the pointer's
// tag bits carry its kind, so descending a level reads no per-chunk header
// and follows no slice: at most two dependent loads from the slab (offsets
// or codeword, then the pointer) plus the 10.8 KB maptable.
//
//	sparse            2 words: eight head slots, one byte each, ascending
//	                  8 words: their pointers
//	dense, veryDense  16 words: the codewords
//	                  n words: the n head pointers
//
// A sparse chunk with fewer than eight heads repeats its last head (slot
// and pointer) into the unused places: every sparse chunk is ten words and
// the scan for a slot's head runs over all eight places without a length
// to load or test. A codeword counts the heads before its word from the
// start of the level or chunk — at most 65,520, which fits its low 16 bits
// — so the base index is folded in and no lookup reads one.
//
// Build. New never lays a level's slots out. One sweep over the table, in
// table order, paints each level as runs of equal pointers — a stack of
// open prefixes, where a nested prefix overwrites its parent — and cuts each
// run into its maximal aligned blocks, the heads of the complete-prune rule
// that the maptable's 678 masks assume; codewords, sparse offsets and
// pointers are written from that head list. The longer prefixes under a
// slot follow the slot's own in table order, so the sweep builds the slot's
// chunk from them, the same way, when it reaches the slot. A build costs
// what its routes and heads cost, not 2^16 slots plus 256 a chunk.
//
// Fidelity note: what is modelled stays modelled. MemoryBytes counts the
// paper's on-chip sizes (Fig. 3) — 2-byte codewords with a 10-bit maptable
// id and a 6-bit offset, a 2-byte base index per four codewords at level 1
// and in very dense chunks, 2-byte pointers, eight offset bytes per sparse
// chunk with pointers for its real heads only, and one shared 5,424-byte
// maptable of 4-bit entries — where this process spends a 4-byte word on
// each (about 1.9x the model, held by TestRealBytes) and a byte per
// maptable entry. Access counting charges what the hardware performs
// (Sec. 5.1): codeword, base index, maptable and pointer at level 1 and in
// a very dense chunk, the same less the base index in a dense one, offsets
// and pointer in a sparse one. The base-index reads — level 1's and a very
// dense chunk's — are charged but no longer performed.
package lulea

import (
	"math/bits"

	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/rtable"
)

// Tagged pointer. Bit 31 clear is a leaf: the next hop in the low 16 bits,
// or noRoute (whose low 16 bits are rtable.NoNextHop) for no match. Bit 31
// set is a chunk: its encoding in bits 29..30, its slab offset below them.
type pointer uint32

const (
	chunkTag         = pointer(1) << 31
	kindShift        = 29
	slabOffsetMask   = pointer(1)<<kindShift - 1
	noRoute          = pointer(0x7fffffff)
	maptableBytes    = 678 * 16 / 2 // 678 masks x 16 positions x 4 bits
	codewordBytes    = 2
	baseIndexBytes   = 2
	pointerBytes     = 2
	chunkHandleBytes = 4 // per-chunk directory entry
	sparseChunkHeads = 8
	denseChunkHeads  = 64
	level1Slots      = 1 << 16
	chunkSlots       = 256
	wordsPerBase     = 4 // one (modelled) base index anchors four codewords
	slotsPerWord     = 16
	chunkWords       = chunkSlots / slotsPerWord
	sparseWords      = sparseChunkHeads / 4 // eight 1-byte head offsets
	// batchGroup is how many keys LookupBatch walks a level at a time: the
	// router's sweeps are 64/ψ = 16 addresses at the benchmark's ψ = 4.
	batchGroup = 16
)

func leaf(nh rtable.NextHop) pointer { return pointer(nh) }

func (p pointer) isChunk() bool { return p&chunkTag != 0 }

// kind is a chunk pointer's encoding.
func (p pointer) kind() chunkKind { return chunkKind(p >> kindShift & 3) }

// result decodes a leaf after a walk that cost the given accesses.
func (p pointer) result(accesses int32) lpm.Result {
	return lpm.Result{NextHop: rtable.NextHop(p), Accesses: accesses, OK: p != noRoute}
}

// A codeword names its word's head mask by maptable id (bits 16..25: one of
// the 678 legal masks, see maptable.go) and, in its low 16 bits, counts the
// heads before the word from the start of the level or chunk — the genuine
// 6-bit offset with its base index folded in.
func codeword(mask uint16, before int) uint32 { return uint32(idOf(mask))<<16 | uint32(before) }

// chunkKind selects the chunk encoding by head count.
type chunkKind uint8

const (
	sparse chunkKind = iota
	dense
	veryDense
)

// Trie is an immutable Lulea forwarding table built by New.
type Trie struct {
	code1    []uint32  // 4096 level-1 codewords
	ptrs1    []pointer // level-1 head pointers
	slab     []uint32  // every level-2/3 chunk, at the offset its pointer carries
	memBytes int       // modelled, see MemoryBytes
	chunks   [2]int    // level-2 and level-3 chunk counts
}

var _ lpm.BatchEngine = (*Trie)(nil)

// NewEngine adapts New to the lpm.Builder signature.
func NewEngine(t *rtable.Table) lpm.Engine { return New(t) }

// A run is a stretch of equal pointers from start to the next run's start
// (or the level's end); a head is the run of one aligned block.
type run struct {
	start uint32
	p     pointer
}

// A painter turns one level's routes into the maximal runs of its slots.
// Routes come in table order — (value, length), so a prefix precedes every
// prefix nested in it — and a nested prefix therefore overwrites its
// parent: the open prefixes are a stack, innermost last.
type painter struct {
	size  uint32 // slots: 2^16 at level 1, 256 in a chunk
	shift uint   // address bits below the level's last slot bit
	runs  []run
	open  []run // open prefixes: (first slot past the prefix, pointer)
}

// reset starts the level over def, which sits at the bottom of the open
// stack for the whole level.
func (lv *painter) reset(size uint32, shift uint, def pointer) {
	lv.size, lv.shift = size, shift
	lv.runs = append(lv.runs[:0], run{0, def})
	lv.open = append(lv.open[:0], run{size, def})
}

// slot is the level's slot of an address.
func (lv *painter) slot(a uint32) uint32 { return a >> lv.shift & (lv.size - 1) }

// set starts a run of p at slot start, over an empty last run and onto a
// last run of the same pointer.
func (lv *painter) set(start uint32, p pointer) {
	if n := len(lv.runs); lv.runs[n-1].start == start {
		lv.runs = lv.runs[:n-1]
	}
	if n := len(lv.runs); n == 0 || lv.runs[n-1].p != p {
		lv.runs = append(lv.runs, run{start, p})
	}
}

// at closes the open prefixes that end at or before slot and returns the
// pointer the slot holds.
func (lv *painter) at(slot uint32) pointer {
	n := len(lv.open)
	for ; lv.open[n-1].start <= slot; n-- {
		lv.set(lv.open[n-1].start, lv.open[n-2].p)
	}
	lv.open = lv.open[:n]
	return lv.open[n-1].p
}

// cover paints span slots from start with p.
func (lv *painter) cover(start, span uint32, p pointer) {
	lv.at(start)
	lv.set(start, p)
	lv.open = append(lv.open, run{start + span, p})
}

// finish closes the open prefixes that end inside the level and returns
// its runs.
func (lv *painter) finish() []run {
	lv.at(lv.size - 1)
	return lv.runs
}

// heads appends the complete-prune heads of runs over size slots: each run
// cut into its maximal aligned blocks, one head each, so that every word's
// mask is one of the 678 legal maptable masks.
func heads(dst, runs []run, size uint32) []run {
	for i, r := range runs {
		end := size
		if i+1 < len(runs) {
			end = runs[i+1].start
		}
		for x := r.start; x < end; {
			k := uint32(1) << (bits.Len32(end-x) - 1) // the largest block that fits
			if x != 0 {
				k = min(k, x&-x) // and is aligned
			}
			dst = append(dst, run{x, r.p})
			x += k
		}
	}
	return dst
}

// under splits off the leading routes whose address bits above shift are key.
func under(routes []rtable.Route, shift uint, key uint32) (head, rest []rtable.Route) {
	n := 0
	for n < len(routes) && routes[n].Prefix.Value>>shift == key {
		n++
	}
	return routes[:n], routes[n:]
}

// builder holds one painter per level, reused from chunk to chunk, and the
// head list of the level being encoded.
type builder struct {
	tr    *Trie
	lv    [3]painter
	heads []run
}

// New builds the three-level structure from a table snapshot.
func New(t *rtable.Table) *Trie {
	// Room for the slab up front: it comes to 7–9 words a prefix longer than
	// /16 on RT1, RT2 and RT2's partitions, so it seldom has to grow.
	long := 0
	for _, r := range t.Routes() {
		if r.Prefix.Len > 16 {
			long++
		}
	}
	tr := &Trie{memBytes: maptableBytes, slab: make([]uint32, 0, 9*long)}
	// The two buffers that grow with the table, level 1's runs and the head
	// list, start past the small-object size classes (32 KiB). Grown through
	// them, they shared spans with small arrays that outlive the build and
	// kept those spans in use: sim_fig6's heap_mb read ~0.15 MiB higher.
	b := &builder{tr: tr, heads: make([]run, 0, 1<<13)}
	b.lv[0].runs = make([]run, 0, 1<<13)
	b.heads = heads(b.heads[:0], b.level(0, noRoute, t.Routes()).finish(), level1Slots)
	if len(tr.slab) > int(slabOffsetMask) {
		panic("lulea: slab outgrew the chunk pointers' offset bits")
	}
	// Clip to the exact length: append's slack would live as long as the trie.
	tr.slab = append(make([]uint32, 0, len(tr.slab)), tr.slab...)
	tr.code1 = make([]uint32, level1Slots/slotsPerWord)
	tr.ptrs1 = make([]pointer, len(b.heads))
	encode(b.heads, tr.code1, tr.ptrs1)
	tr.memBytes += len(tr.code1)*codewordBytes + len(tr.code1)/wordsPerBase*baseIndexBytes + len(tr.ptrs1)*pointerBytes
	return tr
}

// level paints level d (0 for level 1) of the region its routes share, in
// table order, over def. In table order a slot's own prefixes come before
// the longer ones under it, and those are contiguous: each such group
// becomes the slot's chunk, built over the longest match the slot holds
// and emitted to the slab as the sweep reaches it.
func (b *builder) level(d int, def pointer, routes []rtable.Route) *painter {
	lv, shift, size := &b.lv[d], uint(16-8*d), uint32(chunkSlots)
	if d == 0 {
		size = level1Slots
	}
	lv.reset(size, shift, def)
	for len(routes) > 0 {
		r := routes[0]
		if r.Prefix.Len <= uint8(32-shift) {
			lv.cover(lv.slot(r.Prefix.Value), 1<<(32-shift-uint(r.Prefix.Len)), leaf(r.NextHop))
			routes = routes[1:]
			continue
		}
		var longer []rtable.Route
		longer, routes = under(routes, shift, r.Prefix.Value>>shift)
		s := lv.slot(r.Prefix.Value)
		lv.cover(s, 1, b.emit(b.level(d+1, lv.at(s), longer).finish()))
		b.tr.chunks[d]++
	}
	return lv
}

// encode writes one codeword per 16 slots and the head pointers in slot
// order; the caller sizes code and ptrs.
func encode[T ~uint32](heads []run, code []uint32, ptrs []T) {
	n := 0
	for w := range code {
		before := n
		var mask uint16
		for ; n < len(heads) && heads[n].start < uint32(w+1)*slotsPerWord; n++ {
			mask |= 1 << (15 - heads[n].start%slotsPerWord)
			ptrs[n] = T(heads[n].p)
		}
		code[w] = codeword(mask, before)
	}
}

// emit appends a chunk's runs to the slab as one self-contained chunk,
// choosing the density by head count and charging the chunk's modelled
// bytes, and returns the pointer to it.
func (b *builder) emit(runs []run) pointer {
	tr := b.tr
	b.heads = heads(b.heads[:0], runs, chunkSlots)
	hs := b.heads
	n, at := len(hs), len(tr.slab)
	tr.memBytes += chunkHandleBytes + n*pointerBytes
	if n <= sparseChunkHeads {
		// Two words of head offsets, ascending from the low byte of the
		// first, then the eight pointers. Places past the last head repeat
		// it, so descend's scan needs no length.
		tr.memBytes += sparseChunkHeads
		tr.slab = append(tr.slab, make([]uint32, sparseWords+sparseChunkHeads)...)
		c := tr.slab[at:]
		for k := 0; k < sparseChunkHeads; k++ {
			h := hs[min(k, n-1)]
			c[k/4] |= h.start << (k % 4 * 8)
			c[sparseWords+k] = uint32(h.p)
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
	encode(hs, tr.slab[at:at+chunkWords], tr.slab[at+chunkWords:])
	return chunkTag | pointer(kind)<<kindShift | pointer(at)
}

// headIndex is the maptable lookup: the number of heads at slot positions
// <= bit within the word named by the mask id. Charged as one memory
// access by the callers, exactly as the hardware maptable access.
func headIndex(id maskID, bit uint32) int {
	return int(headCount[id][bit])
}

// index is a codeword's pointer index for one of its word's slots.
func index(cw, bit uint32) uint32 {
	return cw&0xffff + uint32(headIndex(maskID(cw>>16), bit)) - 1
}

// level1 resolves the address's /16 slot: codeword, maptable, pointer.
func (tr *Trie) level1(a ip.Addr) pointer {
	ix := uint32(a) >> 16
	return tr.ptrs1[index(tr.code1[ix/slotsPerWord], ix%slotsPerWord)]
}

// descend resolves one slot of the chunk p points to, returning what the
// slot holds and the memory accesses Sec. 5.1 charges for the chunk's kind.
func (tr *Trie) descend(p pointer, slot uint32) (pointer, int32) {
	kind, c := p.kind(), tr.slab[p&slabOffsetMask:]
	if kind == sparse {
		// All eight offsets fit one 64-bit word: one access, plus the
		// pointer fetch. The first offset is 0, which ends the scan.
		offs, i := uint64(c[1])<<32|uint64(c[0]), uint(sparseChunkHeads-1)
		for uint32(offs>>(i*8))&0xff > slot {
			i--
		}
		return pointer(c[sparseWords+i]), 2
	}
	// dense: codeword + maptable + pointer; veryDense charges its base
	// index too.
	return pointer(c[chunkWords+index(c[slot/slotsPerWord], slot%slotsPerWord)]), 2 + int32(kind)
}

// Lookup implements lpm.Engine. Level 1 always costs 4 accesses (codeword,
// base index, maptable, pointer); each deeper level adds its chunk cost.
func (tr *Trie) Lookup(a ip.Addr) (rtable.NextHop, int, bool) {
	p, accesses := tr.level1(a), int32(4)
	for shift := 8; p.isChunk(); shift -= 8 {
		var n int32
		p, n = tr.descend(p, uint32(a)>>shift&(chunkSlots-1))
		accesses += n
	}
	r := p.result(accesses)
	return r.NextHop, int(r.Accesses), r.OK
}

// LookupBatch implements lpm.BatchEngine a level per pass: batchGroup keys
// take level 1, then those holding a chunk pointer level 2, then level 3,
// so the group's loads are independent of one another and overlap where
// Lookup's chain of three serialises. The group's state is two stack
// arrays; nothing is kept on the trie.
func (tr *Trie) LookupBatch(addrs []ip.Addr, out []lpm.Result) {
	for len(addrs) > 0 {
		n := min(len(addrs), batchGroup)
		var p [batchGroup]pointer
		var accesses [batchGroup]int32
		for i, a := range addrs[:n] {
			p[i], accesses[i] = tr.level1(a), 4
		}
		for _, shift := range [2]uint{8, 0} {
			for i, a := range addrs[:n] {
				if p[i].isChunk() {
					var c int32
					p[i], c = tr.descend(p[i], uint32(a)>>shift&(chunkSlots-1))
					accesses[i] += c
				}
			}
		}
		for i := range addrs[:n] {
			out[i] = p[i].result(accesses[i])
		}
		addrs, out = addrs[n:], out[n:]
	}
}

// MemoryBytes reports the modelled on-chip footprint.
func (tr *Trie) MemoryBytes() int { return tr.memBytes }

// realBytes is what the three arrays occupy in this process.
func (tr *Trie) realBytes() int { return (cap(tr.code1) + cap(tr.ptrs1) + cap(tr.slab)) * 4 }

// Name implements lpm.Engine.
func (tr *Trie) Name() string { return "lulea" }

// Chunks returns the level-2 and level-3 chunk counts (structure stats).
func (tr *Trie) Chunks() (l2, l3 int) { return tr.chunks[0], tr.chunks[1] }
