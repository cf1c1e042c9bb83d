// Package dptrie implements a dynamic prefix trie in the style of
// Doeringer, Karjoth and Nassehi ("Routing on Longest-Matching Prefixes",
// IEEE/ACM ToN 1996): a path-compressed binary trie that stores prefixes at
// internal nodes and inspects a single bit per search step.
//
// Structure: every node represents one bit string (the path from the root).
// A node exists for every stored prefix and for every branching point; path
// compression removes all single-child route-less chain nodes, so search
// touches at most one node per branching decision. Each visited node costs
// one modelled memory access, reproducing the paper's measured ~16 accesses
// per lookup on backbone tables.
//
// Layout. A Trie is a []node slab and nothing else: a node is 16 bytes and
// names its children by slab index, so the structure holds no pointer and
// the collector never walks it. The root is index 0; it is nobody's child,
// so 0 is also "no child". Delete puts the slots it merges or detaches on
// a free list threaded through them, and Insert takes from that list
// before it appends. The slab is two pieces under one index space: what
// New built, at exactly its length and never moved, and a tail append
// grows for nodes added since — the first new prefix after a build costs a
// slot, not a copy of the table with a quarter of slack. Neither piece
// shrinks: the slab is bounded by the trie's high-water node count.
//
// Fidelity note: what is modelled stays modelled. MemoryBytes counts the
// SPAL paper's own DP-trie cost (Fig. 3) — one byte for the index field
// plus five 4-byte pointers = 21 bytes per node — where this process
// stores 16 (about 0.76x the model, held by TestRealBytes), and every node
// visited is one charged access whatever cache line it shares.
package dptrie

import (
	"math/bits"

	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/rtable"
)

const nodeBytes = 21 // 1-byte index + five 4-byte pointers (paper's model)

// node is one slab slot. A slot on the free list is zero but for value,
// which holds the next free index: a stale index finds no route and no
// child.
type node struct {
	value    uint32    // bit string from the root to this node, left-aligned
	child    [2]uint32 // slab indices keyed by the bit at position plen; 0 is none
	nextHop  rtable.NextHop
	plen     uint8 // length of value in bits
	hasRoute bool
}

func (n *node) path() ip.Prefix { return ip.Prefix{Value: n.value, Len: n.plen} }

// Trie is a dynamic prefix trie: built by New, written in place by Insert
// and Delete.
type Trie struct {
	slab  []node // indices below len(slab): New's nodes
	tail  []node // the indices from len(slab) up: nodes added since
	free  uint32 // head of the free list, 0 when empty
	nodes int
}

var (
	_ lpm.Engine        = (*Trie)(nil)
	_ lpm.DynamicEngine = (*Trie)(nil)
)

// New builds the trie from a table snapshot.
func New(t *rtable.Table) *Trie {
	routes := t.Routes()
	// Built in the tail, where alloc appends; an insert adds at most a
	// split node and a leaf.
	tr := &Trie{tail: make([]node, 1, 2*len(routes)+1), nodes: 1}
	for _, r := range routes {
		tr.insert(r.Prefix, r.NextHop)
	}
	tr.slab = make([]node, len(tr.tail))
	copy(tr.slab, tr.tail)
	tr.tail = nil
	return tr
}

// NewEngine adapts New to the lpm.Builder signature.
func NewEngine(t *rtable.Table) lpm.Engine { return New(t) }

// at returns slot i.
func (tr *Trie) at(i uint32) *node {
	if int(i) < len(tr.slab) {
		return &tr.slab[i]
	}
	return &tr.tail[int(i)-len(tr.slab)]
}

// alloc stores n in a free slot, or at the end of the tail, and returns its
// index. It may move the tail: no *node taken before the call outlives it.
func (tr *Trie) alloc(n node) uint32 {
	tr.nodes++
	if i := tr.free; i != 0 {
		slot := tr.at(i)
		tr.free = slot.value
		*slot = n
		return i
	}
	tr.tail = append(tr.tail, n)
	return uint32(len(tr.slab) + len(tr.tail) - 1)
}

// release puts slot i on the free list.
func (tr *Trie) release(i uint32) {
	tr.nodes--
	*tr.at(i) = node{value: tr.free}
	tr.free = i
}

// commonLen returns the length of the longest common prefix of p and q.
func commonLen(p, q ip.Prefix) uint8 {
	return min(p.Len, q.Len, uint8(bits.LeadingZeros32(p.Value^q.Value)))
}

func (tr *Trie) insert(p ip.Prefix, nh rtable.NextHop) {
	leaf := node{value: p.Value, plen: p.Len, nextHop: nh, hasRoute: true}
	i := uint32(0)
	for {
		n := tr.at(i)
		c := commonLen(n.path(), p)
		if c < n.plen {
			// Diverges inside this node's compressed path: a split node
			// takes slot i, so the parent's index stays good, and the node
			// that was there re-hangs under it from a slot of its own.
			moved := *n
			split := node{value: p.Value & ip.Mask(c), plen: c}
			split.child[ip.AddrBit(moved.value, int(c))] = tr.alloc(moved)
			if p.Len == c {
				split.nextHop, split.hasRoute = nh, true
			} else {
				split.child[ip.AddrBit(p.Value, int(c))] = tr.alloc(leaf)
			}
			*tr.at(i) = split
			return
		}
		if p.Len == n.plen {
			// Exact node: set or replace the route.
			n.nextHop, n.hasRoute = nh, true
			return
		}
		b := ip.AddrBit(p.Value, int(n.plen))
		if n.child[b] == 0 {
			slot := tr.alloc(leaf)
			tr.at(i).child[b] = slot
			return
		}
		i = n.child[b]
	}
}

// Lookup walks the compressed trie, verifying each node's skipped bits
// against the address and remembering the deepest matching route. Each node
// visit is one modelled memory access.
func (tr *Trie) Lookup(a ip.Addr) (rtable.NextHop, int, bool) {
	best := rtable.NoNextHop
	found := false
	accesses := 0
	for i := uint32(0); ; {
		n := tr.at(i)
		accesses++
		if !n.path().Matches(a) {
			break
		}
		if n.hasRoute {
			best = n.nextHop
			found = true
		}
		if n.plen == 32 {
			break
		}
		if i = n.child[ip.AddrBit(a, int(n.plen))]; i == 0 {
			break
		}
	}
	return best, accesses, found
}

// MemoryBytes reports the modelled footprint (21 bytes per node, the SPAL
// paper's own DP-trie cost model).
func (tr *Trie) MemoryBytes() int { return tr.nodes * nodeBytes }

// Name implements lpm.Engine.
func (tr *Trie) Name() string { return "dptrie" }

// Nodes returns the node count.
func (tr *Trie) Nodes() int { return tr.nodes }
