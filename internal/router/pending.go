package router

import "spal/internal/ip"

// pendingTable holds a line card's in-flight misses, address → waitlist:
// open addressing, linear probing, backward-shift deletion, the slots
// indexing a dense list of the entries. Three properties are design (DESIGN
// §11). The hash is seeded per Router: addresses are outside input, and a
// fixed hash lets a sender aim a batch at one probe chain. Nothing walks the
// slots: sweep, re-drive and crash replay go through the dense list — park
// order, perturbed only by the deletions made — so their order is a function
// of the operations performed alone and a seeded fault schedule replays. A
// table that grew is back at its initial size once it drains, the rule
// maxFreeWaitlists applies to the free list.
type pendingTable struct {
	seed   uint64        // odd
	shift  uint          // 64 - log2(len(slots))
	slots  []pendingSlot // a power of two of them, at most half in use
	dense  []pendingEntry
	cursor int // a walk's position: dense[:cursor] is still to be visited
}

// A slot holds the address, so that a probe compares without leaving the
// array, and the entry's position in dense plus one (zero: empty); an entry
// holds the slot it is in.
type pendingSlot struct {
	addr ip.Addr
	pos  uint32
}

type pendingEntry struct {
	addr ip.Addr
	slot uint32
	wl   *waitlist
}

// pendingMinBits: the table starts with 1<<8 slots, and doubles whenever it
// would become more than half full.
const pendingMinBits = 8

func newPendingTable(seed uint64) pendingTable {
	t := pendingTable{seed: seed | 1}
	t.reset()
	return t
}

func (t *pendingTable) reset() {
	t.slots = make([]pendingSlot, 1<<pendingMinBits)
	t.dense = make([]pendingEntry, 0, len(t.slots)/2)
	t.shift, t.cursor = 64-pendingMinBits, 0
}

func (t *pendingTable) len() int { return len(t.dense) }

// home is a's first slot. The second multiply is there so that no stride of
// addresses lines up, whatever the seed.
func (t *pendingTable) home(a ip.Addr) int {
	x := uint64(a) * t.seed
	return int((x ^ x>>32) * 0x9e3779b97f4a7c15 >> t.shift)
}

// find returns the slot holding a, or the empty slot that ends its chain.
func (t *pendingTable) find(a ip.Addr) int {
	i, mask := t.home(a), len(t.slots)-1
	for t.slots[i].pos != 0 && t.slots[i].addr != a {
		i = (i + 1) & mask
	}
	return i
}

// get returns a's waitlist, nil when a is not in flight. An empty table —
// a home LC's, consulted per request — is not hashed into.
func (t *pendingTable) get(a ip.Addr) *waitlist {
	if len(t.dense) == 0 {
		return nil
	}
	if s := t.slots[t.find(a)]; s.pos != 0 {
		return t.dense[s.pos-1].wl
	}
	return nil
}

// put parks wl under a, which must not be present.
func (t *pendingTable) put(a ip.Addr, wl *waitlist) {
	if 2*len(t.dense) >= len(t.slots) {
		t.slots = make([]pendingSlot, 2*len(t.slots))
		t.shift--
		for k := range t.dense {
			e := &t.dense[k]
			e.slot = uint32(t.find(e.addr))
			t.slots[e.slot] = pendingSlot{e.addr, uint32(k + 1)}
		}
	}
	i := t.find(a)
	t.dense = append(t.dense, pendingEntry{a, uint32(i), wl})
	t.slots[i] = pendingSlot{a, uint32(len(t.dense))}
}

// delete takes a out and returns its waitlist, nil when a is not present.
// The last entry fills the hole in dense — under a walk that has yet to
// reach the hole, the last entry still to be visited does, and the last one
// takes its place: a walk sees no entry twice and misses none still there.
func (t *pendingTable) delete(a ip.Addr) *waitlist {
	i, mask := t.find(a), len(t.slots)-1
	if t.slots[i].pos == 0 {
		return nil
	}
	hole := int(t.slots[i].pos - 1)
	wl := t.dense[hole].wl
	// Backward shift: every later entry of the chain that may move up does.
	for j := (i + 1) & mask; t.slots[j].pos != 0; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].addr))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			t.dense[t.slots[i].pos-1].slot = uint32(i)
			i = j
		}
	}
	t.slots[i] = pendingSlot{}
	if hole < t.cursor {
		t.cursor--
		hole = t.move(t.cursor, hole)
	}
	last := len(t.dense) - 1
	t.move(last, hole)
	t.dense[last] = pendingEntry{}
	t.dense = t.dense[:last]
	if last == 0 && len(t.slots) > 1<<pendingMinBits {
		t.reset()
	}
	return wl
}

// move moves dense[from] into the hole dense[to]; from is the hole now.
func (t *pendingTable) move(from, to int) int {
	if from != to {
		t.dense[to] = t.dense[from]
		t.slots[t.dense[to].slot].pos = uint32(to + 1)
	}
	return from
}

// take empties the table and returns what it held, in park order.
func (t *pendingTable) take() []pendingEntry {
	held := t.dense
	t.reset()
	return held
}

// walk starts a visit of every entry now present, newest first; next yields
// them. The loop's body may delete any entry and may put: what is parked
// during a walk is not visited. Nothing allocates.
func (t *pendingTable) walk() { t.cursor = len(t.dense) }

func (t *pendingTable) next() (ip.Addr, *waitlist, bool) {
	if t.cursor == 0 {
		return 0, nil, false
	}
	t.cursor--
	e := t.dense[t.cursor]
	return e.addr, e.wl, true
}
