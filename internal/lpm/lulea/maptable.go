package lulea

import (
	"fmt"
	"math/bits"
	"sort"
)

// The genuine Lulea maptable. Because the bit vector derives from a
// complete prefix tree pruned at depth 4 within each 16-slot word, the
// only non-zero masks that can occur are those describing such pruned
// trees: a(d) = 1 + a(d-1)^2 with a(0) = 1 gives a(4) = 677 masks, plus
// the all-zero mask of a word fully covered by a wider leaf — the
// paper's 678. The codeword therefore needs only 10 bits to name the
// mask, and maptable[id][slot] (4-bit entries) gives the number of heads
// at positions <= slot.
//
// enumerateMasks builds the registry once at package init; the builder
// panics if it ever produces a mask outside it, which would mean the
// head-marking logic lost the complete-tree property.

type maskID uint16

// illegalMask is maskTable's entry for a mask no pruned tree produces.
const illegalMask = ^maskID(0)

var (
	// maskTable maps every 16-bit mask to its id, or to illegalMask; ids
	// are assigned in ascending mask order with id 0 reserved for the zero
	// mask.
	maskTable [1 << 16]maskID
	// headCount[id][slot] = heads at positions <= slot within the word.
	headCount [][16]uint8
)

// enumerateMasks returns the set of masks of pruned complete binary trees
// over size slots (size a power of two), with slot 0 at the mask's MSB.
func enumerateMasks(size int) []uint64 {
	if size == 1 {
		return []uint64{1} // a single slot: one head
	}
	half := enumerateMasks(size / 2)
	var out []uint64
	// One leaf covering the whole region: head at slot 0 only.
	out = append(out, 1<<uint(size-1))
	// Or a split: any legal left half next to any legal right half.
	for _, l := range half {
		for _, r := range half {
			out = append(out, l<<uint(size/2)|r)
		}
	}
	return out
}

func init() {
	masks := enumerateMasks(16)
	uniq := make(map[uint64]bool, len(masks))
	for _, m := range masks {
		uniq[m] = true
	}
	sorted := make([]uint64, 0, len(uniq))
	for m := range uniq {
		sorted = append(sorted, m)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	for m := range maskTable {
		maskTable[m] = illegalMask
	}
	headCount = make([][16]uint8, len(sorted)+1)
	maskTable[0] = 0 // zero mask: word fully covered by a wider leaf
	for i, m := range sorted {
		id := maskID(i + 1)
		maskTable[uint16(m)] = id
		for slot := 0; slot < 16; slot++ {
			headCount[id][slot] = uint8(bits.OnesCount16(uint16(m) >> uint(15-slot)))
		}
	}
}

// MaskCount reports the registry size (678 with the zero mask), exposed
// for the tests that pin the paper's constant.
func MaskCount() int { return len(headCount) }

// idOf returns the maptable id for a mask, panicking on an illegal mask —
// that would mean head marking violated the complete-tree property.
func idOf(mask uint16) maskID {
	id := maskTable[mask]
	if id == illegalMask {
		panic(fmt.Sprintf("lulea: mask %016b is not a complete-prune mask", mask))
	}
	return id
}
