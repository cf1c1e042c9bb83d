package sim

import (
	"math"
	"math/bits"
)

// The wake calendar's ring: ringSlots cycles, a power of two past a
// 10 Gbps gap (74 cycles) and a 62-cycle lookup.
const (
	ringShift = 7
	ringSlots = 1 << ringShift
	ringMask  = ringSlots - 1
)

// calendar files each LC under the next cycle at which it has anything to
// do, so that a cycle reads off the LCs due in it, and Run the next cycle
// with any, without looking at the LCs that are not due. wake[i] is LC
// i's cycle:
//   - in [base, base+ringSlots): LC i's bit is set in the ring slot
//     wake & ringMask, a bitset of one bit an LC, 64 to a word;
//   - later: its bit is set in far;
//   - math.MaxInt64, an LC that will never act again: filed nowhere.
//
// base is the cycle being stepped; it only grows, and no wake is before
// it. An LC taken off its slot to be stepped is filed nowhere until its
// new wake is set.
type calendar struct {
	wake []int64
	// ring[w<<ringShift|s] is word w of slot s: LCs 64w to 64w+63.
	ring []uint64
	far  []uint64
	// farMin is the earliest wake in far, math.MaxInt64 when far is empty.
	farMin int64
	base   int64
}

// newCalendar returns a calendar of n LCs, every one due at cycle 0.
func newCalendar(n int) calendar {
	words := (n + 63) / 64
	c := calendar{
		wake:   make([]int64, n),
		ring:   make([]uint64, words*ringSlots),
		far:    make([]uint64, words),
		farMin: math.MaxInt64,
	}
	for i := range c.wake {
		c.wake[i] = math.MaxInt64
		c.setWake(i, 0)
	}
	return c
}

// words is the number of 64-LC words of a slot.
func (c *calendar) words() int { return len(c.far) }

// setWake moves LC i's wake to cycle t, at or after base: its bit leaves
// the slot or far set its old wake put it in and enters t's, at the cost
// of one LC whatever ψ is.
func (c *calendar) setWake(i int, t int64) {
	old := c.wake[i]
	if old == t {
		return
	}
	bit := uint64(1) << (i & 63)
	if old-c.base < ringSlots {
		c.ring[i>>6<<ringShift|int(old&ringMask)] &^= bit // a no-op for an LC taken off its slot
	} else if old != math.MaxInt64 {
		c.far[i>>6] &^= bit
		if old == c.farMin {
			c.farMin = c.scanFar() // moves nothing: far is past the ring
		}
	}
	c.file(i, t)
}

// file sets LC i's wake to t and its bit where t files it. LC i must be
// filed nowhere: taken off its slot this cycle, or unfiled by setWake.
func (c *calendar) file(i int, t int64) {
	c.wake[i] = t
	if t-c.base < ringSlots {
		c.ring[i>>6<<ringShift|int(t&ringMask)] |= 1 << (i & 63)
	} else if t != math.MaxInt64 {
		c.far[i>>6] |= 1 << (i & 63)
		c.farMin = min(c.farMin, t)
	}
}

// scanFar moves every LC in far whose wake the ring at base reaches into
// its slot and returns the earliest wake left in far.
func (c *calendar) scanFar() int64 {
	below, least := c.base+ringSlots, int64(math.MaxInt64)
	for w, word := range c.far {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			switch t := c.wake[i]; {
			case t < below:
				c.far[w] &^= 1 << (i & 63)
				c.file(i, t)
			case t < least:
				least = t
			}
		}
	}
	return least
}

// advance makes now the cycle being stepped, bringing into the ring the
// far wakes it now reaches.
func (c *calendar) advance(now int64) {
	c.base = now
	if c.farMin-now < ringSlots {
		c.farMin = c.scanFar()
	}
}

// take empties word w of base's slot and returns it: the LCs 64w to
// 64w+63 due now, in LC order. They are filed nowhere until file gives
// each its next wake, which is after base, so the slot stays empty while
// they step.
func (c *calendar) take(w int) uint64 {
	k := w<<ringShift | int(c.base&ringMask)
	due := c.ring[k]
	c.ring[k] = 0
	return due
}

// filedAt reports whether any LC is filed at cycle t, after base and
// inside the ring.
func (c *calendar) filedAt(t int64) bool {
	for k := int(t & ringMask); k < len(c.ring); k += ringSlots {
		if c.ring[k] != 0 {
			return true
		}
	}
	return false
}

// next returns the earliest wake in [from, end), or end when there is
// none. from is after base.
func (c *calendar) next(from, end int64) int64 {
	end = min(end, c.farMin)
	for t := from; t < min(end, c.base+ringSlots); t++ {
		if c.filedAt(t) {
			return t
		}
	}
	return end
}
