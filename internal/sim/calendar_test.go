package sim

import (
	"math"
	"math/bits"
	"slices"
	"testing"

	"spal/internal/stats"
)

// scanDue is the due set a cycle built before the calendar: every LC's
// wake read, 64 to a word, bit j of a word the sign of wake-(now+1) for
// LC base+j. It returns the LCs whose wake is at or before now, in LC
// order.
func scanDue(wake []int64, now int64) []int {
	var due []int
	for base, next := 0, now+1; base < len(wake); base += 64 {
		var word uint64
		for j, w := range wake[base:min(base+64, len(wake))] {
			word |= uint64(w-next) >> 63 << (j & 63)
		}
		for ; word != 0; word &= word - 1 {
			due = append(due, base+bits.TrailingZeros64(word))
		}
	}
	return due
}

// calendarPsi are the LC counts the calendar is checked at: one LC, a
// word short of full, full, one LC into a second word, and three words.
var calendarPsi = []int{1, 63, 64, 65, 130}

// checkCalendar drives a calendar of psi LCs the way Run does, cycle by
// cycle, with data choosing the moves, and fails t wherever it and the
// scan of its wakes disagree. A cycle:
//   - moves some LCs to the cycle itself before its slot is taken, as
//     route and flushAll do, or to a later cycle;
//   - takes the slot, which must hold exactly scanDue's LCs, in order;
//   - files each LC taken at a later cycle: inside the ring, past it, or
//     never (math.MaxInt64);
//   - moves some filed LCs to later cycles;
//   - jumps to the next wake, or to an event before it, as Run does.
//
// It stops when data runs out.
func checkCalendar(t *testing.T, psi int, data []byte) {
	t.Helper()
	c := newCalendar(psi)
	byteAt := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	// after draws a wake after now: 1 to 192 cycles on (the ring is 128),
	// a multiple of the ring further, or never.
	after := func(now int64) int64 {
		switch b := byteAt(); {
		case b == math.MaxUint8:
			return math.MaxInt64
		case b >= 192:
			return now + ringSlots*int64(b-190)
		default:
			return now + 1 + int64(b)
		}
	}
	for now := int64(0); len(data) > 0; {
		c.advance(now)
		for k := byteAt() % 4; k > 0; k-- {
			i, b := int(byteAt())%psi, byteAt()
			if b&1 == 0 {
				c.setWake(i, now)
			} else {
				c.setWake(i, after(now))
			}
		}
		want := scanDue(c.wake, now)
		var got []int
		for w := range c.words() {
			for due := c.take(w); due != 0; due &= due - 1 {
				got = append(got, w<<6+bits.TrailingZeros64(due))
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("psi %d cycle %d: took %v, the scan says %v", psi, now, got, want)
		}
		for _, i := range got {
			c.file(i, after(now))
		}
		for k := byteAt() % 3; k > 0; k-- {
			c.setWake(int(byteAt())%psi, after(now))
		}
		verifyCalendar(t, &c)

		first := slices.Min(c.wake)
		if got, want := c.filedAt(now+1), first == now+1; got != want {
			t.Fatalf("psi %d: filedAt(%d) = %v, the wakes say %v", psi, now+1, got, want)
		}
		end := int64(math.MaxInt64)
		if b := byteAt(); b < 64 {
			end = now + 1 + int64(b) // a fabric arrival, flush, update or window edge
		}
		next := c.next(now+1, end)
		if want := min(first, end); next != want {
			t.Fatalf("psi %d: next(%d, %d) = %d, want %d", psi, now+1, end, next, want)
		}
		if next == math.MaxInt64 {
			// Nothing will ever be due, where Run stops at its limit: go on
			// to a later cycle, where a move may wake an LC again.
			next = now + 1 + int64(byteAt())
		}
		now = next
	}
}

// verifyCalendar checks where each LC is filed against its wake: its bit
// in the ring slot of a wake the ring reaches, in far for a later one,
// nowhere for math.MaxInt64 — and no other bit set, and farMin the least
// wake in far.
func verifyCalendar(t *testing.T, c *calendar) {
	t.Helper()
	ringBits, farMin := 0, int64(math.MaxInt64)
	for i, w := range c.wake {
		bit := uint64(1) << (i & 63)
		inRing := w != math.MaxInt64 && c.ring[i>>6<<ringShift|int(w&ringMask)]&bit != 0
		inFar := c.far[i>>6]&bit != 0
		switch {
		case w == math.MaxInt64:
			if inFar {
				t.Fatalf("LC %d: never due but in far", i)
			}
		case w < c.base:
			t.Fatalf("LC %d: wake %d before base %d", i, w, c.base)
		case w-c.base < ringSlots:
			if !inRing || inFar {
				t.Fatalf("LC %d: wake %d at base %d: ring %v far %v", i, w, c.base, inRing, inFar)
			}
			ringBits++
		default:
			if inRing || !inFar {
				t.Fatalf("LC %d: wake %d at base %d: ring %v far %v", i, w, c.base, inRing, inFar)
			}
			farMin = min(farMin, w)
		}
	}
	n := 0
	for _, x := range c.ring {
		n += bits.OnesCount64(x)
	}
	if n != ringBits {
		t.Fatalf("ring holds %d bits for %d LCs", n, ringBits)
	}
	if c.farMin != farMin {
		t.Fatalf("farMin %d, least far wake %d", c.farMin, farMin)
	}
}

// TestWakeCalendarMatchesScan runs checkCalendar on long pseudo-random
// move streams at every checked ψ.
func TestWakeCalendarMatchesScan(t *testing.T) {
	for _, psi := range calendarPsi {
		rng := stats.NewRNG(uint64(psi))
		data := make([]byte, 1<<16)
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		checkCalendar(t, psi, data)
	}
}

// FuzzWakeCalendar checks the calendar against scanDue on the moves the
// input bytes choose, at the ψ its first argument picks. An input is cut
// at 4 KiB, about a thousand cycles: a longer one adds cycles, not moves
// of another kind, and would slow every execution the fuzzer spends on it.
func FuzzWakeCalendar(f *testing.F) {
	f.Add(uint8(0), []byte{1, 0, 0, 5, 2, 200, 255, 3, 1, 9, 70})
	f.Add(uint8(3), []byte{3, 64, 0, 1, 1, 130, 2, 0, 127, 128, 192, 254, 255, 2, 64, 1, 0})
	f.Add(uint8(4), []byte{2, 129, 1, 65, 0, 255, 255, 193, 0, 63, 10, 1, 200, 255, 255})
	f.Fuzz(func(t *testing.T, size uint8, data []byte) {
		checkCalendar(t, calendarPsi[int(size)%len(calendarPsi)], data[:min(len(data), 4096)])
	})
}
