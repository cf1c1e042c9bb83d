package sim

import "math/bits"

// gapMod is x mod d by multiplication for a d fixed at New (Lemire, Kaser
// and Kurz, "Faster remainder by direct computation", 2019). With the
// 128-bit reciprocal c = ⌈2¹²⁸/d⌉, x mod d = ⌊(c·x mod 2¹²⁸)·d / 2¹²⁸⌋ for
// every 64-bit x and every d ≥ 1 (their Theorem 1 at N = L = 64): four
// multiplies where x % d is a 64-bit divide.
type gapMod struct {
	hi, lo uint64 // c mod 2¹²⁸: d = 1 wraps it to 0, and x mod 1 is 0
	d      uint64
}

// newGapMod builds the reciprocal of d ≥ 1: ⌊(2¹²⁸−1)/d⌋ + 1, the 128-bit
// quotient a word at a time.
func newGapMod(d uint64) gapMod {
	qhi, rem := ^uint64(0)/d, ^uint64(0)%d
	qlo, _ := bits.Div64(rem, ^uint64(0), d)
	lo, carry := bits.Add64(qlo, 1, 0)
	return gapMod{hi: qhi + carry, lo: lo, d: d}
}

// mod returns x mod d.
func (m gapMod) mod(x uint64) uint64 {
	// f = c·x mod 2¹²⁸, x/d's fractional part in 128 bits.
	fhi, flo := bits.Mul64(m.lo, x)
	fhi += m.hi * x
	// ⌊f·d / 2¹²⁸⌋: the high word of fhi·d, plus the carry into it from
	// the high word of flo·d.
	hi, mid := bits.Mul64(fhi, m.d)
	low, _ := bits.Mul64(flo, m.d)
	_, carry := bits.Add64(mid, low, 0)
	return hi + carry
}
