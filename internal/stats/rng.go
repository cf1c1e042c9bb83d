// Package stats provides the deterministic random-number generator and the
// exact-percentile histogram shared by the trace generator, the
// routing-table synthesizer, and the cycle simulator.
//
// All randomness in the repository flows through RNG so that every
// experiment is reproducible from a single seed.
package stats

// RNG is a splitmix64 generator: tiny state, excellent diffusion, and —
// unlike math/rand — trivially forkable so each line card or generator can
// own an independent deterministic stream.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Fork derives an independent child generator. The child's stream is a
// deterministic function of the parent state and the salt, and forking does
// not disturb the parent's own stream beyond one draw.
func (r *RNG) Fork(salt uint64) *RNG {
	return &RNG{state: r.Uint64() ^ (salt * 0x9e3779b97f4a7c15)}
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns 32 uniformly random bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform integer in [lo, hi] inclusive.
func (r *RNG) Range(lo, hi int) int {
	if hi < lo {
		panic("stats: Range with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
