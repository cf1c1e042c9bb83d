package cache

import (
	"slices"
	"testing"

	"spal/internal/ip"
)

// refChooseVictim is the replacement decision as it was written before it
// became one pass: count the classes, then pick a candidate with up to two
// more scans. It is the reference TestChooseVictimExhaustive holds
// chooseVictim to, quota arithmetic and draw sequence included.
func refChooseVictim(c *Cache, set []entry, class Origin) int {
	loc, rem := 0, 0
	for i := range set {
		if set[i].state == invalid {
			continue
		}
		if set[i].origin == LOC {
			loc++
		} else {
			rem++
		}
	}
	remQuota := c.cfg.Assoc * c.cfg.MixPercent / 100
	locQuota := c.cfg.Assoc - remQuota

	candidate := func(class Origin, restrict bool) int {
		best, seen := -1, 0
		for i := range set {
			e := &set[i]
			if e.state != complete || (restrict && e.origin != class) {
				continue
			}
			seen++
			if best < 0 {
				best = i
				continue
			}
			switch c.cfg.Policy {
			case Random:
				if c.rng.Intn(seen) == 0 {
					best = i
				}
			default:
				if e.stamp < set[best].stamp {
					best = i
				}
			}
		}
		return best
	}

	if class == REM && rem >= remQuota {
		return candidate(REM, true)
	}
	if class == LOC && loc >= locQuota {
		return candidate(LOC, true)
	}
	for i := range set {
		if set[i].state == invalid {
			return i
		}
	}
	if rem > remQuota {
		if i := candidate(REM, true); i >= 0 {
			return i
		}
	}
	if loc > locQuota {
		if i := candidate(LOC, true); i >= 0 {
			return i
		}
	}
	return candidate(LOC, false)
}

// permutations returns every ordering of 1..n.
func permutations(n int) [][]uint64 {
	var out [][]uint64
	var rec func(p []uint64, used uint)
	rec = func(p []uint64, used uint) {
		if len(p) == n {
			out = append(out, append([]uint64(nil), p...))
			return
		}
		for v := 1; v <= n; v++ {
			if used&(1<<v) == 0 {
				rec(append(p, uint64(v)), used|1<<v)
			}
		}
	}
	rec(nil, 0)
	return out
}

// TestChooseVictimExhaustive compares chooseVictim with the three-pass
// reference over every state a set can be in — each block free, or
// complete or waiting in either class, under every order of stamps — for
// every γ the paper sweeps and both classes, at each associativity up to
// the paper's 4: slot for slot under LRU and FIFO, and under Random draw
// for draw, which is equal choices and an equal generator afterwards over a
// run of decisions sharing one stream.
func TestChooseVictimExhaustive(t *testing.T) {
	for assoc := 1; assoc <= 4; assoc++ {
		exhaustChooseVictim(t, assoc)
	}
}

func exhaustChooseVictim(t *testing.T, assoc int) {
	t.Helper()
	kinds := []entry{
		{}, // a free block is the zero entry
		{state: complete, origin: LOC},
		{state: complete, origin: REM},
		{state: waiting, origin: LOC},
		{state: waiting, origin: REM},
	}
	states := 1
	for range assoc {
		states *= len(kinds)
	}
	orders := permutations(assoc)
	for _, policy := range []Policy{LRU, FIFO, Random} {
		for _, mix := range []int{0, 25, 50, 75, 100} {
			cfg := Config{Blocks: assoc, Assoc: assoc, MixPercent: mix, Policy: policy, Seed: uint64(mix)}
			got, ref := New(cfg), New(cfg)
			decisions := 0
			set, before := make([]entry, assoc), make([]entry, assoc)
			for state := 0; state < states; state++ {
				for _, order := range orders {
					for i, k := 0, state; i < assoc; i, k = i+1, k/len(kinds) {
						if set[i] = kinds[k%len(kinds)]; set[i].state != invalid {
							set[i].stamp, set[i].addr = order[i], ip.Addr(i)
						}
					}
					for _, class := range []Origin{LOC, REM} {
						copy(before, set)
						want := refChooseVictim(ref, set, class)
						if have := got.chooseVictim(set, class); have != want {
							t.Fatalf("%d-way policy %d γ=%d class %v set %+v: slot %d, reference %d", assoc, policy, mix, class, set, have, want)
						}
						if !slices.Equal(set, before) {
							t.Fatalf("%d-way policy %d γ=%d class %v: the decision wrote to the set: %+v, was %+v", assoc, policy, mix, class, set, before)
						}
						if *got.rng != *ref.rng {
							t.Fatalf("%d-way policy %d γ=%d class %v set %+v: generator at %+v after the decision, reference at %+v", assoc, policy, mix, class, set, *got.rng, *ref.rng)
						}
						decisions++
					}
				}
			}
			if want := states * len(orders) * 2; decisions != want {
				t.Fatalf("%d-way: %d decisions compared, want %d", assoc, decisions, want)
			}
			// One candidate is taken without a draw, so a 1-way set never draws.
			if drew := *got.rng != *New(cfg).rng; drew != (policy == Random && assoc > 1) {
				t.Fatalf("%d-way policy %d γ=%d: generator moved = %v", assoc, policy, mix, drew)
			}
		}
	}
}

// FuzzChooseVictim holds chooseVictim to the reference at every
// associativity spalsim -assoc accepts, 1 to 16, over sets the input
// spells: the first bytes pick the associativity, γ, the policy and the
// seed; then each block takes two bytes, its kind (free, or complete or
// waiting in either class) and its stamp, so stamps may tie. Every set is
// decided for both classes, slot for slot and, under Random, draw for draw
// on one stream.
func FuzzChooseVictim(f *testing.F) {
	f.Add([]byte{3, 50, 0, 1, 1, 4, 2, 3, 3, 1})
	f.Add([]byte{15, 25, 2, 7, 1, 9, 2, 9, 1, 3, 2, 1, 0, 0, 4, 6, 3, 2})
	f.Add([]byte{7, 75, 1, 0, 2, 1, 2, 1, 1, 1, 2, 8, 1, 5, 2, 5, 1, 5, 3, 2})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 4 {
			return
		}
		assoc := 1 + int(in[0])%16
		cfg := Config{Blocks: assoc, Assoc: assoc, MixPercent: int(in[1]) % 101, Policy: Policy(in[2] % 3), Seed: uint64(in[3])}
		got, ref := New(cfg), New(cfg)
		kinds := [...]entry{
			{},
			{state: complete, origin: LOC},
			{state: complete, origin: REM},
			{state: waiting, origin: LOC},
			{state: waiting, origin: REM},
		}
		set, before := make([]entry, assoc), make([]entry, assoc)
		for in = in[4:]; len(in) >= 2*assoc; in = in[2*assoc:] {
			for i := range set {
				if set[i] = kinds[in[2*i]%5]; set[i].state != invalid {
					set[i].stamp, set[i].addr = uint64(in[2*i+1]), ip.Addr(i)
				}
			}
			for _, class := range []Origin{LOC, REM} {
				copy(before, set)
				want := refChooseVictim(ref, set, class)
				if have := got.chooseVictim(set, class); have != want {
					t.Fatalf("%+v class %v set %+v: slot %d, reference %d", cfg, class, set, have, want)
				}
				if !slices.Equal(set, before) {
					t.Fatalf("%+v class %v: the decision wrote to the set: %+v, was %+v", cfg, class, set, before)
				}
				if *got.rng != *ref.rng {
					t.Fatalf("%+v class %v set %+v: generator at %+v, reference at %+v", cfg, class, set, *got.rng, *ref.rng)
				}
			}
		}
	})
}
