package cache

import (
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
// reference over every state a 4-way set can be in — each block free, or
// complete or waiting in either class, under every order of stamps — for
// every γ the paper sweeps and both classes: slot for slot under LRU and
// FIFO, and under Random draw for draw, which is equal choices and an equal
// generator afterwards over a run of decisions sharing one stream.
func TestChooseVictimExhaustive(t *testing.T) {
	kinds := []entry{
		{}, // a free block is the zero entry
		{state: complete, origin: LOC},
		{state: complete, origin: REM},
		{state: waiting, origin: LOC},
		{state: waiting, origin: REM},
	}
	const assoc = 4
	orders := permutations(assoc)
	for _, policy := range []Policy{LRU, FIFO, Random} {
		for _, mix := range []int{0, 25, 50, 75, 100} {
			cfg := Config{Blocks: assoc, Assoc: assoc, MixPercent: mix, Policy: policy, Seed: uint64(mix)}
			got, ref := New(cfg), New(cfg)
			decisions := 0
			for state := 0; state < 5*5*5*5; state++ {
				for _, order := range orders {
					var set [assoc]entry
					for i, k := 0, state; i < assoc; i, k = i+1, k/5 {
						if set[i] = kinds[k%5]; set[i].state != invalid {
							set[i].stamp, set[i].addr = order[i], ip.Addr(i)
						}
					}
					for _, class := range []Origin{LOC, REM} {
						before := set
						want := refChooseVictim(ref, set[:], class)
						if have := got.chooseVictim(set[:], class); have != want {
							t.Fatalf("policy %d γ=%d class %v set %+v: slot %d, reference %d", policy, mix, class, set, have, want)
						}
						if set != before {
							t.Fatalf("policy %d γ=%d class %v: the decision wrote to the set: %+v, was %+v", policy, mix, class, set, before)
						}
						if *got.rng != *ref.rng {
							t.Fatalf("policy %d γ=%d class %v set %+v: generator at %+v after the decision, reference at %+v", policy, mix, class, set, *got.rng, *ref.rng)
						}
						decisions++
					}
				}
			}
			if want := 625 * 24 * 2; decisions != want {
				t.Fatalf("%d decisions compared, want %d", decisions, want)
			}
			if drew := *got.rng != *New(cfg).rng; drew != (policy == Random) {
				t.Fatalf("policy %d γ=%d: generator moved = %v", policy, mix, drew)
			}
		}
	}
}
