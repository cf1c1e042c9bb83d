package cache

import (
	"testing"

	"spal/internal/ip"
	"spal/internal/rtable"
)

// The benchmarks visit four default caches, as a ψ = 4 router does, so one
// cache's lines are not simply left hot by the previous operation.
const (
	benchCaches = 4
	benchBurst  = 16
)

func benchCacheSet() []*Cache {
	cs := make([]*Cache, benchCaches)
	for i := range cs {
		cs[i] = New(DefaultConfig())
	}
	return cs
}

// BenchmarkCacheMissFill is a ψ = 4 router's miss traffic over 2^21
// distinct addresses, so every insert past the first few thousand evicts.
// Each operation draws its arrival and home caches from an xorshift. A
// remote miss is the arrival's Probe and Reserve(REM), the home's Probe and
// Fill(LOC), then the arrival's Fill(REM); a miss homed at its arrival is
// Probe and Fill(LOC). The class of the block a set gives up is then as
// unpredictable as on the router's cold traffic. An earlier form switched
// the class once every 64 operations: the predictor learned
// chooseVictim's branches, and the benchmark ranked a branch-free decision
// below the branchy one that ran slower end to end.
func BenchmarkCacheMissFill(b *testing.B) {
	cs := benchCacheSet()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		arrival, home := cs[x&(benchCaches-1)], cs[x>>2&(benchCaches-1)]
		a := ip.Addr(uint32(i&(1<<21-1)) * 2654435761) // odd multiplier: distinct
		if arrival.Probe(a).Kind != Miss {
			b.Fatalf("address %#x resident", a)
		}
		if arrival == home {
			arrival.Fill(a, rtable.NextHop(i), LOC)
			continue
		}
		reserved := arrival.Reserve(a, REM)
		home.Probe(a)
		home.Fill(a, rtable.NextHop(i), LOC)
		if reserved {
			arrival.Fill(a, rtable.NextHop(i), REM)
		}
	}
}

// BenchmarkCacheProbeHit probes addresses that are all resident: every
// set of every cache holds two LOC and two REM results. It visits the
// caches in bursts of 16, as a ψ = 4 router's batch plane does.
func BenchmarkCacheProbeHit(b *testing.B) {
	cs := benchCacheSet()
	blocks := DefaultConfig().Blocks
	for _, c := range cs {
		for i := 0; i < blocks; i++ {
			c.Fill(ip.Addr(i), rtable.NextHop(i), Origin(i>>10&1))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := ip.Addr(uint32(i) * 2654435761 >> 20) // 12 bits: one of the 4,096
		if cs[i/benchBurst%benchCaches].Probe(a).Kind != Hit {
			b.Fatalf("address %d not resident", a)
		}
	}
}
