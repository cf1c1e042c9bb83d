package cache

import (
	"testing"

	"spal/internal/ip"
	"spal/internal/rtable"
)

// The benchmarks visit four default caches in bursts of 16, as a ψ = 4
// router's batch plane does, so one cache's lines are not simply left hot
// by the previous operation.
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

// BenchmarkCacheMissFill is the router's miss protocol on one address:
// Probe (miss), Reserve, Fill — over 2^21 distinct addresses, so every
// Reserve past the first few thousand evicts to the victim cache.
func BenchmarkCacheMissFill(b *testing.B) {
	cs := benchCacheSet()
	for i := 0; i < b.N; i++ {
		c := cs[i/benchBurst%benchCaches]
		a := ip.Addr(uint32(i&(1<<21-1)) * 2654435761) // odd multiplier: distinct
		origin := Origin(i >> 6 & 1)                   // alternates per rotation over the caches
		if c.Probe(a).Kind != Miss {
			b.Fatalf("address %#x resident", a)
		}
		if c.Reserve(a, origin) {
			c.Fill(a, rtable.NextHop(i), origin)
		}
	}
}

// BenchmarkCacheProbeHit probes addresses that are all resident: every
// set of every cache holds two LOC and two REM results.
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
