// Degraded-path benchmarks: what a lookup that has given up on its home
// costs. EXPERIMENTS.md, "What the degraded path costs", records them.
package router

import (
	"slices"
	"strconv"
	"testing"
	"time"

	"spal/internal/fabric"
	"spal/internal/ip"
	"spal/internal/lpm/engines"
	"spal/internal/rtable"
	"spal/internal/stats"
)

// BenchmarkFallbackLookup is one degraded-path resolution over RT2 on cold
// addresses — 2^20 uniform draws, matched or not, walked in order, so that
// neither structure stays in the CPU's caches: a full-table lulea engine
// (what the router once built for it) against the index over the table
// snapshot the router holds anyway. impl=index-link is the index's first
// use: one Lookup on a fresh index, which pays the O(N) link pass.
func BenchmarkFallbackLookup(b *testing.B) {
	tbl := rtable.RT2()
	rng := stats.NewRNG(9)
	addrs := make([]ip.Addr, 1<<20)
	for i := range addrs {
		addrs[i] = rng.Uint32()
	}
	build, err := engines.Lookup("lulea")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("impl=lulea", func(b *testing.B) {
		eng := build(tbl)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nh, _, _ := eng.Lookup(addrs[i&(len(addrs)-1)])
			fallbackSink += nh
		}
	})
	b.Run("impl=index", func(b *testing.B) {
		x := rtable.NewIndex(tbl)
		x.Lookup(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nh, _ := x.Lookup(addrs[i&(len(addrs)-1)])
			fallbackSink += nh
		}
	})
	b.Run("impl=index-link", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nh, _ := rtable.NewIndex(tbl).Lookup(addrs[i&(len(addrs)-1)])
			fallbackSink += nh
		}
	})
}

// fallbackSink keeps BenchmarkFallbackLookup's answers live.
var fallbackSink rtable.NextHop

// BenchmarkEjectedHomeLookup is the gray plane's mitigation seen by a
// caller: ψ = 4 over RT2, lulea, default LR-caches, LC 1 browned out to 10×
// fabric latency and ejected, one Lookup at LC 0 per iteration of a cold
// address homed at LC 1 — answered from the fallback at dispatch while its
// request still goes out. Reports p50/p99 of the calls served by the
// fallback; run with a fixed -benchtime (e.g. 20000x).
func BenchmarkEjectedHomeLookup(b *testing.B) {
	tbl := rtable.RT2()
	for _, seed := range []uint64{1, 2, 3} {
		b.Run("seed="+strconv.FormatUint(seed, 10), func(b *testing.B) {
			lf := fabric.NewFaults(seed, fabric.LinkConfig{})
			lf.SlowLC(1, 10)
			r := benchRouter(b, tbl, WithLCs(4), WithDefaultCache(), WithEngineName("lulea"),
				WithFaultInjector(lf.Decide), WithGray())
			r.gray[1].degraded.Store(true)
			rng := stats.NewRNG(seed)
			addrs := make([]ip.Addr, 0, b.N)
			for len(addrs) < b.N {
				if a := rng.Uint32(); r.HomeLC(a) == 1 {
					addrs = append(addrs, a)
				}
			}
			lat := make([]int64, 0, b.N)
			b.ResetTimer()
			for _, a := range addrs {
				t0 := time.Now()
				v, err := r.Lookup(0, a)
				if err != nil {
					b.Fatal(err)
				}
				if v.ServedBy == ServedByFallback {
					lat = append(lat, int64(time.Since(t0)))
				}
			}
			b.StopTimer()
			if len(lat) == 0 {
				b.Fatal("no lookup was served by the fallback")
			}
			slices.Sort(lat)
			b.ReportMetric(float64(lat[len(lat)*50/100]), "p50-ns")
			b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-ns")
			b.ReportMetric(float64(len(lat))/float64(b.N), "fallback-share")
		})
	}
}
