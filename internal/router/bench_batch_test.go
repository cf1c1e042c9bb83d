// Batch data-plane benchmarks. CI's bench-guard job runs the LookupBatch
// benches with -benchmem and gates on the allocs/op column (must be 0);
// BENCH_6.json commits representative numbers, including the same-home
// burst where the coalesced plane's O(ψ) fabric messaging shows up as
// the headline speedup over per-address submission.
package router

import (
	"context"
	"testing"
	"time"

	"spal/internal/ip"
	"spal/internal/rtable"
	"spal/internal/stats"
)

const benchBatchLen = 64

func benchAddrs(b *testing.B, tbl *rtable.Table, seed uint64) []ip.Addr {
	b.Helper()
	rng := stats.NewRNG(seed)
	addrs := make([]ip.Addr, benchBatchLen)
	for i := range addrs {
		addrs[i] = tbl.RandomMatchedAddr(rng)
	}
	return addrs
}

func benchRouter(b *testing.B, tbl *rtable.Table, opts ...Option) *Router {
	b.Helper()
	base := []Option{WithRequestTimeout(time.Second)}
	r, err := New(tbl, append(base, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(r.Stop)
	return r
}

// reportPerAddr adds ns/addr — the unit the data-plane claims are made in —
// to a benchmark whose operation is one batch of n addresses.
func reportPerAddr(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/addr")
}

// BenchmarkLookupSingleCacheHit is the per-address baseline: one warmed
// cache-hit lookup per iteration, run by the caller on an idle LC. Must
// report 0 allocs/op (CI gates on it).
func BenchmarkLookupSingleCacheHit(b *testing.B) {
	tbl := rtable.Small(2000, 7)
	r := benchRouter(b, tbl, WithLCs(1), WithDefaultCache())
	addrs := benchAddrs(b, tbl, 3)
	if _, err := r.LookupBatch(0, addrs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Lookup(0, addrs[i%len(addrs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLookupSingleCacheHitContended is the same hit with the callers
// of every P submitting at the one LC (run it with -cpu 2 or more) and
// racing for its lock. queued/op is the share that lost, went through the
// inbox and was served by the LC's own goroutine over a reply channel.
func BenchmarkLookupSingleCacheHitContended(b *testing.B) {
	tbl := rtable.Small(2000, 7)
	r := benchRouter(b, tbl, WithLCs(1), WithDefaultCache())
	addrs := benchAddrs(b, tbl, 3)
	if _, err := r.LookupBatch(0, addrs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if _, err := r.Lookup(0, addrs[i%len(addrs)]); err != nil {
				b.Error(err)
				return
			}
		}
	})
	in, q := r.lcs[0].handledInline.Load(), r.lcs[0].handledQueued.Load()
	b.ReportMetric(float64(q)/float64(in+q), "queued/op")
}

// BenchmarkLookupBatchCacheHit: a 64-address batch served entirely from
// the warmed LR-cache. Must report 0 allocs/op (CI gates on it).
func BenchmarkLookupBatchCacheHit(b *testing.B) {
	tbl := rtable.Small(2000, 7)
	r := benchRouter(b, tbl, WithLCs(1), WithDefaultCache())
	addrs := benchAddrs(b, tbl, 3)
	out := make([]Verdict, len(addrs))
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := r.LookupBatchInto(ctx, 0, addrs, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.LookupBatchInto(ctx, 0, addrs, out); err != nil {
			b.Fatal(err)
		}
	}
	reportPerAddr(b, len(addrs))
}

// BenchmarkLookupBatchCacheHitGray: the same warmed cache-hit batch with
// the gray-failure subsystem enabled — detection/ejection bookkeeping on
// the hit path must stay free: 0 allocs/op (CI gates on it alongside the
// plain cache-hit bench).
func BenchmarkLookupBatchCacheHitGray(b *testing.B) {
	tbl := rtable.Small(2000, 7)
	r := benchRouter(b, tbl, WithLCs(1), WithDefaultCache(), WithGray())
	addrs := benchAddrs(b, tbl, 3)
	out := make([]Verdict, len(addrs))
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := r.LookupBatchInto(ctx, 0, addrs, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.LookupBatchInto(ctx, 0, addrs, out); err != nil {
			b.Fatal(err)
		}
	}
	reportPerAddr(b, len(addrs))
}

// BenchmarkLookupBatchLocalHome: a 64-address batch resolved by the
// local home's batched FE sweep (no cache), per engine. Must report
// 0 allocs/op (CI gates on the lulea case).
func BenchmarkLookupBatchLocalHome(b *testing.B) {
	tbl := rtable.Small(2000, 7)
	for _, engine := range []string{"reference", "lulea", "stride24"} {
		b.Run("engine="+engine, func(b *testing.B) {
			r := benchRouter(b, tbl, WithLCs(1), WithoutCache(), WithEngineName(engine))
			addrs := benchAddrs(b, tbl, 5)
			out := make([]Verdict, len(addrs))
			ctx := context.Background()
			for i := 0; i < 5; i++ {
				if err := r.LookupBatchInto(ctx, 0, addrs, out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.LookupBatchInto(ctx, 0, addrs, out); err != nil {
					b.Fatal(err)
				}
			}
			reportPerAddr(b, len(addrs))
		})
	}
}

// sameHomeBurst builds a burst of addresses all homed at LC 1 of a
// 2-LC router, submitted at LC 0: every one crosses the fabric, which
// is where coalescing (1 request + 1 reply per batch, vs 64 + 64)
// changes the message count asymptotically.
func sameHomeBurst(b *testing.B, r *Router, tbl *rtable.Table) []ip.Addr {
	b.Helper()
	rng := stats.NewRNG(11)
	addrs := make([]ip.Addr, 0, benchBatchLen)
	for len(addrs) < benchBatchLen {
		a := tbl.RandomMatchedAddr(rng)
		if r.HomeLC(a) == 1 {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// BenchmarkLookupSingleSameHomeBurst: the burst as sequential
// per-address LookupCtx calls (the pre-batch API), each paying a full
// fabric round trip.
func BenchmarkLookupSingleSameHomeBurst(b *testing.B) {
	tbl := rtable.Small(2000, 7)
	r := benchRouter(b, tbl, WithLCs(2), WithoutCache())
	addrs := sameHomeBurst(b, r, tbl)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range addrs {
			if _, err := r.LookupCtx(ctx, 0, a); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkLookupBatchSameHomeBurst: the same burst as one coalesced
// batch — one fabric request and one reply regardless of burst size.
func BenchmarkLookupBatchSameHomeBurst(b *testing.B) {
	tbl := rtable.Small(2000, 7)
	r := benchRouter(b, tbl, WithLCs(2), WithoutCache())
	addrs := sameHomeBurst(b, r, tbl)
	out := make([]Verdict, len(addrs))
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := r.LookupBatchInto(ctx, 0, addrs, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.LookupBatchInto(ctx, 0, addrs, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLookupMiss is ROADMAP 1(c)'s instrument: one Lookup miss on a
// ψ = 2 lulea router, over one set of addresses homed either way (all are
// homed at LC 1; "local" submits them there, "remote" at LC 0), so that
// "why is a local-FE miss slower than a remote one" has a number that does
// not pass through histogram buckets. Cache-less, every Lookup is a miss
// and the home runs its FE. The cache=on rows are the miss hot_single
// runs — Reserve and two fills, evictions included — over a cold pool eight
// times the router's 2 × 4096 blocks, long evicted when its turn comes again.
// The home is idle, so "remote" is a direct exchange: 0 allocs/op (CI gates
// on the cache-less row).
func BenchmarkLookupMiss(b *testing.B) {
	tbl := rtable.Small(2000, 7)
	run := func(b *testing.B, r *Router, addrs []ip.Addr) {
		for _, tc := range []struct {
			name string
			lc   int
		}{{"local", 1}, {"remote", 0}} {
			b.Run(tc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := r.Lookup(tc.lc, addrs[i%len(addrs)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	r := benchRouter(b, tbl, WithLCs(2), WithoutCache(), WithEngineName("lulea"))
	run(b, r, sameHomeBurst(b, r, tbl))
	b.Run("cache=on", func(b *testing.B) {
		r := benchRouter(b, tbl, WithLCs(2), WithDefaultCache(), WithEngineName("lulea"))
		var pool []ip.Addr
		for _, a := range distinctAddrs(tbl, stats.NewRNG(3), 1<<17) {
			if r.HomeLC(a) == 1 && len(pool) < 1<<16 {
				pool = append(pool, a)
			}
		}
		run(b, r, pool)
	})
}

// BenchmarkLookupBatchColdRemote: 64-address batches that miss everywhere,
// scattered over the homes of a ψ = 4 cached lulea router — the benchmark's
// cold_batch in miniature. The pool is eight times the router's 4 × 4096
// cache blocks, so an address is long evicted when its turn comes again.
// The homes are idle, so every exchange is a call (batchDirect): 0 allocs/op
// (CI gates on it).
func BenchmarkLookupBatchColdRemote(b *testing.B) {
	tbl := rtable.Small(2000, 7)
	r := benchRouter(b, tbl, WithLCs(4), WithDefaultCache(), WithEngineName("lulea"))
	pool := distinctAddrs(tbl, stats.NewRNG(3), 1<<17)
	out := make([]Verdict, benchBatchLen)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := i * benchBatchLen % len(pool)
		if err := r.LookupBatchInto(ctx, 0, pool[at:at+benchBatchLen], out); err != nil {
			b.Fatal(err)
		}
	}
	reportPerAddr(b, benchBatchLen)
}
