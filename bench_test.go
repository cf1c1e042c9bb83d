// Root benchmarks: one per table/figure of the paper (the
// Benchmark*Fig*/Benchmark*Sec* functions regenerate and log the figure's
// rows at bench scale) plus microbenchmarks of the substrates. Perf claims
// are not made from these but from benchmark/ (BENCHMARK.json).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate the figures at full paper scale instead with:
//
//	go run ./cmd/spal-bench -exp all -scale full
package spal_test

import (
	"fmt"
	"testing"

	"spal"
	"spal/internal/cache"
	"spal/internal/experiments"
	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/lpm/dptrie"
	"spal/internal/lpm/engines"
	"spal/internal/lpm/lctrie"
	"spal/internal/lpm/lulea"
	"spal/internal/partition"
	"spal/internal/router"
	"spal/internal/rtable"
	"spal/internal/sim"
	"spal/internal/stats"
	"spal/internal/trace"
)

// benchScale keeps the full figure matrix tractable under testing.B while
// preserving the paper's qualitative shapes.
var benchScale = experiments.Scale{TableN: 12000, PacketsPerLC: 12000, Name: "bench"}

// --- Figure/table regeneration benches (one per paper artifact) ---

// BenchmarkPartitionBits regenerates the Sec. 4 bit-selection table.
func BenchmarkPartitionBits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.PartitionBits(benchScale)
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkFig3StorageSizes regenerates Fig. 3 (total SRAM per trie).
func BenchmarkFig3StorageSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.Fig3Storage(benchScale)
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkMemoryAccesses regenerates the Sec. 5.1 access-count table.
func BenchmarkMemoryAccesses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.MemoryAccesses(benchScale)
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkFig4MixValue regenerates Fig. 4 (mean lookup vs γ).
func BenchmarkFig4MixValue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Fig4Mix(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkFig5CacheSize regenerates Fig. 5 (mean lookup vs β).
func BenchmarkFig5CacheSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Fig5CacheSize(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkFig6NumLCs regenerates Fig. 6 (mean lookup vs ψ).
func BenchmarkFig6NumLCs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Fig6NumLCs(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkHeadlineSpeedup regenerates the 4.2x headline comparison.
func BenchmarkHeadlineSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Headline(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkAblation regenerates the design-choice ablation table.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Ablation(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkUpdateFlush regenerates the route-update flush table.
func BenchmarkUpdateFlush(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.UpdateFlush(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkSpeedsMatrix regenerates the Sec. 5.2 speed/lookup-time cases.
func BenchmarkSpeedsMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Speeds(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkWorstCase regenerates the worst-case lookup-accesses table.
func BenchmarkWorstCase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.WorstCase(benchScale)
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkCoverage regenerates the hit-rate-vs-psi coverage table.
func BenchmarkCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Coverage(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkRebuild regenerates the engine build-time table.
func BenchmarkRebuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.Rebuild(benchScale)
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkSurvey regenerates the all-structures comparison.
func BenchmarkSurvey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.Survey(benchScale)
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkHotspot regenerates the home-LC load-balance table.
func BenchmarkHotspot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Hotspot(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkDrift regenerates the locality-drift table.
func BenchmarkDrift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Drift(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkLatencyDistribution regenerates the latency-shape table.
func BenchmarkLatencyDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.LatencyDistribution(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkWarmup regenerates the cold-start warmup curve.
func BenchmarkWarmup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Warmup(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkComparatorPartitioning regenerates the Sec. 2.3 comparison.
func BenchmarkComparatorPartitioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.LengthPartitionComparison(benchScale)
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// --- Substrate microbenchmarks ---

func benchTable() *rtable.Table { return rtable.Small(40000, 3) }

func benchAddrs(tbl *rtable.Table, n int) []ip.Addr {
	rng := stats.NewRNG(7)
	addrs := make([]ip.Addr, n)
	for i := range addrs {
		addrs[i] = tbl.RandomMatchedAddr(rng)
	}
	return addrs
}

// engineSink keeps BenchmarkEngineLookup's results observable.
var engineSink rtable.NextHop

// BenchmarkEngineLookup times one single-key Lookup per registered
// engine (engine=<name>).
func BenchmarkEngineLookup(b *testing.B) {
	tbl := benchTable()
	addrs := benchAddrs(tbl, 1<<14)
	builders := engines.Builders()
	for _, name := range engines.Names() {
		b.Run("engine="+name, func(b *testing.B) {
			e := builders[name](tbl)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				engineSink, _, _ = e.Lookup(addrs[i&(len(addrs)-1)])
			}
		})
	}
}

func benchBuild(b *testing.B, build lpm.Builder) {
	tbl := benchTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build(tbl)
	}
}

// BenchmarkBuildLulea prices lulea.New on the bench table
// (table=Small40000) and, as router.New and sim.New pay it, on every
// partition of RT2 at ψ = 1, 4 and 16: one op builds all ψ tries.
func BenchmarkBuildLulea(b *testing.B) {
	b.Run("table=Small40000", func(b *testing.B) { benchBuild(b, lulea.NewEngine) })
	full := rtable.RT2()
	for _, psi := range []int{1, 4, 16} {
		tables := partition.Partition(full, psi).Tables()
		b.Run(fmt.Sprintf("table=RT2/psi=%d", psi), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, tbl := range tables {
					lulea.New(tbl)
				}
			}
		})
	}
}

func BenchmarkBuildDPTrie(b *testing.B) { benchBuild(b, dptrie.NewEngine) }
func BenchmarkBuildLCTrie(b *testing.B) { benchBuild(b, lctrie.NewEngine) }

// BenchmarkPartitionSelect measures the Sec. 3.1 bit-selection algorithm
// and the sizing pass after it — partition.Partition — on the bench table
// at ψ = 16 and, as router.New and sim.New pay it, on RT2 at ψ = 4 and 16.
func BenchmarkPartitionSelect(b *testing.B) {
	run := func(name string, tbl *rtable.Table, psi int) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				partition.Partition(tbl, psi)
			}
		})
	}
	run("table=Small40000", benchTable(), 16)
	full := rtable.RT2()
	for _, psi := range []int{4, 16} {
		run(fmt.Sprintf("table=RT2/psi=%d", psi), full, psi)
	}
}

// BenchmarkCacheProbeHit measures the LR-cache hot path.
func BenchmarkCacheProbeHit(b *testing.B) {
	c := cache.New(cache.DefaultConfig())
	addrs := make([]ip.Addr, 1024)
	rng := stats.NewRNG(3)
	for i := range addrs {
		addrs[i] = rng.Uint32()
		c.RecordMiss(addrs[i], cache.LOC, 0)
		c.Fill(addrs[i], 1, cache.LOC)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Probe(addrs[i&1023])
	}
}

// BenchmarkSimulatorCycles measures raw simulator speed: the wall time of
// sim.Router.Run per simulated packet at the paper's default point (ψ=16,
// RT2, D_75, lulea at 40 cycles), the configuration benchmark/'s sim_fig6
// times, at 50,000 packets an LC. sim.New (partitioning, engine builds) is
// outside the timer.
func BenchmarkSimulatorCycles(b *testing.B) {
	benchSimulatorCycles(b, sim.Gaps40Gbps)
}

// BenchmarkSimulatorCycles10G is BenchmarkSimulatorCycles at the 10 Gbps
// gaps (6..74 cycles), where a packet arrives at an LC one cycle in forty
// and most cycles have nothing due.
func BenchmarkSimulatorCycles10G(b *testing.B) {
	benchSimulatorCycles(b, sim.Gaps10Gbps)
}

func benchSimulatorCycles(b *testing.B, gaps func() (int, int)) {
	build, err := engines.Lookup("lulea")
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig(rtable.RT2())
	cfg.Engine = build
	cfg.PacketsPerLC = 50000
	cfg.GapMin, cfg.GapMax = gaps()
	var packets int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := r.Run()
		if err != nil {
			b.Fatal(err)
		}
		packets += res.PacketsCompleted
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(packets), "ns/packet")
}

// BenchmarkRouterLookup measures the concurrent forwarding plane
// end-to-end (channel round trip + cache + occasional FE).
func BenchmarkRouterLookup(b *testing.B) {
	tbl := benchTable()
	r, err := router.New(tbl, router.WithLCs(4), router.WithCache(cache.DefaultConfig()))
	if err != nil {
		b.Fatal(err)
	}
	defer r.Stop()
	addrs := benchAddrs(tbl, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Lookup(i&3, addrs[i&1023]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGeneration measures the synthetic trace stream: one
// address a Next call, and one Slice of 2^22 addresses (a benchmark
// workload's client stream, buffer included) an op.
func BenchmarkTraceGeneration(b *testing.B) {
	tbl := benchTable()
	cfg := trace.PresetConfig(trace.D75)
	pool := trace.NewPool(tbl, cfg)
	b.Run("Next", func(b *testing.B) {
		src := trace.NewSynthetic(pool, cfg, 1)
		for i := 0; i < b.N; i++ {
			src.Next()
		}
	})
	b.Run("Slice", func(b *testing.B) {
		src := trace.NewSynthetic(pool, cfg, 1)
		for i := 0; i < b.N; i++ {
			trace.Slice(src, 1<<22)
		}
	})
}

// BenchmarkFacadeSimulate exercises the public API end to end.
func BenchmarkFacadeSimulate(b *testing.B) {
	tbl := spal.SynthesizeTable(8000, 5)
	for i := 0; i < b.N; i++ {
		cfg := spal.DefaultSimConfig(tbl)
		cfg.NumLCs = 4
		cfg.PacketsPerLC = 4000
		if _, err := spal.Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
