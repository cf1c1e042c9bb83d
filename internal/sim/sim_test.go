package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"spal/internal/cache"
	"spal/internal/rtable"
	"spal/internal/trace"
)

// testConfig returns a small, fast SPAL configuration.
func testConfig(tbl *rtable.Table) Config {
	cfg := DefaultConfig(tbl)
	cfg.NumLCs = 4
	cfg.PacketsPerLC = 3000
	cfg.TraceConfig = trace.Config{PoolSize: 2000, ZipfS: 1.1, MeanTrain: 4, Seed: 3}
	return cfg
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConservation(t *testing.T) {
	tbl := rtable.Small(3000, 1)
	res := run(t, testConfig(tbl))
	if res.PacketsCompleted != 4*3000 {
		t.Fatalf("completed = %d, want 12000", res.PacketsCompleted)
	}
	for i, l := range res.PerLC {
		if l.Generated != 3000 {
			t.Errorf("LC %d generated %d", i, l.Generated)
		}
		if l.Completed != 3000 {
			t.Errorf("LC %d completed %d (packets complete at their arrival LC)", i, l.Completed)
		}
	}
	if res.MeanLookupCycles < 1 {
		t.Errorf("mean = %v", res.MeanLookupCycles)
	}
	if res.WorstLookupCycles < res.P95 || res.P95 < res.P50 {
		t.Error("latency percentiles out of order")
	}
}

func TestDeterminism(t *testing.T) {
	tbl := rtable.Small(2000, 2)
	a := run(t, testConfig(tbl))
	b := run(t, testConfig(tbl))
	if a.MeanLookupCycles != b.MeanLookupCycles || a.Cycles != b.Cycles ||
		a.FabricMessages != b.FabricMessages {
		t.Errorf("same seed diverged: %v/%v cycles %d/%d", a.MeanLookupCycles,
			b.MeanLookupCycles, a.Cycles, b.Cycles)
	}
	cfg := testConfig(tbl)
	cfg.Seed = 99
	c := run(t, cfg)
	if c.Cycles == a.Cycles && c.MeanLookupCycles == a.MeanLookupCycles {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

// Invariant 3: every packet's next hop equals full-table LPM, across all
// router modes (the oracle check panics inside the run on violation).
func TestCacheTransparencyAllModes(t *testing.T) {
	tbl := rtable.Small(3000, 5)
	modes := []struct {
		name             string
		cacheEnabled     bool
		partitionEnabled bool
	}{
		{"spal", true, true},
		{"cache-only", true, false},
		{"partition-only", false, true},
		{"conventional", false, false},
	}
	for _, m := range modes {
		cfg := testConfig(tbl)
		cfg.PacketsPerLC = 1200
		cfg.CacheEnabled = m.cacheEnabled
		cfg.PartitionEnabled = m.partitionEnabled
		cfg.VerifyNextHops = true
		res := run(t, cfg)
		if res.PacketsCompleted != int64(cfg.NumLCs*cfg.PacketsPerLC) {
			t.Errorf("%s: completed %d", m.name, res.PacketsCompleted)
		}
	}
}

func TestConventionalBaselineLatency(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	cfg := testConfig(tbl)
	cfg.CacheEnabled = false
	cfg.PartitionEnabled = false
	cfg.PacketsPerLC = 1500
	res := run(t, cfg)
	// Every lookup runs the 40-cycle FE; queueing only adds to that.
	if res.MeanLookupCycles < 40 {
		t.Errorf("conventional mean = %.1f, want >= 40", res.MeanLookupCycles)
	}
	for i, l := range res.PerLC {
		if l.FELookups != l.Generated {
			t.Errorf("LC %d: %d FE lookups for %d packets", i, l.FELookups, l.Generated)
		}
		if l.RequestsSent != 0 || l.RepliesSent != 0 {
			t.Errorf("LC %d: fabric traffic in conventional mode", i)
		}
	}
	if res.FabricMessages != 0 {
		t.Errorf("fabric messages = %d in conventional mode", res.FabricMessages)
	}
}

func TestSPALBeatsConventional(t *testing.T) {
	tbl := rtable.Small(3000, 9)
	spal := run(t, testConfig(tbl))
	conv := testConfig(tbl)
	conv.CacheEnabled = false
	conv.PartitionEnabled = false
	convRes := run(t, conv)
	if spal.MeanLookupCycles >= convRes.MeanLookupCycles {
		t.Errorf("SPAL mean %.1f should beat conventional %.1f",
			spal.MeanLookupCycles, convRes.MeanLookupCycles)
	}
	if spal.HitRate < 0.5 {
		t.Errorf("SPAL hit rate = %.3f, trace should have locality", spal.HitRate)
	}
}

func TestLargerPsiImprovesMean(t *testing.T) {
	tbl := rtable.Small(4000, 11)
	mk := func(psi int) float64 {
		cfg := testConfig(tbl)
		cfg.NumLCs = psi
		cfg.PacketsPerLC = 2500
		return run(t, cfg).MeanLookupCycles
	}
	m1, m16 := mk(1), mk(16)
	if m16 >= m1 {
		t.Errorf("psi=16 mean %.2f should beat psi=1 mean %.2f", m16, m1)
	}
}

func TestWaitingCoalescing(t *testing.T) {
	tbl := rtable.Small(1000, 13)
	cfg := testConfig(tbl)
	// Tiny pool and long trains: many back-to-back packets to the same
	// address force hits on W=1 blocks.
	cfg.TraceConfig = trace.Config{PoolSize: 50, ZipfS: 1.2, MeanTrain: 8, Seed: 5}
	res := run(t, cfg)
	var parked, maxList int64
	for _, l := range res.PerLC {
		parked += l.Parked
		if l.MaxWaitList > maxList {
			maxList = l.MaxWaitList
		}
	}
	if parked == 0 {
		t.Error("long trains over a 50-address pool must park packets on W blocks")
	}
	if maxList < 2 {
		t.Errorf("MaxWaitList = %d, want >= 2", maxList)
	}
	// The mean stays far below the FE cost thanks to coalescing + caching.
	if res.MeanLookupCycles >= 40 {
		t.Errorf("mean %.1f with a 50-address pool; coalescing should crush this", res.MeanLookupCycles)
	}
}

// TestFlushCompletesOnce: a flush is an invalidation (Sec. 3.2), so no
// flush interval multiplies a lookup — not one every cycle, nor one every
// 300, shorter than a remote lookup. Each run finishes, every packet
// completes at its arrival LC, the forwarding engines run at most once a
// packet, every slab record still named belongs to a completed packet, and
// flushing every 3,000 cycles costs hit rate against never.
func TestFlushCompletesOnce(t *testing.T) {
	tbl := rtable.Small(12000, 26)
	for _, psi := range []int{3, 16} {
		hitRate := map[int64]float64{}
		for _, flush := range []int64{1, 300, 3000, 0} {
			cfg := DefaultConfig(tbl)
			cfg.NumLCs = psi
			cfg.PacketsPerLC = 500
			cfg.VerifyNextHops = true
			cfg.FlushEveryCycles = flush
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run()
			if err != nil {
				t.Fatalf("psi=%d flush every %d: %v", psi, flush, err)
			}
			var generated, feLookups int64
			for i, l := range res.PerLC {
				if l.Completed != l.Generated {
					t.Errorf("psi=%d flush every %d: LC %d completed %d of %d", psi, flush, i, l.Completed, l.Generated)
				}
				generated += l.Generated
				feLookups += l.FELookups
			}
			if feLookups > generated {
				t.Errorf("psi=%d flush every %d: %d FE lookups for %d packets", psi, flush, feLookups, generated)
			}
			for i := range r.packets {
				if p := &r.packets[i]; p.refs > 0 && p.completeCycle < 0 {
					t.Errorf("psi=%d flush every %d: record %d is named and never completed", psi, flush, i)
				}
			}
			hitRate[flush] = res.HitRate
		}
		if hitRate[3000] >= hitRate[0] {
			t.Errorf("psi=%d: hit rate with a flush every 3,000 cycles (%.4f) should be below without (%.4f)",
				psi, hitRate[3000], hitRate[0])
		}
	}
}

func TestNonPowerOfTwoLCs(t *testing.T) {
	tbl := rtable.Small(2000, 19)
	cfg := testConfig(tbl)
	cfg.NumLCs = 3
	cfg.VerifyNextHops = true
	res := run(t, cfg)
	if res.PacketsCompleted != int64(3*cfg.PacketsPerLC) {
		t.Fatalf("completed = %d", res.PacketsCompleted)
	}
}

func Test10GbpsGaps(t *testing.T) {
	tbl := rtable.Small(2000, 23)
	cfg := testConfig(tbl)
	cfg.GapMin, cfg.GapMax = Gaps10Gbps()
	cfg.PacketsPerLC = 1000
	res := run(t, cfg)
	// Lower load -> completion takes more cycles overall but the mean
	// lookup stays small.
	if res.Cycles < int64(cfg.PacketsPerLC)*6 {
		t.Errorf("cycles = %d, below the minimum generation time", res.Cycles)
	}
}

func TestDynamicLookup(t *testing.T) {
	tbl := rtable.Small(2000, 29)
	cfg := testConfig(tbl)
	cfg.DynamicLookup = true
	cfg.PacketsPerLC = 1000
	cfg.VerifyNextHops = true
	res := run(t, cfg)
	if res.PacketsCompleted != int64(cfg.NumLCs*cfg.PacketsPerLC) {
		t.Fatal("dynamic-lookup run incomplete")
	}
}

func TestMixedHomeCounters(t *testing.T) {
	tbl := rtable.Small(3000, 31)
	res := run(t, testConfig(tbl))
	var reqSent, reqRecv, repSent, repRecv int64
	for _, l := range res.PerLC {
		reqSent += l.RequestsSent
		reqRecv += l.RequestsReceived
		repSent += l.RepliesSent
	}
	repRecv = res.FabricMessages - reqSent // replies injected = total - requests
	if reqSent == 0 {
		t.Fatal("no remote requests with psi=4; partitioning inactive?")
	}
	if reqSent != reqRecv {
		t.Errorf("requests sent %d != received %d", reqSent, reqRecv)
	}
	if repSent != repRecv {
		t.Errorf("replies sent %d != injected %d", repSent, repRecv)
	}
	if repSent > reqSent {
		t.Errorf("more replies (%d) than requests (%d)", repSent, reqSent)
	}
}

func TestQueueOccupancyStats(t *testing.T) {
	tbl := rtable.Small(2000, 47)
	cfg := testConfig(tbl)
	cfg.CacheEnabled = false // all packets hit the FE: queues must grow
	cfg.PartitionEnabled = false
	cfg.PacketsPerLC = 1000
	res := run(t, cfg)
	for i, l := range res.PerLC {
		if l.MaxFEQueue == 0 {
			t.Errorf("LC %d: MaxFEQueue = 0 with a saturated FE", i)
		}
		if l.MeanFEQueue <= 0 {
			t.Errorf("LC %d: MeanFEQueue = %v", i, l.MeanFEQueue)
		}
		if l.MaxFEQueue < int64(l.MeanFEQueue) {
			t.Errorf("LC %d: max %d below mean %.1f", i, l.MaxFEQueue, l.MeanFEQueue)
		}
	}
	// SPAL config keeps queues shallow by comparison.
	spalRes := run(t, testConfig(tbl))
	if spalRes.PerLC[0].MeanFEQueue >= res.PerLC[0].MeanFEQueue {
		t.Error("SPAL mean FE queue should be far below the saturated baseline")
	}
}

// γ=0 makes every REM-class miss bypass the cache entirely — the heaviest
// exercise of the no-reservation resolution path. Conservation and
// next-hop correctness must hold.
func TestGammaZeroBypassPath(t *testing.T) {
	tbl := rtable.Small(2000, 53)
	cfg := testConfig(tbl)
	cfg.Cache.MixPercent = 0
	cfg.VerifyNextHops = true
	res := run(t, cfg)
	if res.PacketsCompleted != int64(cfg.NumLCs*cfg.PacketsPerLC) {
		t.Fatalf("completed = %d", res.PacketsCompleted)
	}
	// Remote repeats can no longer be served locally: fabric traffic must
	// far exceed the γ=50 run's.
	base := run(t, testConfig(tbl))
	if res.FabricMessages <= base.FabricMessages {
		t.Errorf("γ=0 fabric traffic (%d) should exceed γ=50 (%d)",
			res.FabricMessages, base.FabricMessages)
	}
}

func TestDisableEarlyRecording(t *testing.T) {
	tbl := rtable.Small(2000, 41)
	cfg := testConfig(tbl)
	cfg.DisableEarlyRecording = true
	cfg.VerifyNextHops = true
	res := run(t, cfg)
	if res.PacketsCompleted != int64(cfg.NumLCs*cfg.PacketsPerLC) {
		t.Fatal("run incomplete without early recording")
	}
	// No W blocks are ever created, so nothing can park on one.
	for i, l := range res.PerLC {
		_ = i
		_ = l
	}
	base := run(t, testConfig(tbl))
	// Coalescing is the point of early recording: without it the FEs and
	// fabric carry duplicate work.
	if res.FabricMessages <= base.FabricMessages {
		t.Errorf("no-recording fabric traffic (%d) should exceed baseline (%d)",
			res.FabricMessages, base.FabricMessages)
	}
}

func TestFabricContention(t *testing.T) {
	tbl := rtable.Small(2000, 43)
	cfg := testConfig(tbl)
	cfg.FabricContention = true
	cfg.VerifyNextHops = true
	res := run(t, cfg)
	if res.PacketsCompleted != int64(cfg.NumLCs*cfg.PacketsPerLC) {
		t.Fatal("run incomplete under fabric contention")
	}
	base := run(t, testConfig(tbl))
	// Serialized delivery can only add latency, modulo tiny arbitration-
	// order noise from the changed interleaving; allow 2% slack.
	if res.MeanLookupCycles < base.MeanLookupCycles*0.98 {
		t.Errorf("contention (%.3f) should not beat unbounded delivery (%.3f)",
			res.MeanLookupCycles, base.MeanLookupCycles)
	}
}

func TestLoadFactorsSkewArrivals(t *testing.T) {
	tbl := rtable.Small(2000, 59)
	cfg := testConfig(tbl)
	cfg.NumLCs = 2
	cfg.PacketsPerLC = 2000
	cfg.LoadFactors = []float64{2.0, 0.5}
	cfg.VerifyNextHops = true
	res := run(t, cfg)
	if res.PacketsCompleted != 4000 {
		t.Fatalf("completed = %d", res.PacketsCompleted)
	}
	// Both LCs emit the same packet count, but LC 0 finishes generating
	// ~4x sooner, so its generation phase occupies a smaller share of the
	// run. Measure via the last arrival: unavailable directly, so check
	// the FE/request split instead — LC 0 experienced denser arrivals and
	// thus more contention, never fewer total packets.
	if res.PerLC[0].Generated != 2000 || res.PerLC[1].Generated != 2000 {
		t.Error("load factors must not change packet budgets")
	}
	// Validation errors.
	bad := testConfig(tbl)
	bad.LoadFactors = []float64{1.0} // wrong length
	if _, err := New(bad); err == nil {
		t.Error("length mismatch should fail")
	}
	bad = testConfig(tbl)
	bad.LoadFactors = make([]float64, bad.NumLCs) // zeros
	if _, err := New(bad); err == nil {
		t.Error("non-positive factors should fail")
	}
}

func TestConfigValidation(t *testing.T) {
	tbl := rtable.Small(100, 1)
	bad := []Config{
		{},
		{NumLCs: 0, Table: tbl},
		{NumLCs: 2, Table: nil, PacketsPerLC: 10, GapMin: 1, GapMax: 2, LookupCycles: 1},
		{NumLCs: 2, Table: tbl, PacketsPerLC: 0, GapMin: 1, GapMax: 2, LookupCycles: 1},
		{NumLCs: 2, Table: tbl, PacketsPerLC: 10, GapMin: 0, GapMax: 2, LookupCycles: 1},
		{NumLCs: 2, Table: tbl, PacketsPerLC: 10, GapMin: 3, GapMax: 2, LookupCycles: 1},
		{NumLCs: 2, Table: tbl, PacketsPerLC: 10, GapMin: 1, GapMax: 2, LookupCycles: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
}

// TestCacheGeometryIsAnError: a cache organization the LR-cache rejects —
// what -beta, -assoc, -gamma, -victim or a JSON config can ask for — comes
// back from New as an error naming the field, not as a panic.
func TestCacheGeometryIsAnError(t *testing.T) {
	tbl := rtable.Small(100, 1)
	for _, tc := range []struct {
		name    string
		edit    func(*cache.Config)
		wantSub string
	}{
		{"250 sets", func(c *cache.Config) { c.Blocks = 1000 }, "not a power of two"},
		{"blocks below assoc", func(c *cache.Config) { c.Blocks = 2 }, "bad geometry"},
		{"zero assoc", func(c *cache.Config) { c.Assoc = 0 }, "bad geometry"},
		{"mix above 100", func(c *cache.Config) { c.MixPercent = 150 }, "MixPercent"},
		{"negative victims", func(c *cache.Config) { c.VictimBlocks = -1 }, "VictimBlocks"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(tbl)
			tc.edit(&cfg.Cache)
			r, err := New(cfg)
			if err == nil || r != nil {
				t.Fatalf("New accepted cache %+v", cfg.Cache)
			}
			if !strings.Contains(err.Error(), "sim: cache: ") || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not name the cache and %q", err, tc.wantSub)
			}
		})
	}
}

func TestResultReport(t *testing.T) {
	tbl := rtable.Small(1000, 37)
	cfg := testConfig(tbl)
	cfg.PacketsPerLC = 500
	res := run(t, cfg)
	s := res.String()
	if s == "" {
		t.Error("empty report")
	}
	sizes := res.SortedPartitionSizes()
	if len(sizes) != 4 {
		t.Fatalf("partition sizes = %v", sizes)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] < sizes[i-1] {
			t.Error("sizes not sorted")
		}
	}
	if res.LatencyPercentile(0.5) != res.P50 {
		t.Error("LatencyPercentile mismatch")
	}
	if res.DerivedMppsPerLC <= 0 || res.OfferedMppsRouter <= 0 {
		t.Error("throughput figures missing")
	}
}

// TestRunLimitError holds the cycle cap where a loop over every cycle had
// it. A remote lookup here crosses a 2.1 M-cycle fabric twice, and that
// round trip alone is past the cap a 50-packet run derives (4,019,600
// cycles): the run fails with the cap and the packets done that stepping
// each cycle reported (51 of 100, the ones homed at their arrival LC), though
// Run skips every cycle between its events. The flushes in between, the last
// on the cap's own cycle, are stepped and change no count. A run with
// nothing left due — no arrival, lookup, message, flush or update to come —
// fails at once, at a cap of 10^14 cycles no walk would reach.
func TestRunLimitError(t *testing.T) {
	base := DefaultConfig(rtable.Small(2000, 26))
	base.NumLCs = 2
	base.PacketsPerLC = 50
	base.Cache = cache.Config{Blocks: 8, Assoc: 4, MixPercent: 50, Policy: cache.LRU}
	base.FabricLatency = 2_100_000
	const want = "sim: exceeded 4019600 cycles with 51/100 packets done"
	for _, flush := range []int64{1_000_000, 4_019_600} {
		cfg := base
		cfg.FlushEveryCycles = flush
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err == nil || err.Error() != want {
			t.Errorf("flush every %d: got %v, want %q", flush, err, want)
		}
	}

	cfg := base
	cfg.PacketsPerLC = 1 << 40
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range r.lcs {
		l.toGenerate = 0
		r.cal.setWake(i, math.MaxInt64)
	}
	wantIdle := fmt.Sprintf("sim: exceeded %d cycles with 0/%d packets done", r.cfg.maxCycles(), 2<<40)
	if _, err := r.Run(); err == nil || err.Error() != wantIdle {
		t.Errorf("nothing due: got %v, want %q", err, wantIdle)
	}
}
