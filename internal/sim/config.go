// Package sim is the trace-driven cycle simulator of Sec. 5: a router of
// ψ line cards, each with the Fig. 2 pipeline — LR-cache probed at most
// once per 5 ns cycle, a forwarding engine executing longest-prefix
// matching in a configurable number of cycles, and input/request/outgoing
// queues — interconnected by a fixed-latency switching fabric.
//
// The simulator reproduces the paper's methodology: packets of varying
// length are generated at each LC so the mean offered load matches the LC
// speed (at 40 Gbps one packet every 2..18 cycles, at 10 Gbps every
// 6..74); destinations come from a trace stream; a cache miss triggers
// "early block recording" and either a local FE lookup or a fabric request
// to the home LC; the home LC caches the result as LOC and replies; the
// reply fills the arrival LC's block as REM and releases the packets
// parked on it.
//
// Baselines fall out of two switches: PartitionEnabled=false gives every
// LC the full table (every lookup is local), CacheEnabled=false removes
// the LR-caches. Both false models the conventional router of the paper's
// comparison; cache-only (partition off) models the prior CPU-caching work
// the paper contrasts with in Fig. 6.
package sim

import (
	"fmt"

	"spal/internal/cache"
	"spal/internal/fabric"
	"spal/internal/lpm"
	"spal/internal/rtable"
	"spal/internal/trace"
)

// The paper's timing model (Sec. 5): a 5 ns cycle, and the FE cost
// DynamicLookup charges — 12 ns per memory access plus 120 ns of code.
const (
	CycleNS     = 5
	memAccessNS = 12
	execNS      = 120
)

// The churn stream's event mix (see Config.UpdatesPerSecond).
const (
	updateWithdrawProb  = 0.3
	updateNewPrefixProb = 0.2
)

// Config describes one simulation run.
type Config struct {
	// NumLCs is ψ, the number of line cards (any integer >= 1).
	NumLCs int
	// LookupCycles is the FE matching time in cycles (paper: 40 for the
	// Lulea trie, 62 for the DP trie). Ignored when DynamicLookup is set.
	LookupCycles int
	// DynamicLookup derives each lookup's FE time from the engine's
	// reported memory accesses: ceil((accesses*memAccessNS + execNS) /
	// CycleNS), the formula behind the paper's 40-cycle figure
	// (6.5 accesses x 12 ns + 120 ns of code ≈ 200 ns ≈ 40 cycles).
	DynamicLookup bool

	// Cache is the LR-cache organization; CacheEnabled false removes the
	// caches entirely.
	Cache        cache.Config
	CacheEnabled bool
	// PartitionEnabled false keeps the full table at every LC.
	PartitionEnabled bool

	// FabricKind and FabricLatency choose the interconnect model;
	// FabricLatency 0 derives the latency from the kind and ψ.
	FabricKind    fabric.Kind
	FabricLatency int

	// GapMin and GapMax bound the per-packet inter-arrival gap in cycles.
	// Use Gaps40Gbps / Gaps10Gbps for the paper's two LC speeds.
	GapMin, GapMax int
	// LoadFactors optionally skews the ingress load: LC i's inter-arrival
	// gaps are divided by LoadFactors[i] (1.0 = nominal, 2.0 = twice the
	// packet rate). The paper assumes uniform ingress; this knob measures
	// SPAL under unbalanced line cards. Nil means uniform.
	LoadFactors []float64
	// PacketsPerLC is the per-LC packet budget (paper: 300,000).
	PacketsPerLC int

	// Table is the routing table; Trace names the destination workload.
	Table *rtable.Table
	Trace trace.Preset
	// TraceConfig overrides the preset when PoolSize > 0.
	TraceConfig trace.Config

	// Engine builds the per-LC matching structure; nil uses the O(1)
	// reference oracle (the FE cost is modelled by LookupCycles anyway).
	Engine lpm.Builder

	// FlushEveryCycles > 0 flushes every LR-cache periodically, modelling
	// the paper's route-update cache invalidation.
	FlushEveryCycles int64

	// UpdatesPerSecond > 0 streams seeded BGP-style route updates
	// (rtable.GenerateUpdates over the evolving table) through the run:
	// each event mutates the routing table incrementally — dynamic
	// engines are updated in place, others rebuild their partition — and
	// only the affected address ranges are invalidated in the LR-caches.
	// This is the simulator analogue of the concurrent router's
	// ApplyUpdates plane; FlushEveryCycles remains the legacy
	// full-flush-on-a-timer model. A share updateWithdrawProb of the
	// events withdraw a route, and a share updateNewPrefixProb of the
	// announcements introduce a prefix the table does not hold.
	UpdatesPerSecond float64
	// UpdateFullFlush switches churn invalidation from targeted ranges
	// to whole-cache flushes — the conservative model the churn
	// experiments compare targeted invalidation against.
	UpdateFullFlush bool

	// DisableEarlyRecording turns off the paper's "early cache block
	// recording" (Sec. 3.2): misses no longer reserve a W-bit block, so
	// concurrent lookups for one address each run the full miss path.
	// Ablation knob; the paper argues recording "enhances SPAL
	// performance".
	DisableEarlyRecording bool

	// FabricContention serializes fabric deliveries: each LC accepts at
	// most one arriving message per cycle (modelling a single fabric
	// output port per FIL), instead of the default unbounded delivery.
	FabricContention bool

	// StageAccounting stamps each packet at the pipeline's stage
	// boundaries (probe, fabric send/recv, FE start/done) and reports a
	// per-stage latency breakdown (Result.Stages / StageTable) — the
	// simulator analogue of the concurrent router's lookup traces.
	StageAccounting bool

	// SampleWindowCycles > 0 collects a time series: the mean lookup time
	// of the packets completing in each window of that many cycles. Used
	// for warmup and flush-recovery curves.
	SampleWindowCycles int64

	// Seed drives every random stream in the run.
	Seed uint64
	// VerifyNextHops cross-checks every completed packet against
	// full-table LPM (invariant 3); meant for tests.
	VerifyNextHops bool
}

// Gaps40Gbps returns the paper's inter-arrival bounds for a 40 Gbps LC
// (one packet every 2..18 cycles of 5 ns).
func Gaps40Gbps() (min, max int) { return 2, 18 }

// Gaps10Gbps returns the bounds for a 10 Gbps LC (6..74 cycles).
func Gaps10Gbps() (min, max int) { return 6, 74 }

// DefaultConfig returns the paper's headline configuration: ψ=16 LCs at
// 40 Gbps, 40-cycle lookups, 4K-block LR-caches with γ=50%, crossbar-class
// fabric, 300k packets per LC.
func DefaultConfig(tbl *rtable.Table) Config {
	gmin, gmax := Gaps40Gbps()
	return Config{
		NumLCs:           16,
		LookupCycles:     40,
		Cache:            cache.DefaultConfig(),
		CacheEnabled:     true,
		PartitionEnabled: true,
		FabricKind:       fabric.Multistage,
		GapMin:           gmin,
		GapMax:           gmax,
		PacketsPerLC:     300000,
		Table:            tbl,
		Trace:            trace.D75,
		Seed:             1,
	}
}

// normalize fills defaults and validates; it returns a copy.
func (c Config) normalize() (Config, error) {
	if c.NumLCs < 1 {
		return c, fmt.Errorf("sim: NumLCs must be >= 1, got %d", c.NumLCs)
	}
	if c.Table == nil || c.Table.Len() == 0 {
		return c, fmt.Errorf("sim: empty routing table")
	}
	if c.PacketsPerLC <= 0 {
		return c, fmt.Errorf("sim: PacketsPerLC must be positive")
	}
	if c.GapMin <= 0 || c.GapMax < c.GapMin {
		return c, fmt.Errorf("sim: bad gap bounds [%d,%d]", c.GapMin, c.GapMax)
	}
	if c.LoadFactors != nil {
		if len(c.LoadFactors) != c.NumLCs {
			return c, fmt.Errorf("sim: %d load factors for %d LCs", len(c.LoadFactors), c.NumLCs)
		}
		for i, f := range c.LoadFactors {
			if f <= 0 {
				return c, fmt.Errorf("sim: non-positive load factor %v at LC %d", f, i)
			}
		}
	}
	if c.UpdatesPerSecond < 0 {
		return c, fmt.Errorf("sim: negative UpdatesPerSecond %v", c.UpdatesPerSecond)
	}
	if !c.DynamicLookup && c.LookupCycles <= 0 {
		return c, fmt.Errorf("sim: LookupCycles must be positive")
	}
	if c.Engine == nil {
		c.Engine = lpm.NewReferenceEngine
	}
	if c.TraceConfig.PoolSize == 0 {
		c.TraceConfig = trace.PresetConfig(c.Trace)
	}
	if c.FabricLatency == 0 {
		c.FabricLatency = fabric.Latency(c.FabricKind, c.NumLCs)
	}
	return c, nil
}

// maxCycles caps a run as a safety net: generation time plus a
// worst-case FE drain, with headroom.
func (c Config) maxCycles() int64 {
	gen := int64(c.PacketsPerLC) * int64(c.GapMax)
	feCycles := int64(c.LookupCycles)
	if c.DynamicLookup {
		feCycles = (32*memAccessNS + execNS) / CycleNS
	}
	drain := int64(c.PacketsPerLC) * feCycles * 2
	return 4 * (gen + drain + 1_000_000)
}
