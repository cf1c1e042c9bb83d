// Package spal is the public face of this repository: a from-scratch Go
// reproduction of "SPAL: A Speedy Packet Lookup Technique for
// High-Performance Routers" (Tzeng, ICPP 2004).
//
// SPAL fragments a BGP routing table into ψ roughly equal subsets — one
// per line card — using carefully chosen prefix bit positions, gives each
// line card a small LR-cache of lookup results, and routes cache misses
// over a low-latency fabric to the address's home line card. The package
// offers three levels of entry:
//
//   - Partition / SelectBits: the table-fragmentation algorithm itself;
//   - Simulate: the paper's trace-driven cycle simulator (Sec. 5), used by
//     the benchmarks that regenerate every figure;
//   - NewRouter: a working concurrent forwarding plane (a lock and a queue
//     per line card) built from the same parts.
//
// Sub-packages under internal/ hold the substrates: the DP, Lulea, LC and
// 24/8 longest-prefix-matching engines, the LR-cache with its M/W bits and
// victim cache, synthetic BGP tables, and locality-calibrated traces.
package spal

import (
	"log/slog"
	"time"

	"spal/internal/cache"
	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/lpm/engines"
	"spal/internal/metrics"
	"spal/internal/partition"
	"spal/internal/router"
	"spal/internal/rtable"
	"spal/internal/sim"
	"spal/internal/trace"
	"spal/internal/tracing"
)

// Core re-exported types. Within this module the internal packages are
// importable directly; these aliases define the supported public surface.
type (
	// Addr is an IPv4 address in host order.
	Addr = ip.Addr
	// Prefix is an IPv4 prefix.
	Prefix = ip.Prefix
	// Table is an immutable routing-table snapshot.
	Table = rtable.Table
	// Route is one table entry.
	Route = rtable.Route
	// NextHop identifies an output line card.
	NextHop = rtable.NextHop
	// Partitioning is a computed table fragmentation.
	Partitioning = partition.Partitioning
	// Engine is a longest-prefix-matching structure.
	Engine = lpm.Engine
	// EngineBuilder constructs an Engine from a table.
	EngineBuilder = lpm.Builder
	// BatchEngine is an Engine that also resolves whole address slices in
	// one call (see LookupAll in internal/lpm for the generic fallback);
	// the router's batched FE sweep detects it dynamically.
	BatchEngine = lpm.BatchEngine
	// EngineResult is one BatchEngine lookup outcome.
	EngineResult = lpm.Result
	// CacheConfig is an LR-cache organization.
	CacheConfig = cache.Config
	// SimConfig configures a cycle-simulation run.
	SimConfig = sim.Config
	// SimResult is a run's outcome.
	SimResult = sim.Result
	// Router is the concurrent forwarding plane.
	Router = router.Router
	// RouterOption is a functional option for NewRouter.
	RouterOption = router.Option
	// Verdict is a concurrent-router lookup outcome.
	Verdict = router.Verdict
	// ServedBy identifies where a lookup result came from.
	ServedBy = router.ServedBy
	// TracePreset names one of the paper's five trace workloads.
	TracePreset = trace.Preset
	// MetricsSnapshot is an immutable observability snapshot (from
	// Router.Metrics or SimResult.Snapshot): counters, gauges and latency
	// histograms with Delta arithmetic and a Prometheus text encoder.
	MetricsSnapshot = metrics.Snapshot
	// MetricsLabel is one metric dimension, e.g. {"lc", "3"}.
	MetricsLabel = metrics.Label
	// FaultInjector decides the fate of each inter-LC fabric message
	// (chaos testing; see SeededFaults).
	FaultInjector = router.FaultInjector
	// FaultConfig parameterizes SeededFaults.
	FaultConfig = router.FaultConfig
	// FaultDecision is one injector verdict: drop, delay and/or duplicate.
	FaultDecision = router.FaultDecision
	// FabricMessage describes the message a FaultInjector is deciding on.
	FabricMessage = router.FabricMessage
	// LCState is one line card's lifecycle state (see Router.LCStates,
	// Router.KillLC, Router.DrainLC, Router.RestoreLC).
	LCState = router.LCState
	// ShedMode selects what admission does with a full inbox
	// (ShedDropNewest, ShedBlock; see WithRouterOverload).
	ShedMode = router.ShedMode
	// LookupTrace is one lookup's end-to-end span record (from
	// Router.Traces when tracing is enabled; see WithRouterTraceSampling).
	LookupTrace = tracing.LookupTrace
	// TraceEvent is one span event inside a LookupTrace.
	TraceEvent = tracing.SpanEvent
	// TraceEventKind classifies a TraceEvent (arrival, probe, fabric_send,
	// fe_exec, verdict, ...).
	TraceEventKind = tracing.EventKind
	// Update is one incremental routing change (announce or withdraw);
	// feed batches to (*Router).ApplyUpdates or (*Table).ApplyAll.
	Update = rtable.Update
	// UpdateKind distinguishes Announce from Withdraw.
	UpdateKind = rtable.UpdateKind
	// UpdateStreamConfig parameterizes GenerateUpdates.
	UpdateStreamConfig = rtable.UpdateStreamConfig
	// CorruptionPolicy configures the seeded state-corruption injector
	// (see WithRouterCorruption).
	CorruptionPolicy = router.CorruptionPolicy
	// IntegrityReport is the scrubber's cumulative view of detected and
	// repaired state damage (see Router.Integrity).
	IntegrityReport = router.IntegrityReport
	// LCIntegrity is one line card's row in an IntegrityReport.
	LCIntegrity = router.LCIntegrity
	// LinkFaults is a per-directed-link fabric fault matrix supporting
	// asymmetric drop/delay/jitter and sustained per-LC brownouts
	// (SlowLC); see NewLinkFaults.
	LinkFaults = router.LinkFaults
	// LinkFaultConfig parameterizes one directed link of a LinkFaults
	// matrix.
	LinkFaultConfig = router.LinkFaultConfig
	// GrayReport is the router's gray-failure snapshot (see Router.Gray).
	GrayReport = router.GrayReport
	// LCGrayStatus is one line card's row in a GrayReport.
	LCGrayStatus = router.LCGrayStatus
)

// Update kinds.
const (
	Announce = rtable.Announce
	Withdraw = rtable.Withdraw
)

// ServedBy values, re-exported for verdict classification.
const (
	ServedByCache  = router.ServedByCache
	ServedByFE     = router.ServedByFE
	ServedByRemote = router.ServedByRemote
	// ServedByFallback marks a verdict served by the router-wide read-only
	// full-table engine instead of the home LC: retries exhausted, breaker
	// open, forward-hop cap reached, or the home ejected as browned out.
	ServedByFallback = router.ServedByFallback
	// ServedByShed marks a lookup refused by overload control after
	// admission; synchronous Lookup calls surface it as ErrOverloaded.
	ServedByShed = router.ServedByShed
)

// Shed modes for WithRouterOverload.
const (
	ShedDropNewest = router.ShedDropNewest
	ShedBlock      = router.ShedBlock
)

// ErrOverloaded is returned by Lookup on a router built
// WithRouterOverload when the lookup was shed instead of executed; the
// caller may retry later, ideally with backoff.
var ErrOverloaded = router.ErrOverloaded

// LC lifecycle states, re-exported for Router.LCStates.
const (
	LCHealthy     = router.LCHealthy
	LCSuspect     = router.LCSuspect
	LCDown        = router.LCDown
	LCDraining    = router.LCDraining
	LCQuarantined = router.LCQuarantined
)

// ParsePrefix parses CIDR notation ("10.0.0.0/8").
func ParsePrefix(s string) (Prefix, error) { return ip.ParsePrefix(s) }

// ParseAddr parses a dotted-quad address.
func ParseAddr(s string) (Addr, error) { return ip.ParseAddr(s) }

// NewTable builds a routing table from routes (deduplicating by prefix).
func NewTable(routes []Route) *Table { return rtable.New(routes) }

// SynthesizeTable generates a synthetic BGP-like table with n prefixes.
func SynthesizeTable(n int, seed uint64) *Table { return rtable.Small(n, seed) }

// RT1 synthesizes the stand-in for the paper's 41,709-prefix FUNET table.
func RT1() *Table { return rtable.RT1() }

// RT2 synthesizes the stand-in for the paper's 140,838-prefix AS1221 table.
func RT2() *Table { return rtable.RT2() }

// Partition fragments tbl for numLCs line cards per the paper's two
// bit-selection criteria.
func Partition(tbl *Table, numLCs int) *Partitioning {
	return partition.Partition(tbl, numLCs)
}

// SelectBits returns the eta control-bit positions the criteria choose.
func SelectBits(tbl *Table, eta int) []int { return partition.SelectBits(tbl, eta) }

// Engines lists the available matching-structure builders by name
// (a fresh copy of the shared registry in internal/lpm/engines).
func Engines() map[string]EngineBuilder { return engines.Builders() }

// EngineNames returns the registered engine names, sorted.
func EngineNames() []string { return engines.Names() }

// DefaultCacheConfig is the paper's standard LR-cache: 4K blocks, 4-way,
// 8 victim blocks, γ=50%, LRU.
func DefaultCacheConfig() CacheConfig { return cache.DefaultConfig() }

// DefaultSimConfig is the paper's headline run: ψ=16 LCs at 40 Gbps,
// 40-cycle FE lookups, 4K-block caches.
func DefaultSimConfig(tbl *Table) SimConfig { return sim.DefaultConfig(tbl) }

// Simulate builds and runs one cycle simulation.
func Simulate(cfg SimConfig) (*SimResult, error) {
	r, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return r.Run()
}

// NewRouter starts a concurrent SPAL forwarding plane over tbl.
// Defaults: one line card, reference engine, caches off. Example:
//
//	r, err := spal.NewRouter(tbl, spal.WithLCs(16), spal.WithDefaultRouterCache())
//
// The router exposes an immutable observability snapshot via
// (*Router).Metrics; see MetricsSnapshot.
func NewRouter(tbl *Table, opts ...RouterOption) (*Router, error) {
	return router.New(tbl, opts...)
}

// WithLCs sets ψ, the number of line cards.
func WithLCs(n int) RouterOption { return router.WithLCs(n) }

// WithRouterCache enables LR-caches with the given organization.
func WithRouterCache(cc CacheConfig) RouterOption { return router.WithCache(cc) }

// WithDefaultRouterCache enables the paper-standard LR-cache.
func WithDefaultRouterCache() RouterOption { return router.WithDefaultCache() }

// WithRouterEngine sets the matching-structure builder every LC uses.
// Most callers want WithRouterEngineName, which resolves a registry name
// and is validated at construction.
func WithRouterEngine(b EngineBuilder) RouterOption { return router.WithEngine(b) }

// WithRouterEngineName selects the per-LC engine by registry name
// ("flat", "lulea", "stride24", ...; see EngineNames). NewRouter fails
// with an error listing the valid names when the name is unknown.
func WithRouterEngineName(name string) RouterOption { return router.WithEngineName(name) }

// WithRouterFaultInjector installs a chaos hook on the fabric message
// path; see SeededFaults for a deterministic injector.
func WithRouterFaultInjector(fi FaultInjector) RouterOption { return router.WithFaultInjector(fi) }

// WithRouterRequestTimeout sets the per-attempt deadline on fabric lookup
// requests (default 50ms).
func WithRouterRequestTimeout(d time.Duration) RouterOption { return router.WithRequestTimeout(d) }

// WithRouterMaxRetries bounds timed-out request re-sends before a lookup
// degrades to the full-table fallback (default 3).
func WithRouterMaxRetries(n int) RouterOption { return router.WithMaxRetries(n) }

// WithRouterHealthThresholds sets the LC lifecycle windows: an LC with no
// recorded heartbeat for suspectAfter is demoted to Suspect, and a crashed
// LC silent for downAfter is declared Down and its partition re-homed onto
// the survivors (defaults: 1x and 2x the request timeout).
func WithRouterHealthThresholds(suspectAfter, downAfter time.Duration) RouterOption {
	return router.WithHealthThresholds(suspectAfter, downAfter)
}

// WithRouterTraceSampling enables per-lookup distributed tracing with
// head-based probabilistic sampling (rate in 0..1). Interesting lookups
// — retried, re-homed, fallback-served, deadline-expired — are captured
// even at rate 0. Completed traces land in a bounded journal exposed by
// (*Router).Traces and the /debug/spal/traces endpoint.
func WithRouterTraceSampling(rate float64) RouterOption { return router.WithTraceSampling(rate) }

// WithRouterTraceLogger emits one structured slog record per finished
// trace; implies tracing.
func WithRouterTraceLogger(l *slog.Logger) RouterOption { return router.WithLogger(l) }

// WithRouterTraceJournal sizes the completed-trace ring behind
// (*Router).Traces (default 1024); implies tracing.
func WithRouterTraceJournal(size int) RouterOption { return router.WithTraceJournal(size) }

// WithRouterOverload enables overload control: each line card's inbox
// holds queueDepth messages (<= 0 selects 1024), and mode is what
// admission does with a lookup that finds it full — ShedDropNewest refuses
// it (Lookup returns ErrOverloaded), ShedBlock waits for space. With it come
// a 256-waiter cap per in-flight address, a retry budget (0.1 token per
// successful reply, 10 at most) and per-home-LC circuit breakers that open
// after 5 consecutive timeouts and probe again after 4 request timeouts.
func WithRouterOverload(queueDepth int, mode ShedMode) RouterOption {
	return router.WithOverload(queueDepth, mode)
}

// WithRouterRebalance enables the background partition rebalancer: when
// ApplyUpdates drifts the partitioning's replication factor past 1.15× its
// baseline, or per-LC sizes spread past 1.0× their mean, the router
// re-selects control bits over the current table and runs the full
// two-phase swap, at most once a second.
func WithRouterRebalance() RouterOption { return router.WithRebalance() }

// WithRouterScrub enables the online integrity scrubber: a cycle at most
// every interval (<= 0 selects 4 health ticks) samples 32 prefixes per line
// card with a rotating cursor, recomputes authoritative verdicts from the
// canonical routing table, compares them against the live engine walk and
// the resident cache entries, evicts mismatched cache entries, and
// quarantines and rebuilds a line card whose engine fails an audit.
func WithRouterScrub(interval time.Duration) RouterOption { return router.WithScrub(interval) }

// WithRouterCorruption installs the seeded state-corruption injector:
// engine verdict flips over poisoned address ranges, wrong values stored
// on cache fills, and dropped range invalidations, each drawn from a
// counter-keyed hash of the seed so a corruption schedule replays
// exactly. For chaos testing the scrub plane; never on by default.
func WithRouterCorruption(p CorruptionPolicy) RouterOption { return router.WithCorruption(p) }

// GenerateUpdates synthesizes a seeded BGP-style churn stream over tbl:
// announces of new and existing prefixes mixed with withdraws, stamped
// with arrival cycles at cfg.RatePerSecond. The stream is generated
// against the evolving table, so withdraws always name live prefixes.
func GenerateUpdates(tbl *Table, cfg UpdateStreamConfig) []Update {
	return rtable.GenerateUpdates(tbl, cfg)
}

// SeededFaults builds a deterministic fault injector: every fabric
// message independently draws drop/duplicate/delay outcomes from a
// counter-keyed hash of cfg.Seed, so a chaos run is reproducible from its
// seed alone.
func SeededFaults(cfg FaultConfig) FaultInjector { return router.SeededFaults(cfg) }

// NewLinkFaults builds an empty per-directed-link fault matrix drawing
// its decisions from a SeededFaults-style counter stream. Configure
// individual links with SetLink (asymmetric drop/delay/jitter — A→B can
// be partitioned while B→A is clean) or brown out a whole line card with
// SlowLC, then install the matrix via
// WithRouterFaultInjector(lf.Injector()).
func NewLinkFaults(seed uint64) *LinkFaults { return router.NewLinkFaults(seed) }

// WithRouterGray enables the gray-failure subsystem: per-home-LC fabric
// round-trip scoring against the fleet median driving a degraded health
// signal, and outlier ejection that steers traffic off a browned-out line
// card — its lookups answered from the full-table fallback — until
// its score recovers (64-sample windows, degrade at 3× the fleet median
// p50 for 3 cycles, recover after 3).
func WithRouterGray() RouterOption { return router.WithGray() }

// TracePresets lists the five paper traces.
func TracePresets() []TracePreset { return trace.Presets }
