package sim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"spal/internal/metrics"
	"spal/internal/stats"
)

// LCStats summarizes one line card after a run.
type LCStats struct {
	Generated, Completed       int64
	HitLoc, HitRem             int64
	MissLocal                  int64
	RequestsSent, RepliesSent  int64
	RequestsReceived, Reissued int64
	FELookups                  int64
	FEUtilization              float64
	CacheHitRate               float64
	PartitionSize              int
	// Queue occupancy: worst and mean depths of the FE request queue and
	// the fabric input queue, sampled per cycle.
	MaxFEQueue, MaxInputQueue   int64
	MeanFEQueue, MeanInputQueue float64
	// Waiting-list pressure from the LR-cache: packets parked on W
	// blocks and the deepest list one block accumulated.
	Parked, MaxWaitList int64
}

// Result carries everything the experiments report.
type Result struct {
	// MeanLookupCycles is the paper's headline metric: mean per-packet
	// lookup time in 5 ns cycles, from arrival-cycle probe to result.
	MeanLookupCycles float64
	// P50/P95/WorstLookupCycles summarize the latency distribution.
	P50, P95, WorstLookupCycles int
	// Cycles is the total simulated duration.
	Cycles int64
	// PacketsCompleted across all LCs.
	PacketsCompleted int64
	// DerivedMppsPerLC is the paper's throughput conversion: one packet
	// per MeanLookupCycles per LC, in millions of packets per second.
	DerivedMppsPerLC float64
	// DerivedMppsRouter is DerivedMppsPerLC x ψ (the ">336 million
	// packets per second" figure).
	DerivedMppsRouter float64
	// OfferedMppsRouter is the measured completion rate over the run.
	OfferedMppsRouter float64
	// HitRate is the aggregate LR-cache hit rate (0 when caches are off).
	HitRate float64
	// FabricMessages counts every request and reply crossed the fabric.
	FabricMessages int64
	// Route-churn accounting (UpdatesPerSecond > 0): update events
	// applied, targeted range invalidations issued across all caches,
	// and stale fills caught by the version guard.
	ChurnEvents, ChurnRangeInvalidations, ChurnStaleFills int64
	// PerLC holds per-line-card breakdowns.
	PerLC []LCStats
	// Samples is the latency time series (SampleWindowCycles > 0): the
	// warmup/flush-recovery curve.
	Samples []WindowSample
	// Stages is the per-stage latency breakdown (StageAccounting only).
	Stages []StageStats

	cfg Config
	lat *stats.Hist
}

// result assembles the Result after the run loop finishes.
func (r *Router) result() *Result {
	// Every packet has completed; the few a stale message, queue slot or
	// FE job still names were not folded by a last drop.
	for i := range r.packets {
		if r.packets[i].refs > 0 {
			r.fold(int64(i))
		}
	}
	res := &Result{
		MeanLookupCycles:  r.lat.Mean(),
		P50:               r.lat.Percentile(0.50),
		P95:               r.lat.Percentile(0.95),
		WorstLookupCycles: r.lat.Percentile(1.0),
		Cycles:            r.now,
		PacketsCompleted:  r.completed,
		FabricMessages:    r.pipe.Sent(),
		Samples:           r.samples,
		Stages:            r.stageBreakdown(),
		cfg:               r.cfg,
		lat:               r.lat,
	}
	res.ChurnEvents = r.churnEvents
	res.ChurnRangeInvalidations = r.churnRangeInv
	res.ChurnStaleFills = r.churnStaleFills
	if res.MeanLookupCycles > 0 {
		res.DerivedMppsPerLC = 1e3 / (res.MeanLookupCycles * CycleNS)
		res.DerivedMppsRouter = res.DerivedMppsPerLC * float64(r.cfg.NumLCs)
	}
	if r.now > 0 {
		res.OfferedMppsRouter = float64(r.completed) / (float64(r.now) * CycleNS * 1e-9) / 1e6
	}
	var probes, hits int64
	var sizes []int
	if r.part != nil {
		sizes = r.part.Stats().Sizes
	}
	for _, l := range r.lcs {
		ls := LCStats{
			Generated:        l.n[cGenerated],
			Completed:        l.n[cCompleted],
			HitLoc:           l.n[cHitLoc],
			HitRem:           l.n[cHitRem],
			MissLocal:        l.n[cMissLocal],
			RequestsSent:     l.n[cRequestSent],
			RepliesSent:      l.n[cReplySent],
			RequestsReceived: l.n[cRequestReceived],
			Reissued:         l.n[cReissued],
			FELookups:        l.n[cFELookups],
			PartitionSize:    -1,
		}
		if r.now > 0 {
			busy := l.feBusyCy
			if l.feBusy { // the job the run ended under, up to the last cycle stepped
				busy += r.now - 1 - l.feActive.startAt
			}
			ls.FEUtilization = float64(busy) / float64(r.now)
			ls.MeanFEQueue = float64(l.sumFEQ) / float64(r.now)
			ls.MeanInputQueue = float64(l.sumInputQ) / float64(r.now)
		}
		ls.MaxFEQueue = l.maxFEQ
		ls.MaxInputQueue = l.maxInputQ
		if l.cache != nil {
			cs := l.cache.Stats()
			ls.CacheHitRate = cs.HitRate()
			ls.Parked = cs.Parked
			ls.MaxWaitList = cs.MaxWaitList
			probes += cs.Probes
			hits += cs.Hits + cs.HitVictims
		}
		if sizes != nil {
			ls.PartitionSize = sizes[l.id]
		}
		res.PerLC = append(res.PerLC, ls)
	}
	if probes > 0 {
		res.HitRate = float64(hits) / float64(probes)
	}
	return res
}

// LatencyPercentile exposes the full distribution (p in 0..1).
func (res *Result) LatencyPercentile(p float64) int { return res.lat.Percentile(p) }

// Snapshot exposes the run's cycle counters through the shared
// observability vocabulary: the same Snapshot type the concurrent
// router's Metrics returns, so simulator output feeds the same
// Prometheus export path and Delta tooling. Per-LC counters carry a
// lc="<id>" label; the lookup-latency distribution is re-bucketed from
// exact unit bins (5 ns cycles) into the power-of-two histogram shape.
func (res *Result) Snapshot() *metrics.Snapshot {
	s := metrics.NewSnapshot()
	s.Counter("spal_sim_cycles_total", "Simulated cycles (5 ns each).", float64(res.Cycles))
	s.Counter("spal_sim_packets_completed_total", "Packets that completed lookup.", float64(res.PacketsCompleted))
	s.Counter("spal_sim_fabric_messages_total", "Requests and replies crossed the fabric.", float64(res.FabricMessages))
	s.Gauge("spal_sim_mean_lookup_cycles", "Mean per-packet lookup time in cycles.", res.MeanLookupCycles)
	s.Gauge("spal_sim_cache_hit_ratio", "Aggregate LR-cache hit rate.", res.HitRate)
	s.Gauge("spal_sim_derived_mpps_router", "Derived router throughput (Mpps).", res.DerivedMppsRouter)
	if res.cfg.UpdatesPerSecond > 0 {
		s.Counter("spal_sim_update_events_total", "Route-update events applied during the run.", float64(res.ChurnEvents))
		s.Counter("spal_sim_range_invalidations_total", "Targeted cache range invalidations from churn.", float64(res.ChurnRangeInvalidations))
		s.Counter("spal_sim_stale_fills_total", "Stale fills point-invalidated by the version guard.", float64(res.ChurnStaleFills))
	}
	for i, l := range res.PerLC {
		lbl := metrics.L("lc", strconv.Itoa(i))
		s.Counter("spal_sim_generated_total", "Packets generated at this LC.", float64(l.Generated), lbl)
		s.Counter("spal_sim_completed_total", "Packets completed at this LC.", float64(l.Completed), lbl)
		s.Counter("spal_sim_hits_total", "LR-cache hits by origin class.", float64(l.HitLoc), lbl, metrics.L("origin", "loc"))
		s.Counter("spal_sim_hits_total", "LR-cache hits by origin class.", float64(l.HitRem), lbl, metrics.L("origin", "rem"))
		s.Counter("spal_sim_fe_lookups_total", "Forwarding-engine lookups at this LC.", float64(l.FELookups), lbl)
		s.Counter("spal_sim_fabric_requests_total", "Requests this LC sent over the fabric.", float64(l.RequestsSent), lbl)
		s.Counter("spal_sim_fabric_replies_total", "Replies this LC sent over the fabric.", float64(l.RepliesSent), lbl)
		s.Gauge("spal_sim_fe_utilization", "Fraction of cycles the FE was busy.", l.FEUtilization, lbl)
		s.Gauge("spal_sim_partition_prefixes", "ROT-partition size in prefixes.", float64(l.PartitionSize), lbl)
	}
	if res.lat != nil {
		var h metrics.HistogramSnapshot
		res.lat.Each(func(v int, c int64) { h.AddValue(uint64(v), uint64(c)) })
		s.Hist("spal_sim_lookup_latency_cycles", "Per-packet lookup latency in cycles.", h)
	}
	return s
}

// String renders a one-run report.
func (res *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "psi=%d lookup=%dcy cache=%v(beta=%d gamma=%d%%) partition=%v trace=%s\n",
		res.cfg.NumLCs, res.cfg.LookupCycles, res.cfg.CacheEnabled,
		res.cfg.Cache.Blocks, res.cfg.Cache.MixPercent, res.cfg.PartitionEnabled, res.cfg.Trace)
	fmt.Fprintf(&b, "  mean lookup = %.2f cycles (p50=%d p95=%d worst=%d)\n",
		res.MeanLookupCycles, res.P50, res.P95, res.WorstLookupCycles)
	fmt.Fprintf(&b, "  derived throughput = %.1f Mpps/LC, %.1f Mpps/router\n",
		res.DerivedMppsPerLC, res.DerivedMppsRouter)
	fmt.Fprintf(&b, "  cache hit rate = %.4f, fabric messages = %d, cycles = %d\n",
		res.HitRate, res.FabricMessages, res.Cycles)
	if res.ChurnEvents > 0 {
		fmt.Fprintf(&b, "  churn = %d updates (%.0f/s), %d range invalidations, %d stale fills guarded\n",
			res.ChurnEvents, res.cfg.UpdatesPerSecond, res.ChurnRangeInvalidations, res.ChurnStaleFills)
	}
	return b.String()
}

// SortedPartitionSizes returns partition sizes ascending (report helper).
func (res *Result) SortedPartitionSizes() []int {
	out := make([]int, 0, len(res.PerLC))
	for _, l := range res.PerLC {
		if l.PartitionSize >= 0 {
			out = append(out, l.PartitionSize)
		}
	}
	sort.Ints(out)
	return out
}
