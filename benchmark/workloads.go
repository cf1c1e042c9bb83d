package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"spal/internal/ip"
)

// options is one invocation's arguments.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	sc      scale
	outDir  string // where a traced run writes its spans
}

// result is one workload's run.
type result struct {
	Workload  string              `json:"workload"`
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Unchecked int64               `json:"unchecked"` // churn_single: disagreements inside a range an update may change
	Host      float64             `json:"host"`      // median probe over the timed segments, see host.go
	Metrics   map[string]measured `json:"metrics"`
}

var allMetrics = append(slices.Clone(endToEnd), perLayer...)

// put records a metric as the median of its samples.
func (r *result) put(name string, samples ...float64) {
	i := slices.IndexFunc(allMetrics, func(d metricDef) bool { return d.Name == name })
	if i < 0 {
		panic("benchmark: metric " + name + " is not in spec.go")
	}
	m := measured{Value: median(samples), Unit: allMetrics[i].Unit}
	if len(samples) > 1 {
		m.Samples = samples
	}
	r.Metrics[name] = m
}

// heapInuseMiB forces a collection and reads the live heap.
func heapInuseMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// startTrace opens a traced run: the span buffer and the standalone
// components the ladder replays through. An untraced run gets neither.
func startTrace(o *options, workload, engine string, psi int) (*tracer, *parts, error) {
	if !o.trace {
		return nil, nil, nil
	}
	o.sc.setups = 1 // setup_s is an untraced metric
	tr := newTracer(workload)
	p, err := buildParts(tr, o.sc, engine, psi)
	return tr, p, err
}

// routerRun is what driving the real router measured, before it is turned
// into named metrics.
type routerRun struct {
	clients          int
	setupS           []float64
	heapMiB          float64
	segs, tracedSegs []segment
	counters         counters // router counter deltas over all timed segments
	allocs           uint64   // runtime mallocs over all timed segments
	timedAddrs       int64
	elapsed          time.Duration
	updateCallNS     []int64 // churn: ApplyUpdates latency from the due time, sorted
	updateLateNS     []int64 // churn: how late each call started, sorted
}

// runRouter runs one of the four workloads that drive the real router.
// Untraced it reports the end-to-end metrics. Traced it alternates untraced
// and traced segments (their throughput ratio is the tracing overhead),
// then replays the stream through the standalone layers.
func runRouter(w routerWorkload, o options) (*result, error) {
	res := &result{Workload: w.name, Metrics: make(map[string]measured)}
	tr, p, err := startTrace(&o, w.name, w.engine, numLCs)
	if err != nil {
		return nil, err
	}
	e, setupS, err := setUpTimed(w, o.sc, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	defer e.r.Stop()
	run := routerRun{clients: len(e.streams), setupS: setupS}
	l := newLoad(e, w, expect(e.tbl, e.streams))

	var (
		wr     *writer
		stop   = make(chan struct{})
		wrDone = make(chan struct{})
	)
	if w.churn {
		wr = &writer{r: e.r, batches: e.batches, tick: o.sc.tick}
		go func() { defer close(wrDone); wr.run(stop) }()
	}
	segLen := o.sc.segLen
	if w.churn {
		segLen = o.sc.tick
	}
	segments := max(2, int(o.seconds/segLen.Seconds())) // a traced run pairs them: untraced, traced

	l.segment(o.sc.warmup, nil)
	runtime.GC()
	c0, m0, t0 := readCounters(e.r), mallocs(), time.Now()
	before := probe()
	for i := 0; i < segments; i++ {
		traced := o.trace && i%2 == 1
		var s segment
		if traced {
			s = l.segment(segLen, tr)
		} else {
			s = l.segment(segLen, nil)
		}
		// One probe between two segments serves both.
		after := probe()
		s.host, before = (before+after)/2, after
		if traced {
			run.tracedSegs = append(run.tracedSegs, s)
		} else {
			run.segs = append(run.segs, s)
		}
	}
	run.counters, run.allocs, run.elapsed = readCounters(e.r).minus(c0), mallocs()-m0, time.Since(t0)
	for _, s := range slices.Concat(run.segs, run.tracedSegs) {
		run.timedAddrs += s.addrs
	}
	res.Attempted = run.timedAddrs
	res.Host = median(column(slices.Concat(run.segs, run.tracedSegs), func(s segment) float64 { return s.host }))
	if wr != nil {
		close(stop)
		<-wrDone
		if wr.err != nil {
			return nil, fmt.Errorf("%s: ApplyUpdates: %w", w.name, wr.err)
		}
	}
	// The heap the system holds after the run, with no update in flight:
	// the live heap less the benchmark's own streams, oracle verdicts and
	// sample buffers.
	run.heapMiB = heapInuseMiB() - l.ownMiB()
	if wr != nil {
		skip := 0 // batches that fell due during warm-up
		for skip < len(wr.applied) && wr.due(skip).Before(t0) {
			skip++
		}
		run.updateCallNS, run.updateLateNS = wr.callNS[skip:], wr.lateNS[skip:]
		slices.Sort(run.updateCallNS)
		slices.Sort(run.updateLateNS)
		// The clients could only check verdicts no update may change; now
		// that the table is still, check the rest through the router.
		res.Failed += recheck(e, wr.applied, o.sc.recheck)
		res.Attempted += int64(o.sc.recheck)
	}
	failed, unchecked := l.failures()
	res.Failed += failed
	res.Unchecked = unchecked
	res.Correct = res.Failed == 0

	if !o.trace {
		res.put("lookups_per_s", column(run.segs, func(s segment) float64 { return s.lookupsPerS * s.host })...)
		res.put("call_p50_ns", column(run.segs, func(s segment) float64 { return s.p50 / s.host })...)
		res.put("heap_mb", run.heapMiB)
		res.put("setup_s", run.setupS...)
		return res, nil
	}

	var stream []ip.Addr
	genS := tr.time("trace.gen", noParent, func() {
		if w.cold {
			stream = coldStreams(p.tbl, o.seed, 1, o.sc.ladderLen)[0]
		} else {
			stream = hotStreams(p.tbl, o.seed, 1, o.sc.ladderLen)[0]
		}
	})
	ld := p.replay(tr, stream, e.arrival)
	if w.churn {
		p.replayUpdates(tr, e.batches[:min(o.sc.ladderUpd, len(e.batches))], &ld)
	}
	putParts(res, p, genS*1e9/float64(len(stream)))
	putLadder(res, ld)
	putRouterLayers(res, w, run, ld, tr)
	res.put("host.probe_ratio", res.Host)
	return res, tr.dump(o.outDir)
}

func column(segs []segment, f func(segment) float64) []float64 {
	out := make([]float64, len(segs))
	for i, s := range segs {
		out[i] = f(s)
	}
	return out
}

// putParts reports the set-up pieces and static shape of the standalone
// components.
func putParts(res *result, p *parts, genNSPerAddr float64) {
	res.put("rtable.synth_s", p.synthS)
	res.put("trace.gen_ns_per_addr", genNSPerAddr)
	res.put("partition.build_s", p.partitionS)
	res.put("lpm.build_s", p.buildS)
	repl, imb := partitionShape(p.part)
	res.put("partition.replication", repl)
	res.put("partition.imbalance", imb)
	partBytes, fullBytes := p.engineBytes()
	res.put("lpm.memory_bytes.part", partBytes)
	res.put("lpm.memory_bytes.full", fullBytes)
}

func putLadder(res *result, ld ladder) {
	res.put("partition.home_lc_ns", ld.homeNS)
	res.put("lpm.lookup_ns.part", ld.partNS)
	res.put("lpm.lookup_ns.full", ld.fullNS)
	res.put("lpm.lookup_all_ns", ld.allNS)
	res.put("lpm.accesses_per_lookup", ld.accesses)
	res.put("cache.probe_hit_ns", ld.probeHitNS)
	res.put("cache.miss_fill_ns", ld.missFillNS)
	res.put("cache.hit_ratio", ld.hitRatio)
	res.put("cache.evictions_per_lookup", ld.evictions)
	res.put("rtable.apply_all_ns_per_update", ld.applyAllNS)
	res.put("partition.apply_updates_ns_per_update", ld.partApplyNS)
	res.put("lpm.update_ns", ld.lpmUpdateNS)
	res.put("cache.invalidate_range_ns", ld.invalidateNS)
	res.put("cache.invalidated_per_update", ld.invalidatedPerUpdate)
	res.put("fabric.pipe_ns_per_msg", ld.pipeNS)
}

// putRouterLayers reports the router's own counters as per-lookup ratios,
// the sampled per-call spans by ServedBy class, and for each the residual:
// the share of the router's figure that the standalone layer costs on that
// path do not explain — the goroutine hop, channels, waitlist and in-router
// fabric live there.
func putRouterLayers(res *result, w routerWorkload, run routerRun, ld ladder, tr *tracer) {
	rate := column(run.segs, func(s segment) float64 { return s.lookupsPerS * s.host })
	tracedRate := column(run.tracedSegs, func(s segment) float64 { return s.lookupsPerS * s.host })
	res.put("trace.overhead_share", 1-median(tracedRate)/median(rate))

	c := run.counters
	res.put("router.cache_hit_ratio", ratio(c.cacheHits, c.lookups))
	res.put("router.fe_execs_per_lookup", ratio(c.feExecs, c.lookups))
	res.put("router.fabric_msgs_per_lookup", ratio(c.fabricMsgs, c.lookups))
	res.put("router.coalesced_per_lookup", ratio(c.coalesced, c.lookups))
	res.put("router.retries_per_lookup", ratio(c.retries, c.lookups))
	res.put("router.fallbacks_per_lookup", ratio(c.fallbacks, c.lookups))
	res.put("router.call_p99_ns", column(run.segs, func(s segment) float64 { return s.p99 })...)
	res.put("router.allocs_per_lookup", ratio(int64(run.allocs), run.timedAddrs))
	res.put("router.failed_share", ratio(res.Failed, res.Attempted))
	res.put("metrics.snapshot_ns", column(run.tracedSegs, func(s segment) float64 { return s.snapshotNS })...)

	if w.batch == 1 {
		paths := map[string]float64{
			"cache":  ld.probeHitNS,
			"fe":     ld.missFillNS + ld.homeNS + ld.partNS,
			"remote": 2*ld.missFillNS + 2*ld.homeNS + ld.partNS, // arrival and home LC both miss and fill
		}
		byClass := tr.classDurations("router.lookup")
		for class, layers := range paths {
			if d := byClass[class]; len(d) > 0 {
				slices.Sort(d)
				p50 := percentile(d, 0.50)
				res.put("router.lookup_ns."+class, p50)
				res.put("router.residual_share."+class, 1-layers/p50)
			}
		}
	} else {
		perAddr := column(run.segs, func(s segment) float64 { return float64(run.clients) * 1e9 / s.lookupsPerS })
		res.put("router.ns_per_lookup.batch", perAddr...)
		layers := ld.replayNS + (1-ld.hitRatio)*(ld.homeNS+ld.allNS)
		res.put("router.residual_share.batch", 1-layers/median(perAddr))
	}
	if len(run.updateCallNS) > 0 {
		res.put("router.update_call_p50_ns", percentile(run.updateCallNS, 0.50))
		res.put("router.update_call_p90_ns", percentile(run.updateCallNS, 0.90))
		res.put("router.update_lag_p90_ms", percentile(run.updateLateNS, 0.90)/1e6)
		res.put("router.updates_applied_per_s", float64(c.updatesApplied)/run.elapsed.Seconds())
	}
}
