package router

import (
	"strconv"

	"spal/internal/metrics"
)

// lcLatency is one line card's lookup-latency histograms, split by where
// the result came from. The histograms are lock-free: the LC's current
// owner records, Metrics reads concurrently.
type lcLatency struct {
	cache, fe, remote, fallback metrics.Histogram
}

// finished is one group of local lookups a handler run answered: n of them,
// submitted at start and answered by servedBy. A traced lookup is a group of
// its own, so that its sample carries its exemplar.
type finished struct {
	start    int64
	traceID  uint64
	n        uint32
	servedBy ServedBy
}

// maxFinished bounds lineCard.done, whatever a run answers (a re-drive can
// release thousands of waiters): a full list is recorded on the spot.
const maxFinished = 64

// finish notes that lc's running handler answered a local lookup submitted
// at start; leave records its latency when the run ends, with the one clock
// reading that ends every lookup the run answered. Lookups that share start
// and servedBy — a batch's hits, a batch's sweep — share both ends of the
// interval, so they are one entry and one weighted observation: the weight
// is exact, and the histogram's count stays the number of lookups. A zero
// start (no submission stamp) is skipped. A non-zero traceID pins the
// sample's trace as the histogram bucket's exemplar, linking /metrics to
// /debug/spal/traces.
func (r *Router) finish(lc *lineCard, s ServedBy, start int64, traceID uint64) {
	if start == 0 {
		return
	}
	if n := len(lc.done); n > 0 && traceID == 0 {
		if last := &lc.done[n-1]; last.servedBy == s && last.start == start && last.traceID == 0 {
			last.n++
			return
		}
	}
	if len(lc.done) == maxFinished {
		lc.observeDone(r.now())
	}
	lc.done = append(lc.done, finished{start: start, traceID: traceID, n: 1, servedBy: s})
}

// observeDone records every lookup on lc.done as having ended at now.
func (lc *lineCard) observeDone(now int64) {
	for _, f := range lc.done {
		switch h := lc.lat.hist(f.servedBy); {
		case h == nil:
		case f.traceID != 0:
			h.ObserveExemplar(now-f.start, f.traceID)
		default:
			h.ObserveN(now-f.start, uint64(f.n))
		}
	}
	lc.done = lc.done[:0]
}

// foldHits counts lc's untraced inline cache hits not counted yet — Lookups
// first, so a reader that loads CacheHits before Lookups never sees more hits
// than lookups — and records them at what the last timed one took: the
// nearest timed inline hit's value, never a batch slot's or a queued
// lookup's. When it runs: see lineCard.untimedHits.
func (lc *lineCard) foldHits() {
	n := lc.untimedHits
	if n == 0 {
		return
	}
	lc.stats.Lookups.Add(int64(n))
	lc.stats.CacheHits.Add(int64(n))
	lc.handledInline.Add(int64(n))
	lc.lat.cache.ObserveN(lc.hitNS, n)
	lc.untimedHits = 0
	lc.unfolded.Store(false)
}

// count counts a lookup handled at lc that foldHits does not, which is every
// one but an untraced inline hit; inline says Router.lookup's caller runs it.
func (lc *lineCard) count(inline bool) {
	lc.stats.Lookups.Add(1)
	if inline {
		lc.handledInline.Add(1)
	}
}

func (l *lcLatency) hist(s ServedBy) *metrics.Histogram {
	switch s {
	case ServedByCache:
		return &l.cache
	case ServedByFE:
		return &l.fe
	case ServedByRemote:
		return &l.remote
	case ServedByFallback:
		return &l.fallback
	}
	return nil
}

// Metric names exported by Router.Metrics. DESIGN.md maps these onto the
// paper's tables and figures.
const (
	MetricLookups        = "spal_router_lookups_total"
	MetricCacheHits      = "spal_router_cache_hits_total"
	MetricFEExecs        = "spal_router_fe_execs_total"
	MetricFabricRequests = "spal_router_fabric_requests_total"
	MetricFabricReplies  = "spal_router_fabric_replies_total"
	MetricCoalesced      = "spal_router_coalesced_lookups_total"
	MetricStaleReplies   = "spal_router_stale_replies_total"
	MetricWaitlistDepth  = "spal_router_waitlist_depth"
	MetricHitRatio       = "spal_router_cache_hit_ratio"
	MetricLatency        = "spal_router_lookup_latency_ns"
	// Batch data-plane metrics (see batch.go).
	MetricBatches = "spal_router_batches_total"
	// Robustness metrics (failure model; see the package comment).
	MetricRetries         = "spal_router_retries_total"
	MetricFallbacks       = "spal_router_fallbacks_total"
	MetricDeadlineExpired = "spal_router_deadline_expired_total"
	MetricForwarded       = "spal_router_requests_forwarded_total"
	// Incremental-update metrics (see updates.go).
	MetricUpdateBatches  = "spal_router_update_batches_total"
	MetricUpdateEvents   = "spal_router_update_events_total"
	MetricUpdatesApplied = "spal_router_updates_applied_total"
	MetricStaleGen       = "spal_router_stale_gen_replies_total"
	MetricGeneration     = "spal_router_table_generation"
	MetricReplication    = "spal_router_partition_replication"
	// Lifecycle metrics (see lifecycle.go).
	MetricWaiters       = "spal_router_waiters"
	MetricLCState       = "spal_router_lc_state"
	MetricSuspects      = "spal_router_suspect_transitions_total"
	MetricRehomes       = "spal_router_rehomes_total"
	MetricReplayed      = "spal_router_replayed_lookups_total"
	MetricDrains        = "spal_router_drains_total"
	MetricDrainDuration = "spal_router_drain_duration_ns"
	// Inbox metrics (see overload.go). Every router reports its inbox
	// depth and the fabric messages it shed on a full inbox (reasons
	// remote_inbox_full, reply_inbox_full); the remaining shed reasons and
	// the families below them are emitted only by routers built
	// WithOverload.
	MetricShed       = "spal_router_shed_total"
	MetricInboxDepth = "spal_router_inbox_depth"
	// MetricHandled splits an LC's handler runs by who ran them:
	// path="inline" on the goroutine that held the message (the LC was
	// idle), path="queued" from its inbox, by an owner on its way out,
	// path="direct" by a requester that served its request at this idle home
	// itself: one run for a request and a reply never sent. A growing queued
	// share is contention pushing traffic off the run-to-completion path.
	// Messages only: control is not one (see own).
	MetricHandled          = "spal_router_handled_total"
	MetricWaitlistOverflow = "spal_router_waitlist_overflow_total"
	MetricRetryBudget      = "spal_router_retry_budget"
	MetricBudgetExhausted  = "spal_router_retry_budget_exhausted_total"
	MetricBreakerState     = "spal_router_breaker_state"
	MetricBreakerShorts    = "spal_router_breaker_short_circuits_total"
	MetricBreakerOpens     = "spal_router_breaker_opens_total"
	MetricBreakerCloses    = "spal_router_breaker_closes_total"
	// Gray-failure metrics (see gray.go). Emitted only when the gray
	// subsystem is enabled, so snapshots of a default router are
	// byte-identical to earlier releases.
	MetricFabricRTTp50 = "spal_router_fabric_rtt_p50_ns"
	MetricFabricRTTp99 = "spal_router_fabric_rtt_p99_ns"
	MetricLCDegraded   = "spal_router_lc_degraded"
	MetricEjectServed  = "spal_router_eject_served_total"
	MetricGrayDegrades = "spal_router_gray_degrades_total"
	MetricGrayRecovers = "spal_router_gray_recovers_total"
)

// Metrics returns an immutable snapshot of every router metric: the
// per-LC event counters (labeled lc="<id>"), lookup-latency histograms in
// nanoseconds (labeled lc and served_by="cache"|"fe"|"remote"), the live
// waitlist depth, and — while the router is running — each LR-cache's
// counters and per-origin occupancy, read under that LC's lock (see own):
// one LC's at a time, for the length of a copy of its cache's counters,
// a dead LC's included. A scrape is not a message and counts as none.
//
// Snapshots support Delta for interval rates and WritePrometheus for
// export; see internal/metrics.
func (r *Router) Metrics() *metrics.Snapshot {
	s := metrics.NewSnapshot()

	// LR-cache state belongs to the LC's lock holder. A stopped router skips
	// this (the cache views are frozen anyway) and still reports every
	// atomic counter.
	views := make([]*metrics.Snapshot, r.cfg.NumLCs)
	if !r.stopped.Load() {
		for i := range r.lcs {
			views[i] = metrics.NewSnapshot()
			lbl := metrics.L("lc", strconv.Itoa(i))
			r.own(i, func(lc *lineCard) {
				lc.foldHits()
				lc.hitNS = 0 // the next inline hit is timed: a quiet LC's value is no older than a scrape
				if lc.cache != nil {
					lc.cache.MetricsInto(views[i], lbl)
				}
			})
		}
	}

	var hits, probes float64
	for i, lc := range r.lcs {
		lbl := metrics.L("lc", strconv.Itoa(i))
		s.Counter(MetricLookups, "Lookups submitted at this line card.", float64(lc.stats.Lookups.Load()), lbl)
		s.Counter(MetricCacheHits, "Lookups answered by this LC's LR-cache (incl. victim hits).", float64(lc.stats.CacheHits.Load()), lbl)
		s.Counter(MetricFEExecs, "Forwarding-engine executions at this LC.", float64(lc.stats.FEExecs.Load()), lbl)
		s.Counter(MetricFabricRequests, "Lookup requests this LC sent over the fabric.", float64(lc.stats.RequestsSent.Load()), lbl)
		s.Counter(MetricFabricReplies, "Lookup replies this LC sent over the fabric.", float64(lc.stats.RepliesSent.Load()), lbl)
		s.Counter(MetricCoalesced, "Lookups coalesced onto an in-flight miss.", float64(lc.stats.Coalesced.Load()), lbl)
		s.Counter(MetricBatches, "Batch descriptors admitted at this LC.", float64(lc.stats.Batches.Load()), lbl)
		s.Counter(MetricStaleReplies, "Fabric replies dropped by the table-update epoch guard.", float64(lc.stats.StaleReplies.Load()), lbl)
		s.Counter(MetricRetries, "Fabric requests re-sent after a deadline expiry.", float64(lc.stats.Retries.Load()), lbl)
		s.Counter(MetricFallbacks, "Lookups served by the full-table fallback.", float64(lc.stats.Fallbacks.Load()), lbl)
		s.Counter(MetricDeadlineExpired, "Pending lookups whose fabric retry budget ran out.", float64(lc.stats.DeadlineExpired.Load()), lbl)
		s.Counter(MetricForwarded, "In-flight requests forwarded because the address was re-homed.", float64(lc.stats.ForwardedRequests.Load()), lbl)
		s.Counter(MetricUpdatesApplied, "Route updates this LC streamed into its forwarding engine.", float64(lc.stats.UpdatesApplied.Load()), lbl)
		s.Counter(MetricStaleGen, "Fabric replies delivered but kept out of the cache by the generation guard.", float64(lc.stats.StaleGenReplies.Load()), lbl)
		s.Gauge(MetricWaitlistDepth, "Addresses with lookups parked awaiting a result.", float64(lc.pendingDepth.Load()), lbl)
		s.Gauge(MetricWaiters, "Individual lookups (local + remote) parked in this LC's waitlists.", float64(lc.waiters.Load()), lbl)
		s.Gauge(MetricLCState, "Line-card lifecycle state: 0=healthy 1=suspect 2=down 3=draining.", float64(r.health[i].Load()), lbl)
		hits += float64(lc.stats.CacheHits.Load())
		probes += float64(lc.stats.Lookups.Load())

		latHelp := "End-to-end lookup latency in nanoseconds, by result origin."
		s.Hist(MetricLatency, latHelp, lc.lat.cache.Snapshot(), lbl, metrics.L("served_by", "cache"))
		s.Hist(MetricLatency, latHelp, lc.lat.fe.Snapshot(), lbl, metrics.L("served_by", "fe"))
		s.Hist(MetricLatency, latHelp, lc.lat.remote.Snapshot(), lbl, metrics.L("served_by", "remote"))
		s.Hist(MetricLatency, latHelp, lc.lat.fallback.Snapshot(), lbl, metrics.L("served_by", "fallback"))

		if r.gray != nil {
			g := r.gray[i]
			s.Gauge(MetricFabricRTTp50, "Windowed p50 fabric round trip to this home LC, nanoseconds.",
				float64(g.p50.Load()), lbl)
			s.Gauge(MetricFabricRTTp99, "Windowed p99 fabric round trip to this home LC, nanoseconds.",
				float64(g.p99.Load()), lbl)
			degraded := 0.0
			if g.degraded.Load() {
				degraded = 1
			}
			s.Gauge(MetricLCDegraded, "Gray-failure degraded signal: 1 while this LC's fabric RTT is an outlier.",
				degraded, lbl)
		}

		for why, name := range shedReasonNames {
			// Without overload control only the fabric path can shed.
			if r.overload || why == int(shedRemoteFull) || why == int(shedReplyFull) {
				s.Counter(MetricShed, "Messages/lookups shed on a full inbox or by overload control, by reason.",
					float64(lc.ov.shed[why].Load()), lbl, metrics.L("reason", name))
			}
		}
		s.Gauge(MetricInboxDepth, "Messages queued in this LC's bounded inbox.",
			float64(len(r.inboxes[i])), lbl)
		handledHelp := "Messages handled at this LC, by who ran the handler: inline on the sender's goroutine, queued through the LC's inbox (served by whoever holds its lock), or direct: a request served by its requester holding this idle home's lock, request and reply never sent."
		s.Counter(MetricHandled, handledHelp, float64(lc.handledInline.Load()), lbl, metrics.L("path", "inline"))
		s.Counter(MetricHandled, handledHelp, float64(lc.handledQueued.Load()), lbl, metrics.L("path", "queued"))
		s.Counter(MetricHandled, handledHelp, float64(lc.handledDirect.Load()), lbl, metrics.L("path", "direct"))
		if r.overload {
			s.Counter(MetricWaitlistOverflow, "Waiters refused because the per-address waitlist hit its cap.",
				float64(lc.ov.shed[shedWaitlistOverflow].Load()), lbl)
			s.Gauge(MetricRetryBudget, "Retry tokens currently available at this LC.",
				float64(lc.ov.budgetMilli.Load())/1000, lbl)
			s.Counter(MetricBudgetExhausted, "Retries refused for lack of budget (lookup went straight to fallback).",
				float64(lc.ov.budgetExhausted.Load()), lbl)
			s.Counter(MetricBreakerShorts, "Fabric sends short-circuited to fallback by an open breaker.",
				float64(lc.ov.breakerShorts.Load()), lbl)
			s.Counter(MetricBreakerOpens, "Per-home breaker transitions into open at this LC.",
				float64(lc.ov.breakerOpens.Load()), lbl)
			s.Counter(MetricBreakerCloses, "Per-home breaker transitions back to closed at this LC.",
				float64(lc.ov.breakerCloses.Load()), lbl)
			for h := range lc.ov.breakers {
				if h == i {
					continue
				}
				s.Gauge(MetricBreakerState, "Circuit breaker toward home LC: 0=closed 1=open 2=half-open.",
					float64(lc.ov.breakers[h].state.Load()), lbl, metrics.L("home", strconv.Itoa(h)))
			}
		}
	}
	if probes > 0 {
		s.Gauge(MetricHitRatio, "Router-wide fraction of lookups served by an LR-cache.", hits/probes)
	}
	s.Counter(MetricUpdateBatches, "Incremental update batches applied (ApplyUpdates calls).", float64(r.updateBatches.Load()))
	s.Counter(MetricUpdateEvents, "Individual route announce/withdraw events applied incrementally.", float64(r.updateEvents.Load()))
	r.mu.Lock()
	gen, repl := r.gen, r.part.Stats().Replication
	r.mu.Unlock()
	s.Gauge(MetricGeneration, "Router-wide routing-table generation (update batches + full swaps).", float64(gen))
	s.Gauge(MetricReplication, "Live partitioning replication factor Φ* (Σ partition sizes / table size).", repl)
	s.Counter(MetricSuspects, "Healthy→Suspect demotions by the health monitor.", float64(r.suspects.Load()))
	s.Counter(MetricRehomes, "Partition re-homings after a line-card death.", float64(r.rehomes.Load()))
	s.Counter(MetricReplayed, "Parked lookups replayed after a re-homing.", float64(r.replayed.Load()))
	s.Counter(MetricDrains, "Completed administrative drains.", float64(r.drains.Load()))
	s.Hist(MetricDrainDuration, "DrainLC wall time in nanoseconds, partition swap through quiescence.", r.drainDur.Snapshot())
	if r.gray != nil {
		s.Counter(MetricEjectServed, "Lookups answered from the fallback because their home LC was ejected.",
			float64(r.ejectServed.Load()))
		s.Counter(MetricGrayDegrades, "Degraded-signal onsets across all LCs.", float64(r.grayDegrades.Load()))
		s.Counter(MetricGrayRecovers, "Degraded-signal recoveries across all LCs.", float64(r.grayRecovers.Load()))
	}
	for _, v := range views {
		s.Append(v)
	}
	return s
}
