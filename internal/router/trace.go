// Router-side tracing glue: construction options, the Traces snapshot
// API, and the Healthy predicate the observability endpoint serves.
//
// Ownership protocol (the reason tracing adds no locks): a LookupTrace
// is created at the arrival LC and only ever appended to by whichever
// goroutine currently owns the lookup's state — the holder of the
// lineCard.mu of the LC whose message or waitlist carries it (an inline
// caller, an owner serving the queue, or the health monitor adopting a
// crashed slot, see lifecycle.go). Home-LC detail returns inside
// the reply message as plain integers (hops, FE nanoseconds), never as a
// shared pointer.
//
// Per-address events (fabric send, retry, deadline, fill) are recorded
// on the waitlist's trace — the earliest traced lookup parked on the
// address; lookups that coalesce onto it later keep their own traces
// with just the arrival/probe/coalesce/verdict story.
package router

import (
	"log/slog"

	"spal/internal/ip"
	"spal/internal/tracing"
)

// WithTraceSampling enables per-lookup tracing with head-based
// probabilistic sampling: rate is the fraction of lookups traced from
// arrival (0 ≤ rate ≤ 1). Interesting lookups — retried, re-homed,
// fallback-served, deadline-expired — are always captured, even at rate
// 0, via late allocation off the hot path. With tracing enabled but a
// lookup unsampled, the hot path pays a nil check and one atomic
// counter increment; with tracing disabled entirely (no trace option
// given), it pays the nil check alone.
func WithTraceSampling(rate float64) Option {
	return func(c *config) {
		c.TracingEnabled = true
		c.TraceSampleRate = rate
	}
}

// WithLogger installs a structured-log sink for completed traces: one
// slog record per finished sampled trace (fields: trace_id, addr,
// arrival_lc, served_by, ok, latency_ns, events, flags). Implies
// tracing.
func WithLogger(l *slog.Logger) Option {
	return func(c *config) {
		c.TracingEnabled = true
		c.TraceLogger = l
	}
}

// WithTraceJournal sizes the bounded ring of completed traces behind
// Router.Traces (default 1024). Implies tracing.
func WithTraceJournal(size int) Option {
	return func(c *config) {
		c.TracingEnabled = true
		c.TraceJournal = size
	}
}

// Traces returns a copy of the completed-trace journal, oldest first.
// Nil when tracing is disabled. Safe to call concurrently with traffic;
// see tracing.Recorder.Snapshot for the consistency contract.
func (r *Router) Traces() []tracing.LookupTrace {
	return r.tracer.Snapshot()
}

// Healthy reports whether every line card currently owns its share of
// the partition: true iff no LC is Down or Draining (Suspect still serves —
// a long handler can look like it) and the router is not stopped. This is
// the predicate behind /healthz.
func (r *Router) Healthy() bool {
	if r.stopped.Load() {
		return false
	}
	for _, h := range r.health {
		if st := h.Load(); st == LCDown || st == LCDraining {
			return false
		}
	}
	return true
}

// finishTrace seals a trace with its verdict and publishes it.
func (r *Router) finishTrace(t *tracing.LookupTrace, servedBy ServedBy, ok bool) {
	if t != nil {
		r.tracer.Finish(t, servedBy.String(), ok)
	}
}

// traceID returns a trace's id, or 0 for nil (the no-exemplar marker).
func traceID(t *tracing.LookupTrace) uint64 {
	if t == nil {
		return 0
	}
	return t.ID
}

// lateTrace captures an untraced lookup that just turned interesting:
// nil unless tracing is enabled. Runs only on cold paths (deadline
// sweep, re-homing).
func (r *Router) lateTrace(lc int, addr ip.Addr) *tracing.LookupTrace {
	if r.tracer == nil {
		return nil
	}
	return r.tracer.Late(lc, addr)
}

// lateTraceFor gives addr's waitlist a late trace when it has just turned
// interesting and nothing parked on it was head-sampled. The trace belongs
// to the address, not to a waiter (trLate), so answer finishes it.
func (r *Router) lateTraceFor(lc *lineCard, addr ip.Addr, wl *waitlist) {
	if wl.tr == nil && r.tracer != nil {
		wl.tr = r.lateTrace(lc.id, addr)
		wl.trLate = wl.tr != nil
	}
}

// feTimer starts an FE-execution timer when tracing is on; zero
// otherwise, which elapsedNS maps to 0 so untraced runs report no
// timing.
func (r *Router) feTimer() int64 {
	if r.tracer == nil {
		return 0
	}
	return r.now()
}

// elapsedNS converts a feTimer start into nanoseconds (minimum 1 so a
// measured execution is distinguishable from "not measured").
func (r *Router) elapsedNS(t0 int64) int64 {
	if t0 == 0 {
		return 0
	}
	return max(r.now()-t0, 1)
}
