// Tracing tests: hot-path allocation neutrality, span content for the
// cache-hit / remote / coalesce paths, propagation across a crash
// re-homing, and the chaos reconciliation contract between trace event
// counts and the router's metrics counters.
package router

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spal/internal/fabric"
	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/metrics"
	"spal/internal/rtable"
	"spal/internal/stats"
	"spal/internal/tracing"
)

// routedAddr returns an address the table actually routes, so warmed
// cache hits are hits on a real entry.
func routedAddr(t *testing.T, tbl *rtable.Table) ip.Addr {
	t.Helper()
	oracle := lpm.NewReference(tbl)
	rng := stats.NewRNG(99)
	for i := 0; i < 10000; i++ {
		a := rng.Uint32()
		if _, _, ok := oracle.Lookup(a); ok {
			return a
		}
	}
	t.Fatal("no routed address found")
	return 0
}

// TestLookupTracingDisabledAllocs is the benchmark-regression guard: a
// warmed cache-hit Lookup allocates nothing — the caller runs the probe
// itself and gets the verdict as a return value, no reply channel — and a
// router with tracing compiled in but disabled (rate 0) allocates nothing
// either.
func TestLookupTracingDisabledAllocs(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	addr := routedAddr(t, tbl)
	measure := func(opts ...Option) float64 {
		// A long request timeout quiets the deadline ticker and health
		// monitor so AllocsPerRun sees only the lookup path.
		base := []Option{WithLCs(1), WithDefaultCache(), WithRequestTimeout(time.Second)}
		r, err := New(tbl, append(base, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Stop()
		for i := 0; i < 3; i++ { // warm the cache: steady state is a hit
			if _, err := r.Lookup(0, addr); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(500, func() {
			if _, err := r.Lookup(0, addr); err != nil {
				t.Fatal(err)
			}
		})
	}

	vanilla := measure()
	if vanilla != 0 {
		t.Errorf("a warmed cache-hit Lookup allocates %.2f/op, want 0", vanilla)
	}
	disabled := measure(WithTraceSampling(0))
	if disabled > vanilla+0.01 {
		t.Errorf("tracing disabled allocates on the hot path: %.2f allocs/lookup vs %.2f vanilla", disabled, vanilla)
	}
	// Sanity: full sampling must actually be doing work (one trace
	// allocation per lookup), or the guard above is testing nothing.
	full := measure(WithTraceSampling(1))
	if full < vanilla+0.5 {
		t.Errorf("rate-1.0 sampling shows no allocation (%.2f vs %.2f): tracing is not recording", full, vanilla)
	}
}

// TestTraceCacheHitAndRemote checks the span story of the two basic
// lookup shapes: a remote miss (probe, fabric send/recv, home FE, fill,
// verdict) and a warmed cache hit (probe, verdict).
func TestTraceCacheHitAndRemote(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	r, err := New(tbl, WithLCs(4), WithDefaultCache(), WithTraceSampling(1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	addr := routedAddr(t, tbl)
	from := (r.HomeLC(addr) + 1) % 4 // submit away from home: the miss goes remote
	if _, err := r.Lookup(from, addr); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lookup(from, addr); err != nil {
		t.Fatal(err)
	}

	traces := r.Traces()
	if len(traces) != 2 {
		t.Fatalf("journal has %d traces, want 2", len(traces))
	}
	remote, hit := traces[0], traces[1]

	if remote.ServedBy != ServedByRemote.String() {
		t.Errorf("first lookup served by %q, want remote", remote.ServedBy)
	}
	for _, k := range []tracing.EventKind{tracing.EvArrival, tracing.EvProbe, tracing.EvFabricSend, tracing.EvFabricRecv, tracing.EvFEExec, tracing.EvFill, tracing.EvVerdict} {
		if remote.CountKind(k) == 0 {
			t.Errorf("remote trace missing %s event: %+v", k, remote.EventSlice())
		}
	}
	for _, e := range remote.EventSlice() {
		switch e.Kind {
		case tracing.EvFabricSend:
			if e.A != int64(r.HomeLC(addr)) || e.B != 1 {
				t.Errorf("fabric_send A=%d B=%d, want home=%d attempt=1", e.A, e.B, r.HomeLC(addr))
			}
		case tracing.EvFEExec:
			if e.A <= 0 {
				t.Errorf("fe_exec recorded no execution time: %+v", e)
			}
		}
	}

	if hit.ServedBy != ServedByCache.String() {
		t.Errorf("second lookup served by %q, want cache", hit.ServedBy)
	}
	if hit.CountKind(tracing.EvProbe) != 1 || hit.CountKind(tracing.EvVerdict) != 1 {
		t.Errorf("cache-hit trace events: %+v", hit.EventSlice())
	}
	if hit.CountKind(tracing.EvFabricSend) != 0 {
		t.Error("cache hit recorded a fabric send")
	}
	if hit.ID == remote.ID {
		t.Error("trace ids not unique")
	}
}

// TestTracePropagationAcrossRehome parks a lookup at an LC, crashes
// that LC, and requires the replayed lookup's verdict to carry one
// trace that records the re-homing and a coherent span story.
func TestTracePropagationAcrossRehome(t *testing.T) {
	tbl := rtable.Small(2000, 19)
	oracle := lpm.NewReference(tbl)

	// Gate-controlled fabric: while closed, every lookup message touching
	// LC 1 is dropped, so a lookup submitted at LC 1
	// for a remote home stays parked in LC 1's waitlist.
	var gateOpen atomic.Bool
	inj := func(m fabric.Message) fabric.Decision {
		if gateOpen.Load() {
			return fabric.Decision{}
		}
		if m.Src == 1 || m.Dst == 1 {
			return fabric.Decision{Drop: true}
		}
		return fabric.Decision{}
	}
	r, err := New(tbl, WithLCs(4),
		WithFaultInjector(inj),
		WithTraceSampling(1), WithTraceJournal(1<<12),
		WithRequestTimeout(5*time.Millisecond), WithMaxRetries(100))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	addr := routedAddr(t, tbl)
	if r.HomeLC(addr) == 1 {
		t.Fatalf("test address homed at the LC under test") // rtable.Small(…,19) does not do this
	}
	resp, err := lookupAsync(r, 1, addr)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the lookup to park at LC 1", func() bool {
		v, _ := r.Metrics().Value(MetricWaitlistDepth, metrics.L("lc", "1"))
		return v >= 1
	})

	if err := r.KillLC(1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the parked lookup to be replayed", func() bool {
		return r.Metrics().Sum(MetricReplayed) >= 1
	})
	gateOpen.Store(true)

	var v Verdict
	select {
	case v = <-resp:
	case <-time.After(5 * time.Second):
		t.Fatal("replayed lookup never resolved")
	}
	if !verdictMatches(v, oracle, addr) {
		t.Errorf("replayed verdict %+v disagrees with the oracle", v)
	}

	var got *tracing.LookupTrace
	traces := r.Traces()
	for i := range traces {
		if traces[i].Addr == addr && traces[i].Flags&tracing.FlagRehomed != 0 {
			if got != nil {
				t.Fatalf("two re-homed traces for one lookup: ids %d and %d", got.ID, traces[i].ID)
			}
			got = &traces[i]
		}
	}
	if got == nil {
		t.Fatalf("no trace with FlagRehomed among %d journaled traces", len(traces))
	}
	if got.CountKind(tracing.EvRehome) != 1 {
		t.Errorf("rehome events = %d, want 1", got.CountKind(tracing.EvRehome))
	}
	if got.CountKind(tracing.EvVerdict) != 1 {
		t.Errorf("verdict events = %d, want exactly 1", got.CountKind(tracing.EvVerdict))
	}
	if got.CountKind(tracing.EvFabricSend) < 1 {
		t.Error("re-homed trace never sent a fabric request")
	}
	// The reply's span must agree with the request's forwarding budget.
	for _, e := range got.EventSlice() {
		if e.Kind == tracing.EvFabricRecv && (e.B < 0 || e.B > maxForwardHops) {
			t.Errorf("fabric_recv hop count %d outside [0,%d]", e.B, maxForwardHops)
		}
	}
}

// TestChaosTracesReconcileWithMetrics is the acceptance check for trace
// exactness: at rate 1.0 under seeded faults plus a mid-run LC crash,
// the per-kind event totals across every journaled trace must equal the
// router's own retry/deadline/replay counters for the run. Counts stay
// exact even when a trace's event array overflows, so this holds under
// arbitrarily ugly retry storms.
func TestChaosTracesReconcileWithMetrics(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	oracle := lpm.NewReference(tbl)
	const psi, perLC = 4, 1000
	for _, seed := range chaosSeeds(t) {
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			r, err := New(tbl, WithLCs(psi), WithDefaultCache(),
				WithFaultInjector(fabric.NewFaults(seed, fabric.LinkConfig{
					DropRate: 0.08, DupRate: 0.05, DelayRate: 0.1, Jitter: time.Millisecond,
				}).Decide),
				WithRequestTimeout(2*time.Millisecond), WithMaxRetries(2),
				WithTraceSampling(1), WithTraceJournal(1<<15))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()

			before := r.Metrics()
			var served atomic.Int64
			var wg sync.WaitGroup
			for lc := 0; lc < psi; lc++ {
				wg.Add(1)
				go func(lc int) {
					defer wg.Done()
					rng := stats.NewRNG(seed ^ uint64(lc))
					for i := 0; i < perLC; i++ {
						a := rng.Uint32()
						v, err := r.Lookup(lc, a)
						if err != nil {
							t.Error(err)
							return
						}
						if v.ServedBy != ServedByFallback && !verdictMatches(v, oracle, a) {
							t.Errorf("lookup %s: verdict %+v disagrees with oracle", ip.FormatAddr(a), v)
							return
						}
						served.Add(1)
					}
				}(lc)
			}

			waitFor(t, "traffic to start", func() bool { return served.Load() > 50 })
			if err := r.KillLC(3); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "LC 3 down", func() bool { return r.LCStates()[3] == LCDown })
			wg.Wait()

			delta := r.Metrics().Delta(before)
			traces := r.Traces()
			var retries, deadlines, rehomes int
			for i := range traces {
				tr := &traces[i]
				retries += tr.CountKind(tracing.EvRetry)
				deadlines += tr.CountKind(tracing.EvDeadline)
				rehomes += tr.CountKind(tracing.EvRehome)
				if tr.CountKind(tracing.EvVerdict) != 1 {
					t.Errorf("trace %d finished with %d verdict events", tr.ID, tr.CountKind(tracing.EvVerdict))
				}
			}
			check := func(what string, got int, metric string) {
				if want := int(delta.Sum(metric)); got != want {
					t.Errorf("%s: traces record %d, counters say %d", what, got, want)
				}
			}
			check("retries", retries, MetricRetries)
			check("deadline expiries", deadlines, MetricDeadlineExpired)
			check("re-homed replays", rehomes, MetricReplayed)
		})
	}
}

// TestHealthy exercises the /healthz predicate across the lifecycle.
func TestHealthy(t *testing.T) {
	r, err := New(rtable.Small(500, 3), WithLCs(2),
		WithRequestTimeout(4*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Healthy() {
		t.Error("fresh router not healthy")
	}
	if err := r.KillLC(1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "LC 1 down", func() bool { return r.LCStates()[1] == LCDown })
	if r.Healthy() {
		t.Error("healthy with LC 1 down")
	}
	if err := r.RestoreLC(1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "LC 1 healthy again", func() bool { return r.Healthy() })
	r.Stop()
	if r.Healthy() {
		t.Error("healthy after Stop")
	}
}

// TestTracesNilWhenDisabled pins the disabled surface: no tracer, no
// journal, no panic.
func TestTracesNilWhenDisabled(t *testing.T) {
	r, _ := newTestRouter(t, 2, true)
	if _, err := r.Lookup(0, 42); err != nil {
		t.Fatal(err)
	}
	if got := r.Traces(); got != nil {
		t.Errorf("Traces() on an untraced router = %v, want nil", got)
	}
}

func benchLookup(b *testing.B, opts ...Option) {
	tbl := rtable.Small(2000, 7)
	base := []Option{WithLCs(1), WithDefaultCache(), WithRequestTimeout(time.Second)}
	r, err := New(tbl, append(base, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Stop()
	rng := stats.NewRNG(5)
	addrs := make([]ip.Addr, 256)
	for i := range addrs {
		addrs[i] = rng.Uint32()
		r.Lookup(0, addrs[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Lookup(0, addrs[i%len(addrs)])
	}
}

func BenchmarkLookupTracingOff(b *testing.B) { benchLookup(b) }
func BenchmarkLookupTracingOn(b *testing.B)  { benchLookup(b, WithTraceSampling(1)) }
