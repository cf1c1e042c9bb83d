// Overload-control tests: admission shedding, block mode, waitlist caps,
// retry budgets, circuit breakers, Stop under full inboxes, and the
// chaos/soak runs CI drives in its chaos and chaos-procs jobs. What a
// router without WithOverload does with the same bounded inbox is covered
// in inbox_test.go.
package router

import (
	"context"
	"runtime"
	"slices"
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

// gateLC wedges an idle LC the way a handler that does not return would,
// until the returned release func is called (or the router stops), so tests
// can fill its bounded queue deterministically. It takes lc.mu: nothing runs
// inline at the LC and nothing leaves its queue, until the hold ends the way
// every ownership does, in leave, which serves what queued meanwhile.
func gateLC(t *testing.T, r *Router, i int) (release func()) {
	t.Helper()
	lc := r.lcs[i]
	lc.mu.Lock()
	gate := make(chan struct{})
	go func() {
		select {
		case <-gate:
		case <-r.quit:
		}
		r.leave(lc, 0)
	}()
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }
}

// withQueueDepth bounds each LC's queue at n with overload control off, so
// a lookup that finds the queue full blocks until space frees: the admission
// of every router without WithOverload, at a depth a test can fill.
func withQueueDepth(n int) Option {
	return func(c *config) { c.QueueDepth = n }
}

// remoteAddrs returns n distinct table-matched addresses whose home LC is
// home but that are submitted elsewhere (arrival != home exercises the
// fabric path).
func remoteAddrs(t *testing.T, r *Router, tbl *rtable.Table, rng *stats.RNG, home, n int) []ip.Addr {
	t.Helper()
	seen := make(map[ip.Addr]bool)
	var out []ip.Addr
	for tries := 0; len(out) < n && tries < 200000; tries++ {
		a := tbl.RandomMatchedAddr(rng)
		if !seen[a] && r.HomeLC(a) == home {
			seen[a] = true
			out = append(out, a)
		}
	}
	if len(out) < n {
		t.Fatalf("could not find %d addresses homed at LC %d", n, home)
	}
	return out
}

// breakerState reads LC lc's breaker toward home: 0 closed, 1 open,
// 2 half-open.
func breakerState(r *Router, lc, home int) int32 {
	return r.lcs[lc].ov.breakers[home].state.Load()
}

// breakerStates reads every one of LC lc's breakers, indexed by home.
func breakerStates(r *Router, lc int) []int32 {
	out := make([]int32, len(r.lcs[lc].ov.breakers))
	for home := range out {
		out[home] = breakerState(r, lc, home)
	}
	return out
}

// entryPoints are the router's two ways in, as a table input for the tests
// of a protection plane: the verdict class and the counters a plane
// produces must not depend on which of them a lookup took. lookup resolves
// addrs at arrival LC lc and returns the verdicts in order; a lookup shed
// after admission reports ServedByShed on either.
var entryPoints = []struct {
	name   string
	lookup func(t *testing.T, r *Router, lc int, addrs []ip.Addr) []Verdict
}{
	{"Lookup", func(t *testing.T, r *Router, lc int, addrs []ip.Addr) []Verdict {
		t.Helper()
		out := make([]Verdict, len(addrs))
		for i, a := range addrs {
			v, err := r.Lookup(lc, a)
			if err == ErrOverloaded {
				v = Verdict{Addr: a, ServedBy: ServedByShed}
			} else if err != nil {
				t.Fatal(err)
			}
			out[i] = v
		}
		return out
	}},
	{"LookupBatchInto", func(t *testing.T, r *Router, lc int, addrs []ip.Addr) []Verdict {
		t.Helper()
		out := make([]Verdict, len(addrs))
		if err := r.LookupBatchInto(context.Background(), lc, addrs, out); err != nil {
			t.Fatal(err)
		}
		return out
	}},
}

// TestOverloadAdmissionShed: with a gated LC and a tiny bounded inbox,
// admission refuses the overflow synchronously with ErrOverloaded, the
// shed is counted by reason, and every admitted lookup still resolves
// correctly once the LC resumes.
func TestOverloadAdmissionShed(t *testing.T) {
	tbl := rtable.Small(500, 3)
	oracle := lpm.NewReference(tbl)
	r, err := New(tbl, WithLCs(1), WithOverload(2))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	release := gateLC(t, r, 0)
	rng := stats.NewRNG(5)
	addrs := []ip.Addr{tbl.RandomMatchedAddr(rng), tbl.RandomMatchedAddr(rng), tbl.RandomMatchedAddr(rng)}
	var chans []<-chan Verdict
	for _, a := range addrs[:2] {
		ch, err := lookupAsync(r, 0, a)
		if err != nil {
			t.Fatalf("admission refused with inbox space free: %v", err)
		}
		chans = append(chans, ch)
	}
	if _, err := lookupAsync(r, 0, addrs[2]); err != ErrOverloaded {
		t.Fatalf("full inbox: got err %v, want ErrOverloaded", err)
	}
	if _, err := r.Lookup(0, addrs[2]); err != ErrOverloaded {
		t.Fatalf("Lookup on full inbox: got err %v, want ErrOverloaded", err)
	}
	release()
	for i, ch := range chans {
		if v := <-ch; !verdictMatches(v, oracle, addrs[i]) {
			t.Fatalf("admitted lookup %d resolved wrong verdict %+v", i, v)
		}
	}
	s := r.Metrics()
	if got, ok := s.Value(MetricShed, metrics.L("lc", "0"), metrics.L("reason", "inbox_full")); !ok || got != 2 {
		t.Fatalf("inbox_full shed counter = %v (present=%v), want 2", got, ok)
	}
}

// TestOverloadBlockMode: without overload control, admission to a full
// bounded queue parks the caller instead of shedding, and the lookup
// completes once inbox space frees.
func TestOverloadBlockMode(t *testing.T) {
	tbl := rtable.Small(500, 3)
	oracle := lpm.NewReference(tbl)
	r, err := New(tbl, WithLCs(1), withQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	release := gateLC(t, r, 0)
	rng := stats.NewRNG(9)
	first, second := tbl.RandomMatchedAddr(rng), tbl.RandomMatchedAddr(rng)
	if _, err := lookupAsync(r, 0, first); err != nil {
		t.Fatal(err)
	}
	got := make(chan Verdict, 1)
	go func() {
		v, err := r.Lookup(0, second)
		if err != nil {
			t.Errorf("blocked lookup failed: %v", err)
		}
		got <- v
	}()
	select {
	case <-got:
		t.Fatal("blocking lookup completed while the inbox was full")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	select {
	case v := <-got:
		if !verdictMatches(v, oracle, second) {
			t.Fatalf("blocked lookup resolved wrong verdict %+v", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked lookup never completed after release")
	}
	if s := r.Metrics(); s.Sum(MetricShed) != 0 {
		t.Fatalf("block mode shed %v lookups, want 0", s.Sum(MetricShed))
	}
}

// TestReplayNotShedOnFullQueue: a lookup replayed after a crash is served
// even when overload control is on and the adopted slot's queue is full. The
// replay runs on the health monitor under Router.mu, which must not wait for
// space, so it runs the handler itself, ahead of the queue, as it does
// without overload control; it never answers ServedByShed.
func TestReplayNotShedOnFullQueue(t *testing.T) {
	tbl := rtable.Small(500, 3)
	oracle := lpm.NewReference(tbl)
	// The hour keeps the monitor out: the adoption below is the test's own call.
	r, err := New(tbl, WithLCs(1), WithOverload(2), WithRequestTimeout(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.KillLC(0); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(17)
	var queued []<-chan Verdict
	for i := 0; i < cap(r.inboxes[0]); i++ { // arrivals buffer at a killed slot
		ch, err := lookupAsync(r, 0, tbl.RandomMatchedAddr(rng))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, ch)
	}
	if n := len(r.inboxes[0]); n != cap(r.inboxes[0]) {
		t.Fatalf("killed LC's queue holds %d, want it full (%d)", n, cap(r.inboxes[0]))
	}

	addr := tbl.RandomMatchedAddr(rng)
	w := localWaiter{bd: getBatchDesc(1, r.now())}
	r.mu.Lock() // as the monitor holds it: no adoption meanwhile
	r.replaySend(0, addr, w)
	r.mu.Unlock()
	if err := r.wait(context.Background(), w.bd); err != nil {
		t.Fatal(err)
	}
	if v := w.bd.out[0]; v.ServedBy == ServedByShed || !verdictMatches(v, oracle, addr) {
		t.Fatalf("replayed lookup answered %+v, want it served with the oracle's verdict", v)
	}
	putBatchDesc(w.bd)

	r.healthCheck(r.now()) // adopt the slot: its leave serves the queue
	for i, ch := range queued {
		select {
		case v := <-ch:
			if v.ServedBy == ServedByShed || !verdictMatches(v, oracle, v.Addr) {
				t.Errorf("buffered lookup %d answered %+v after adoption, want the oracle's verdict", i, v)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("buffered lookup %d never answered after adoption", i)
		}
	}
	if s := r.Metrics(); s.Sum(MetricShed) != 0 {
		t.Fatalf("shed %v messages or lookups, want 0", s.Sum(MetricShed))
	}
}

// TestWaitlistOverflowSheds: a single-address storm over a dead fabric
// may coalesce only up to waitlistCap waiters; the overflow sheds with
// ServedByShed/ErrOverloaded and the waitlist-overflow counter
// reconciles exactly with the shed verdicts. The storm is n lookups in
// flight at once: n lookupAsync calls, or one batch of n. The request
// timeout outlasts the storm's submission, so all of it meets one
// in-flight request.
func TestWaitlistOverflowSheds(t *testing.T) {
	tbl := rtable.Small(500, 3)
	oracle := lpm.NewReference(tbl)
	const cap, n = waitlistCap, 2 * waitlistCap
	async := func(t *testing.T, r *Router, lc int, addrs []ip.Addr) []Verdict {
		chans := make([]<-chan Verdict, len(addrs))
		for i, a := range addrs {
			ch, err := lookupAsync(r, lc, a)
			if err != nil {
				t.Fatal(err)
			}
			chans[i] = ch
		}
		out := make([]Verdict, len(addrs))
		for i, ch := range chans {
			select {
			case out[i] = <-ch:
			case <-time.After(5 * time.Second):
				t.Fatal("lookup never terminated")
			}
		}
		return out
	}
	for _, ep := range []struct {
		name   string
		lookup func(*testing.T, *Router, int, []ip.Addr) []Verdict
	}{{"LookupAsync", async}, entryPoints[1]} {
		t.Run(ep.name, func(t *testing.T) {
			drop := func(m fabric.Message) fabric.Decision { return fabric.Decision{Drop: true} }
			r, err := New(tbl, WithLCs(2), WithFaultInjector(drop),
				WithRequestTimeout(100*time.Millisecond), WithMaxRetries(-1),
				WithOverload(0))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()

			addr := remoteAddrs(t, r, tbl, stats.NewRNG(11), 1, 1)[0]
			storm := make([]ip.Addr, n)
			for i := range storm {
				storm[i] = addr
			}
			var shed, served int
			for _, v := range ep.lookup(t, r, 0, storm) {
				if v.ServedBy == ServedByShed {
					shed++
					continue
				}
				served++
				if !verdictMatches(v, oracle, addr) {
					t.Fatalf("admitted lookup resolved wrong verdict %+v", v)
				}
			}
			if shed == 0 || served == 0 {
				t.Fatalf("shed=%d served=%d, want both nonzero (cap %d, %d submitted)", shed, served, cap, n)
			}
			if served > cap {
				t.Fatalf("%d lookups were parked on one address, cap is %d", served, cap)
			}
			s := r.Metrics()
			if got := s.Sum(MetricWaitlistOverflow); got != float64(shed) {
				t.Fatalf("waitlist overflow counter = %v, want %d (the shed verdicts)", got, shed)
			}
		})
	}
}

// TestStopWithFullInboxes is the Stop-vs-full-inbox regression: with the
// inbox at capacity and callers blocked in admission (a one-slot queue, or
// the default depth), Stop must return promptly and every pending caller
// must get a terminal verdict or error.
func TestStopWithFullInboxes(t *testing.T) {
	for name, opts := range map[string][]Option{
		"block-mode": {withQueueDepth(1)},
		"policy-off": nil,
	} {
		t.Run(name, func(t *testing.T) {
			tbl := rtable.Small(500, 3)
			r, err := New(tbl, append([]Option{WithLCs(1)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			gateLC(t, r, 0) // never released: quit lets go of it
			rng := stats.NewRNG(13)
			for i := 0; i < cap(r.inboxes[0]); i++ {
				if _, err := lookupAsync(r, 0, tbl.RandomMatchedAddr(rng)); err != nil {
					t.Fatal(err)
				}
			}
			const callers = 8
			errs := make([]error, callers)
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = r.Lookup(0, tbl.RandomMatchedAddr(stats.NewRNG(uint64(i))))
				}(i)
			}
			time.Sleep(20 * time.Millisecond) // let the callers reach admission

			done := make(chan struct{})
			go func() { r.Stop(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Stop did not return promptly with full inboxes")
			}
			wg.Wait()
			for i, err := range errs {
				if err != ErrStopped && err != ErrOverloaded {
					t.Fatalf("caller %d: got (%v), want ErrStopped or ErrOverloaded", i, err)
				}
			}
		})
	}
}

// TestRetryBudgetExhaustion: with every fabric request dropped and no
// successful replies to refill the bucket, retries stop once the seeded
// burst is spent and subsequent deadline expiries degrade straight to
// the fallback. Four addresses on each of three remote homes want twelve
// retries before any home's breaker sees breakerThreshold expiries (a
// batch's first expiries, four a home; or one address at a time, four
// retries and the opening expiry a home): the retryBudgetBurst tokens run
// out first, and the breakers take the rest.
func TestRetryBudgetExhaustion(t *testing.T) {
	tbl := rtable.Small(500, 3)
	oracle := lpm.NewReference(tbl)
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			drop := func(m fabric.Message) fabric.Decision { return fabric.Decision{Drop: m.Kind == fabric.Request} }
			r, err := New(tbl, WithLCs(4), WithFaultInjector(drop),
				WithRequestTimeout(2*time.Millisecond), WithMaxRetries(100),
				WithOverload(0))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()

			rng := stats.NewRNG(17)
			var addrs []ip.Addr
			for home := 1; home < 4; home++ {
				addrs = append(addrs, remoteAddrs(t, r, tbl, rng, home, 4)...)
			}
			for i, v := range ep.lookup(t, r, 0, addrs) {
				if v.ServedBy != ServedByFallback || !verdictMatches(v, oracle, addrs[i]) {
					t.Fatalf("dead-fabric lookup: got %+v, want correct fallback verdict", v)
				}
			}
			s := r.Metrics()
			lbl := metrics.L("lc", "0")
			if got, _ := s.Value(MetricBudgetExhausted, lbl); got < float64(len(addrs)-retryBudgetBurst) {
				t.Fatalf("budget exhausted counter = %v, want >= %d", got, len(addrs)-retryBudgetBurst)
			}
			if got, _ := s.Value(MetricRetryBudget, lbl); got >= 1 {
				t.Fatalf("retry budget gauge = %v, want < 1 after exhaustion with no refills", got)
			}
			if got, _ := s.Value(MetricRetries, lbl); got != retryBudgetBurst {
				t.Fatalf("retries = %v, want exactly the burst of %d", got, retryBudgetBurst)
			}
		})
	}
}

// TestBreakerOpensAndRecovers drives the full breaker state machine:
// breakerThreshold consecutive deadline expiries open it, an open breaker
// short-circuits dispatches to the fallback without touching the fabric,
// the ticker arms a half-open probe after the cooldown, and a successful
// probe closes the circuit again.
func TestBreakerOpensAndRecovers(t *testing.T) {
	tbl := rtable.Small(500, 3)
	oracle := lpm.NewReference(tbl)
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			var failing atomic.Bool
			failing.Store(true)
			inj := func(m fabric.Message) fabric.Decision {
				return fabric.Decision{Drop: failing.Load() && m.Kind == fabric.Request && m.Dst == 1}
			}
			r, err := New(tbl, WithLCs(2), WithFaultInjector(inj),
				WithRequestTimeout(2*time.Millisecond), WithMaxRetries(-1),
				WithTraceSampling(0),
				WithOverload(0))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()

			addrs := remoteAddrs(t, r, tbl, stats.NewRNG(23), 1, breakerThreshold+5)
			// breakerThreshold deadline expiries in a row open the breaker
			// toward LC 1.
			for _, a := range addrs[:breakerThreshold] {
				if v, err := r.Lookup(0, a); err != nil || v.ServedBy != ServedByFallback {
					t.Fatalf("dead-fabric lookup: v=%+v err=%v, want fallback", v, err)
				}
			}
			if st := breakerState(r, 0, 1); st != breakerOpen {
				t.Fatalf("breaker state after %d failures = %d, want open", breakerThreshold, st)
			}
			// While open, a dispatch homed at LC 1 short-circuits: fallback
			// verdict without the deadline wait, counted and traced — each
			// address of a batch like each single lookup.
			shorted := addrs[breakerThreshold : breakerThreshold+4]
			start := time.Now()
			for i, v := range ep.lookup(t, r, 0, shorted) {
				if v.ServedBy != ServedByFallback || !verdictMatches(v, oracle, shorted[i]) {
					t.Fatalf("short-circuit lookup: v=%+v", v)
				}
			}
			if d := time.Since(start); d > 50*time.Millisecond {
				t.Fatalf("short-circuit took %v, should not wait out a deadline", d)
			}
			s := r.Metrics()
			lbl := metrics.L("lc", "0")
			if got, _ := s.Value(MetricBreakerShorts, lbl); got < 1 {
				t.Fatalf("breaker short-circuit counter = %v, want >= 1", got)
			}
			if got, _ := s.Value(MetricBreakerState, lbl, metrics.L("home", "1")); got != float64(breakerOpen) {
				t.Fatalf("breaker state gauge = %v, want open", got)
			}
			if got, _ := s.Value(MetricBreakerOpens, lbl); got < 1 {
				t.Fatalf("breaker opens counter = %v, want >= 1", got)
			}
			var shorts int
			for _, tr := range r.Traces() {
				shorts += tr.CountKind(tracing.EvBreaker)
			}
			if want, _ := s.Value(MetricBreakerShorts, lbl); float64(shorts) != want {
				t.Fatalf("EvBreaker trace events = %d, counter = %v, want equal", shorts, want)
			}

			// Heal the fabric; the cooldown elapses, the ticker arms a half-open
			// probe, and the next lookup's reply closes the breaker.
			failing.Store(false)
			waitFor(t, "breaker half-open", func() bool { return breakerState(r, 0, 1) == breakerHalfOpen })
			probe := addrs[breakerThreshold+4]
			if v := ep.lookup(t, r, 0, []ip.Addr{probe})[0]; v.ServedBy != ServedByRemote || !verdictMatches(v, oracle, probe) {
				t.Fatalf("probe lookup: v=%+v, want correct remote verdict", v)
			}
			if st := breakerState(r, 0, 1); st != breakerClosed {
				t.Fatalf("breaker state after successful probe = %d, want closed", st)
			}
			if got, _ := r.Metrics().Value(MetricBreakerCloses, lbl); got < 1 {
				t.Fatalf("breaker closes counter = %v, want >= 1", got)
			}
		})
	}
}

// TestChaosOverloadKillLC is the satellite chaos scenario: sustained
// overload aimed at one home LC, a lossy fabric, and a mid-run KillLC of
// that same home. Every admitted lookup must resolve to the reference
// verdict, shed+served must reconcile exactly with attempts, and the
// breaker bookkeeping (counters, state gauge, trace events) must agree
// with itself.
func TestChaosOverloadKillLC(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	oracle := lpm.NewReference(tbl)
	for _, seed := range chaosSeeds(t) {
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			r, err := New(tbl, WithLCs(4),
				WithFaultInjector(fabric.NewFaults(seed, fabric.LinkConfig{DropRate: 0.05}).Decide),
				WithRequestTimeout(2*time.Millisecond), WithMaxRetries(2),
				WithTraceSampling(0), WithTraceJournal(1<<15),
				WithOverload(64))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()

			const workers, perWorker = 4, 1200
			var attempts, shed, served atomic.Int64
			var wg sync.WaitGroup
			errs := make(chan string, 64)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := stats.NewRNG(seed + uint64(w)*211)
					for i := 0; i < perWorker; i++ {
						if w == 0 && i == perWorker/3 {
							if err := r.KillLC(1); err != nil {
								errs <- "KillLC: " + err.Error()
								return
							}
						}
						a := tbl.RandomMatchedAddr(rng)
						attempts.Add(1)
						v, err := r.Lookup(w, a)
						switch {
						case err == ErrOverloaded:
							shed.Add(1)
						case err != nil:
							errs <- err.Error()
							return
						case !verdictMatches(v, oracle, a):
							errs <- "wrong verdict for " + ip.FormatAddr(a) + " served by " + v.ServedBy.String()
							return
						default:
							served.Add(1)
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}
			if got := shed.Load() + served.Load(); got != attempts.Load() {
				t.Fatalf("shed(%d)+served(%d) = %d, want attempts %d", shed.Load(), served.Load(), got, attempts.Load())
			}

			// The ticker keeps arming half-open probes after the load stops,
			// so a breaker can move between reading its gauge and reading
			// its state: take the snapshot between two equal state reads.
			var s *metrics.Snapshot
			var states [4][]int32
			for try, stable := 0, false; !stable && try < 50; try++ {
				for lc := range states {
					states[lc] = breakerStates(r, lc)
				}
				s = r.Metrics()
				stable = true
				for lc := range states {
					stable = stable && slices.Equal(states[lc], breakerStates(r, lc))
				}
			}
			// Breaker reconciliation: every short-circuit left one
			// EvBreaker trace event (sampling rate 0, but breaker traces
			// are always captured late), the state gauge mirrors the
			// breakers' states, and transition counters are consistent with
			// the states the router ended in.
			var evBreaker int
			for _, tr := range r.Traces() {
				evBreaker += tr.CountKind(tracing.EvBreaker)
			}
			if shorts := s.Sum(MetricBreakerShorts); float64(evBreaker) != shorts {
				t.Fatalf("EvBreaker trace events = %d, short-circuit counter = %v, want equal", evBreaker, shorts)
			}
			for lc := 0; lc < 4; lc++ {
				lbl := metrics.L("lc", strconv.Itoa(lc))
				nonClosed := 0.0
				for home, st := range states[lc] {
					if home == lc {
						continue
					}
					if g, ok := s.Value(MetricBreakerState, lbl, metrics.L("home", strconv.Itoa(home))); !ok || g != float64(st) {
						t.Fatalf("lc %d home %d: gauge %v != state %d", lc, home, g, st)
					}
					if st != breakerClosed {
						nonClosed++
					}
				}
				opens, _ := s.Value(MetricBreakerOpens, lbl)
				closes, _ := s.Value(MetricBreakerCloses, lbl)
				if opens < closes+nonClosed {
					t.Fatalf("lc %d: opens %v < closes %v + non-closed %v", lc, opens, closes, nonClosed)
				}
			}
			if s.Sum(MetricRetries)+s.Sum(MetricFallbacks) == 0 {
				t.Error("lossy overloaded run produced neither retries nor fallbacks")
			}
		})
	}
}

// slowEngine throttles an inner engine so a test can offer more load
// than an LC can serve.
type slowEngine struct {
	lpm.Engine
	d time.Duration
}

func (s slowEngine) Lookup(a ip.Addr) (rtable.NextHop, int, bool) {
	time.Sleep(s.d)
	return s.Engine.Lookup(a)
}

// TestOverloadSoak is the overload soak CI runs under -race (job test) and
// at GOMAXPROCS 1, 2 and 8 (job chaos-procs): roughly 2× offered
// load against slowed-down engines for a sustained window. Queues are
// bounded, so heap usage must stay flat while a nonzero, steady shed
// rate absorbs the excess; every served verdict must still be correct.
func TestOverloadSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	tbl := rtable.Small(2000, 7)
	oracle := lpm.NewReference(tbl)
	slow := func(t *rtable.Table) lpm.Engine {
		return slowEngine{Engine: lpm.NewReferenceEngine(t), d: 20 * time.Microsecond}
	}
	r, err := New(tbl, WithLCs(2), WithEngine(slow),
		WithOverload(128))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	// Open-loop drive: per LC, two feeders submit lookups as fast as
	// admission allows while a collector each verifies verdicts behind
	// them, so the offered rate is decoupled from the service rate and the
	// bounded queue is the actual bottleneck. Two, because one cannot
	// overload its own LC: a submitter that finds a backlog and the lock
	// free is the LC, and serves the backlog before it submits again —
	// backpressure, not shedding.
	const dur = 1500 * time.Millisecond
	type inflight struct {
		addr ip.Addr
		ch   <-chan Verdict
	}
	var attempts, shed [2]atomic.Int64
	var wrong atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for feeder := 0; feeder < 4; feeder++ {
		lc := feeder % 2
		queue := make(chan inflight, 4096)
		wg.Add(2)
		go func(lc int, queue chan<- inflight) {
			defer wg.Done()
			defer close(queue)
			rng := stats.NewRNG(uint64(feeder) * 77)
			for {
				select {
				case <-stop:
					return
				default:
				}
				a := tbl.RandomMatchedAddr(rng)
				attempts[lc].Add(1)
				ch, err := lookupAsync(r, lc, a)
				if err == ErrOverloaded {
					shed[lc].Add(1)
					continue
				}
				if err != nil {
					return
				}
				queue <- inflight{addr: a, ch: ch}
			}
		}(lc, queue)
		go func(queue <-chan inflight) {
			defer wg.Done()
			for f := range queue {
				if v := <-f.ch; v.ServedBy != ServedByShed && !verdictMatches(v, oracle, f.addr) {
					wrong.Add(1) // keep draining: the feeder blocks on a full queue
				}
			}
		}(queue)
	}
	time.Sleep(dur / 3)
	mid := heap()
	time.Sleep(dur - dur/3)
	close(stop)
	wg.Wait()
	end := heap()

	if wrong.Load() != 0 {
		t.Fatalf("%d incorrect verdicts among admitted lookups", wrong.Load())
	}
	totalShed := shed[0].Load() + shed[1].Load()
	totalAttempts := attempts[0].Load() + attempts[1].Load()
	if totalShed == 0 {
		t.Fatalf("2x offered load produced no admission sheds (%d attempts)", totalAttempts)
	}
	if end > mid && end-mid > 16<<20 {
		t.Fatalf("heap grew %d bytes across the soak window; bounded queues should keep it flat", end-mid)
	}
	s := r.Metrics()
	if got := s.Sum(MetricShed); got < float64(totalShed) {
		t.Fatalf("shed counter %v < observed ErrOverloaded count %d", got, totalShed)
	}
	t.Logf("soak: %d attempts, %d shed (%.1f%%), heap mid=%dKB end=%dKB",
		totalAttempts, totalShed, 100*float64(totalShed)/float64(totalAttempts), mid>>10, end>>10)
}
