// Gray-failure chaos tests: a line card that is alive, ticking and
// answering correctly — just slowly — must be detected by the RTT
// scorer, mitigated by outlier ejection, and must never be confused with
// a dead LC (lifecycle). CI's chaos
// job runs this file under -race across the SPAL_CHAOS_SEED matrix.
package router

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spal/internal/fabric"
	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/rtable"
	"spal/internal/stats"
	"spal/internal/tracing"
)

// TestGrayAsymmetricPartition: the 0→1 directed link drops everything
// while 1→0 stays clean — the classic one-way fiber fault. Every lookup
// must still resolve to the oracle verdict (retry → fallback), and because
// the monitor reads each LC's own tick stamp, neither endpoint may be demoted
// out of Healthy. The suspect window is the 50 ms floor, well above Go's
// 10 ms preemption quantum rather than the 2 ms request timeout: the claim is
// about data-plane faults, not about the monitor and the callers never being
// descheduled for a few ms.
func TestGrayAsymmetricPartition(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	oracle := lpm.NewReference(tbl)
	for _, seed := range chaosSeeds(t) {
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			lf := fabric.NewFaults(seed, fabric.LinkConfig{})
			lf.SetLink(0, 1, fabric.LinkConfig{DropRate: 1})
			r, err := New(tbl, WithLCs(4), WithDefaultCache(),
				WithFaultInjector(lf.Decide),
				WithRequestTimeout(2*time.Millisecond), WithMaxRetries(1),
				WithGray())
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()

			var wg sync.WaitGroup
			errs := make(chan string, 64)
			for lc := 0; lc < 4; lc++ {
				wg.Add(1)
				go func(lc int) {
					defer wg.Done()
					rng := stats.NewRNG(seed + uint64(lc)*131)
					for i := 0; i < 400; i++ {
						var a ip.Addr
						if i%3 == 0 {
							a = rng.Uint32()
						} else {
							a = tbl.RandomMatchedAddr(rng)
						}
						v, err := r.Lookup(lc, a)
						if err != nil {
							errs <- err.Error()
							return
						}
						if !verdictMatches(v, oracle, a) {
							errs <- "wrong verdict for " + ip.FormatAddr(a) + " served by " + v.ServedBy.String()
							return
						}
					}
				}(lc)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}

			// The partition must have been survivable without demoting
			// either endpoint: requests 0→1 (and replies 0→1) vanished,
			// but both cards kept ticking.
			for i, st := range r.LCStates() {
				if st != LCHealthy {
					t.Errorf("LC %d left Healthy (%s) under a data-plane-only partition", i, st)
				}
			}
			if r.Metrics().Sum(MetricFallbacks) == 0 {
				t.Error("100% 0→1 drops produced no fallbacks")
			}
		})
	}
}

// TestGrayBrownoutHeadline is the acceptance scenario of the gray-failure
// plane: LC 1 browned out to 10x fabric latency while route churn and
// overload-bounded inboxes run — the detector must flag it within a
// bounded number of ticker cycles, the lifecycle monitor must NOT mark it
// (or anything else) Down, and every non-shed verdict must match a table
// version live during its lookup window.
func TestGrayBrownoutHeadline(t *testing.T) {
	tbl := rtable.Small(1500, 71)
	for _, seed := range chaosSeeds(t) {
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			lf := fabric.NewFaults(seed, fabric.LinkConfig{})
			// Batched round trips include the home's 64-address FE sweep,
			// so the clean baseline is hundreds of microseconds (more
			// under -race); scale the 10x brownout against a matching
			// nominal so the contrast survives the instrumented build,
			// while keeping the browned RTT (~2x nominal x factor plus
			// baseline) under RequestTimeout — a first-attempt reply must
			// beat the deadline retry or it never yields an RTT sample.
			lf.Nominal = 300 * time.Microsecond
			lf.SlowLC(1, 10)
			r, err := New(tbl, WithLCs(4), WithDefaultCache(), WithEngineName("bintrie"),
				WithFaultInjector(lf.Decide),
				WithRequestTimeout(15*time.Millisecond),
				WithOverload(512, ShedDropNewest),
				WithGray())
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()

			oracle := newVersionedOracle(tbl)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var wrong, served, shed atomic.Int64
			var sawDown atomic.Bool

			// Churn: seeded incremental batches, paced — an unpaced
			// ApplyUpdates loop keeps every LC busy swapping
			// (engine rebuilds, two-phase barriers), which under -race
			// inflates every home's RTT uniformly and hides the outlier.
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := stats.NewRNG(seed * 31)
				cur := tbl
				for {
					select {
					case <-stop:
						return
					case <-time.After(2 * time.Millisecond):
					}
					stream := churnStream(cur, rng.Uint64())
					if len(stream) == 0 {
						continue
					}
					next := cur.ApplyAll(stream)
					if next.Len() == 0 {
						continue
					}
					oracle.announce(next)
					if err := r.ApplyUpdates(stream); err != nil {
						return // stopping
					}
					oracle.settle()
					cur = next
				}
			}()

			// Lifecycle watchdog: a brownout must never read as a crash.
			// Only Down counts — Suspect is the monitor's documented
			// transient for a late tick (a -race scheduler stall can fake
			// one) and heals itself at the next; Down requires a crash,
			// which a browned-out LC never is.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, st := range r.LCStates() {
						if st == LCDown {
							sawDown.Store(true)
						}
					}
					time.Sleep(time.Millisecond)
				}
			}()

			// Lookups: the coalesced batch plane at every LC.
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := stats.NewRNG(seed + 1000 + uint64(w)*17)
					addrs := make([]ip.Addr, 64)
					out := make([]Verdict, 64)
					for {
						select {
						case <-stop:
							return
						default:
						}
						for i := range addrs {
							if rng.Intn(4) == 0 {
								addrs[i] = rng.Uint32()
							} else {
								addrs[i] = tbl.RandomMatchedAddr(rng)
							}
						}
						// Pace the load: an unthrottled 4x64 flood saturates
						// the bounded inboxes and queueing delay swamps the
						// fabric RTT *uniformly* — which the ratio scorer
						// correctly refuses to call a gray failure (that is
						// TestGrayGlobalOverloadNoFalsePositive's scenario).
						// This test measures the brownout, so stay below
						// saturation.
						time.Sleep(500 * time.Microsecond)
						lo, _ := oracle.window()
						err := r.LookupBatchInto(context.Background(), w, addrs, out)
						if err == ErrOverloaded {
							shed.Add(int64(len(addrs)))
							continue
						}
						if err != nil {
							return // stopping
						}
						_, hi := oracle.window()
						for i, v := range out {
							if v.ServedBy == ServedByShed {
								shed.Add(1)
								continue
							}
							served.Add(1)
							if !oracle.matches(v, addrs[i], lo, hi) {
								wrong.Add(1)
							}
						}
					}
				}(w)
			}

			// Detection bound: the scorer ticks with the deadline sweep
			// (timeout/4 = 2ms), needs MinSamples per window and
			// DegradeAfter consecutive over-threshold ticks — well under
			// a second of sustained traffic.
			detected := func() bool { return r.Gray().Degrades > 0 }
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) && !detected() {
				time.Sleep(2 * time.Millisecond)
			}
			time.Sleep(100 * time.Millisecond) // let mitigation serve a while
			close(stop)
			wg.Wait()

			if w := wrong.Load(); w != 0 {
				t.Fatalf("%d wrong verdicts among %d served", w, served.Load())
			}
			if served.Load() == 0 {
				t.Fatal("no lookups served")
			}
			g := r.Gray()
			if g.Degrades == 0 {
				for _, l := range g.LCs {
					t.Logf("LC%d degraded=%v samples=%d p50=%v p99=%v",
						l.LC, l.Degraded, l.Samples, l.RTTp50, l.RTTp99)
				}
				t.Fatal("browned-out LC 1 was never flagged degraded")
			}
			if sawDown.Load() {
				t.Error("a browned-out (alive, correct) LC was demoted to Down")
			}
			if g.EjectServed == 0 {
				t.Error("detection fired but no lookup was eject-served")
			}
			t.Logf("served=%d shed=%d degrades=%d ejectServed=%d",
				served.Load(), shed.Load(), g.Degrades, g.EjectServed)
		})
	}
}

// TestGrayEjectTraceReconciliation pins the observability contract: at
// trace rate 1.0 with a journal large enough to hold every lookup, the
// eject events recorded across all journaled traces must equal the
// router's own counter exactly — Counts survive event-array overflow, so
// this holds under retry storms too.
func TestGrayEjectTraceReconciliation(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	oracle := lpm.NewReference(tbl)
	for _, seed := range chaosSeeds(t) {
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			lf := fabric.NewFaults(seed, fabric.LinkConfig{})
			lf.SlowLC(1, 10)
			r, err := New(tbl, WithLCs(4), WithDefaultCache(),
				WithFaultInjector(lf.Decide),
				WithRequestTimeout(8*time.Millisecond),
				WithGray(),
				WithTraceSampling(1), WithTraceJournal(1<<15))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()

			var wg sync.WaitGroup
			for lc := 0; lc < 4; lc++ {
				wg.Add(1)
				go func(lc int) {
					defer wg.Done()
					rng := stats.NewRNG(seed ^ uint64(lc)*977)
					// On past 500 until something is eject-served, short of
					// what the journal holds.
					for i := 0; i < 500 || (r.ejectServed.Load() == 0 && i < 4000); i++ {
						a := tbl.RandomMatchedAddr(rng)
						v, err := r.Lookup(lc, a)
						if err != nil {
							t.Error(err)
							return
						}
						if !verdictMatches(v, oracle, a) {
							t.Errorf("wrong verdict for %s served by %s", ip.FormatAddr(a), v.ServedBy)
							return
						}
					}
				}(lc)
			}
			wg.Wait()

			g := r.Gray()
			var ejects int
			for _, tr := range r.Traces() {
				ejects += tr.CountKind(tracing.EvEject)
			}
			if int64(ejects) != g.EjectServed {
				t.Errorf("traces record %d eject events, counter says %d", ejects, g.EjectServed)
			}
			if g.EjectServed == 0 {
				t.Error("brownout produced no eject-serves; reconciliation is vacuous")
			}
		})
	}
}

// TestGrayGlobalOverloadNoFalsePositive: when EVERY directed link is
// equally slow (a router-wide overload, not a gray failure), the
// ratio-to-fleet-median scorer must abstain — no LC is an outlier, so no
// degrade, no ejection, no steering away from healthy cards.
func TestGrayGlobalOverloadNoFalsePositive(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	seed := chaosSeeds(t)[0]
	lf := fabric.NewFaults(seed, fabric.LinkConfig{})
	for from := 0; from < 4; from++ {
		for to := 0; to < 4; to++ {
			if from != to {
				lf.SetLink(from, to, fabric.LinkConfig{Delay: time.Millisecond})
			}
		}
	}
	r, err := New(tbl, WithLCs(4), WithoutCache(),
		WithFaultInjector(lf.Decide),
		WithRequestTimeout(10*time.Millisecond),
		WithGray())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	var wg sync.WaitGroup
	for lc := 0; lc < 4; lc++ {
		wg.Add(1)
		go func(lc int) {
			defer wg.Done()
			rng := stats.NewRNG(seed + uint64(lc)*11)
			for i := 0; i < 200; i++ {
				if _, err := r.Lookup(lc, tbl.RandomMatchedAddr(rng)); err != nil {
					t.Error(err)
					return
				}
			}
		}(lc)
	}
	wg.Wait()

	g := r.Gray()
	var sampled int64
	for _, l := range g.LCs {
		sampled += l.Samples
	}
	if sampled == 0 {
		t.Fatal("no RTT samples accumulated; test is vacuous")
	}
	if g.Degrades != 0 || g.EjectServed != 0 {
		t.Errorf("uniform slowness flagged degrades=%d, eject-served %d; global overload must not read as a gray failure",
			g.Degrades, g.EjectServed)
	}
}

// TestGrayEjectRestoreLifecycle drives a full brownout round trip:
// degrade (eject) → brownout lifts → recover, with traffic from
// the other LCs keeping LC 1's round-trip rings fresh throughout (a
// recovering card is judged by its peers' samples of it).
func TestGrayEjectRestoreLifecycle(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	oracle := lpm.NewReference(tbl)
	seed := chaosSeeds(t)[0]
	lf := fabric.NewFaults(seed, fabric.LinkConfig{})
	lf.SlowLC(1, 10)
	r, err := New(tbl, WithLCs(4), WithoutCache(),
		WithFaultInjector(lf.Decide),
		WithRequestTimeout(8*time.Millisecond),
		WithGray())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	// traffic drives every LC until the returned stop is called.
	traffic := func() (stop func()) {
		quit := make(chan struct{})
		var wg sync.WaitGroup
		for lc := 0; lc < 4; lc++ {
			wg.Add(1)
			go func(lc int) {
				defer wg.Done()
				rng := stats.NewRNG(seed + uint64(lc)*101)
				for {
					select {
					case <-quit:
						return
					default:
					}
					if _, err := r.Lookup(lc, tbl.RandomMatchedAddr(rng)); err != nil {
						return
					}
				}
			}(lc)
		}
		return func() { close(quit); wg.Wait() }
	}

	stop := traffic()
	waitFor(t, "LC 1 degraded", func() bool { return r.Gray().LCs[1].Degraded })
	stop()

	// Eject-served, by either entry point: a fresh lookup homed on the
	// ejected LC is answered from the fallback at dispatch, once per
	// address, while its request still crosses the fabric. The traffic is
	// stopped so that the counters move for these addresses only.
	homed := remoteAddrs(t, r, tbl, stats.NewRNG(seed+5), 1, 2*8)
	for k, ep := range entryPoints {
		t.Run("eject-served/"+ep.name, func(t *testing.T) {
			addrs := homed[k*8 : (k+1)*8]
			before := r.Gray()
			sent, fallbacks := r.Stats()[0].RequestsSent.Load(), r.Stats()[0].Fallbacks.Load()
			for i, v := range ep.lookup(t, r, 0, addrs) {
				if v.ServedBy != ServedByFallback || !verdictMatches(v, oracle, addrs[i]) {
					t.Errorf("lookup homed on the ejected LC: %+v, want a correct fallback verdict", v)
				}
			}
			if got := r.Gray().EjectServed - before.EjectServed; got != int64(len(addrs)) {
				t.Errorf("eject-served counter moved by %d, want %d", got, len(addrs))
			}
			if got := r.Stats()[0].Fallbacks.Load() - fallbacks; got != int64(len(addrs)) {
				t.Errorf("fallback counter moved by %d, want %d: eject-served lookups are fallbacks", got, len(addrs))
			}
			if r.Stats()[0].RequestsSent.Load() == sent {
				t.Error("no request crossed the fabric; an ejected home must still be sent to")
			}
		})
	}

	lf.SlowLC(1, 1) // brownout lifts
	stop = traffic()
	waitFor(t, "LC 1 recovered", func() bool {
		g := r.Gray()
		return !g.LCs[1].Degraded && g.Recovers > 0
	})
	stop()

	g := r.Gray()
	if g.Degrades == 0 || g.Recovers == 0 {
		t.Errorf("incomplete lifecycle: %+v", g)
	}
	for i, st := range r.LCStates() {
		if st != LCHealthy {
			t.Errorf("LC %d left Healthy (%s) across an eject/restore cycle", i, st)
		}
	}
}

// TestGrayMetricsFamiliesGolden pins the /metrics surface: the family set
// of a default (gray-disabled) router must match the committed golden
// list exactly — proving the gray subsystem adds nothing when off — and a
// gray-enabled router must add exactly the documented new families. Set
// SPAL_UPDATE_GOLDEN=1 to regenerate.
func TestGrayMetricsFamiliesGolden(t *testing.T) {
	families := func(opts ...Option) []string {
		tbl := rtable.Small(500, 3)
		r, err := New(tbl, append([]Option{WithLCs(2), WithDefaultCache()}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Stop()
		if _, err := r.Lookup(0, tbl.RandomMatchedAddr(stats.NewRNG(1))); err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, ln := range strings.Split(r.Metrics().PrometheusText(), "\n") {
			if name, ok := strings.CutPrefix(ln, "# HELP "); ok {
				seen[strings.Fields(name)[0]] = true
			}
		}
		out := make([]string, 0, len(seen))
		for f := range seen {
			out = append(out, f)
		}
		sort.Strings(out)
		return out
	}

	def := families()
	goldenPath := filepath.Join("testdata", "metric_families_default.golden")
	if os.Getenv("SPAL_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(def, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with SPAL_UPDATE_GOLDEN=1)", err)
	}
	if got := strings.Join(def, "\n") + "\n"; got != string(want) {
		t.Errorf("default metric families drifted from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
	for _, f := range def {
		if strings.Contains(f, "rtt") || strings.Contains(f, "eject") || strings.Contains(f, "gray") || strings.Contains(f, "degraded") {
			t.Errorf("gray family %q leaked into the default snapshot", f)
		}
	}

	grayOnly := map[string]bool{}
	for _, f := range families(WithGray()) {
		grayOnly[f] = true
	}
	for _, f := range def {
		delete(grayOnly, f)
	}
	for _, f := range []string{MetricFabricRTTp50, MetricFabricRTTp99, MetricLCDegraded,
		MetricEjectServed, MetricGrayDegrades, MetricGrayRecovers} {
		if !grayOnly[f] {
			t.Errorf("gray-enabled snapshot is missing family %q", f)
		}
		delete(grayOnly, f)
	}
	for f := range grayOnly {
		t.Errorf("gray-enabled snapshot added undocumented family %q", f)
	}
}
