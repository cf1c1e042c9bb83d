// Lifecycle tests: LC health monitoring, crash re-homing, admin drain,
// and the Stop/UpdateTable interleaving contract. The ChaosKillLC tests are
// part of CI's chaos seed matrix (they honor SPAL_CHAOS_SEED).
package router

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spal/internal/cache"
	"spal/internal/fabric"
	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/metrics"
	"spal/internal/rtable"
	"spal/internal/stats"
)

// TestChaosKillLCUnderFaults is the lifecycle acceptance check: a line
// card is crashed mid-traffic while a seeded injector drops 10% of fabric
// messages. Every lookup — submitted before, during
// and after the crash, at every LC including the dead one — must still
// return the reference-LPM verdict; none may be lost. Afterwards the
// partition must be re-homed onto the survivors.
func TestChaosKillLCUnderFaults(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	oracle := lpm.NewReference(tbl)
	for _, seed := range chaosSeeds(t) {
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			r, err := New(tbl, WithLCs(4), WithDefaultCache(),
				WithFaultInjector(fabric.NewFaults(seed, fabric.LinkConfig{DropRate: 0.10}).Decide),
				WithRequestTimeout(2*time.Millisecond), WithMaxRetries(2))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()

			var wg sync.WaitGroup
			var served atomic.Int64
			errs := make(chan string, 64)
			const perLC = 400
			for lc := 0; lc < 4; lc++ {
				wg.Add(1)
				go func(lc int) {
					defer wg.Done()
					rng := stats.NewRNG(seed + uint64(lc)*101)
					for i := 0; i < perLC; i++ {
						var a ip.Addr
						if i%3 == 0 {
							a = rng.Uint32() // may be unmatched
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
						served.Add(1)
					}
				}(lc)
			}

			// Crash LC 2 once traffic is rolling.
			waitFor(t, "traffic to start", func() bool { return served.Load() > 50 })
			if err := r.KillLC(2); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "LC 2 to be declared down", func() bool {
				return r.LCStates()[2] == LCDown
			})

			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}
			if got := served.Load(); got != 4*perLC {
				t.Fatalf("served %d lookups, want %d (none may be lost)", got, 4*perLC)
			}

			// Re-homed: no address may be homed on the dead LC, and every
			// home must still answer with the oracle verdict.
			rng := stats.NewRNG(seed ^ 0xdead)
			for i := 0; i < 300; i++ {
				a := rng.Uint32()
				if home := r.HomeLC(a); home == 2 {
					t.Fatalf("HomeLC(%s) = 2 after its death", ip.FormatAddr(a))
				}
			}
			s := r.Metrics()
			if s.Sum(MetricRehomes) < 1 {
				t.Error("no re-homing recorded after an LC death")
			}
			checkDrained(t, r)
		})
	}
}

// TestKillLCRehomeProperty is the re-homing correctness property on a
// clean fabric: after an LC dies, every address is homed on a survivor
// and its lookup verdict (asked at every LC, the dead shell included)
// still equals the full-table oracle.
func TestKillLCRehomeProperty(t *testing.T) {
	tbl := rtable.Small(2000, 19)
	oracle := lpm.NewReference(tbl)
	r, err := New(tbl, WithLCs(4),
		WithRequestTimeout(4*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	if err := r.KillLC(1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "LC 1 down", func() bool { return r.LCStates()[1] == LCDown })

	rng := stats.NewRNG(31)
	for i := 0; i < 250; i++ {
		var a ip.Addr
		if i%2 == 0 {
			a = tbl.RandomMatchedAddr(rng)
		} else {
			a = rng.Uint32()
		}
		if home := r.HomeLC(a); home == 1 {
			t.Fatalf("HomeLC(%s) = 1, the dead LC", ip.FormatAddr(a))
		}
		v, err := r.Lookup(i%4, a) // i%4 == 1 exercises the reborn shell
		if err != nil {
			t.Fatal(err)
		}
		if !verdictMatches(v, oracle, a) {
			t.Fatalf("verdict for %s at LC %d wrong after re-homing", ip.FormatAddr(a), i%4)
		}
	}

	// RestoreLC brings the slot back into the partitioning.
	if err := r.RestoreLC(1); err != nil {
		t.Fatal(err)
	}
	if st := r.LCStates()[1]; st != LCHealthy {
		t.Fatalf("restored LC state = %s, want healthy", st)
	}
	foundHome := false
	for i := 0; i < 2000 && !foundHome; i++ {
		foundHome = r.HomeLC(rng.Uint32()) == 1
	}
	if !foundHome {
		t.Error("restored LC owns no pattern")
	}
	for i := 0; i < 100; i++ {
		a := tbl.RandomMatchedAddr(rng)
		v, err := r.Lookup(i%4, a)
		if err != nil {
			t.Fatal(err)
		}
		if !verdictMatches(v, oracle, a) {
			t.Fatalf("verdict for %s wrong after restore", ip.FormatAddr(a))
		}
	}
}

// TestDrainLCGraceful drains a loaded LC mid-traffic: the drain must
// complete, no lookup may expire its retry budget (zero
// deadline_expired), every verdict stays correct, and RestoreLC returns
// the LC to service.
func TestDrainLCGraceful(t *testing.T) {
	tbl := rtable.Small(2000, 23)
	oracle := lpm.NewReference(tbl)
	// A generous timeout: any deadline expiry during the drain would be a
	// dropped-lookup bug, not fabric loss.
	r, err := New(tbl, WithLCs(4), WithDefaultCache(), WithRequestTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	var wg sync.WaitGroup
	var served atomic.Int64
	errs := make(chan string, 64)
	for lc := 0; lc < 4; lc++ {
		wg.Add(1)
		go func(lc int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(lc)*7 + 3)
			for i := 0; i < 300; i++ {
				a := tbl.RandomMatchedAddr(rng)
				v, err := r.Lookup(lc, a)
				if err != nil {
					errs <- err.Error()
					return
				}
				if !verdictMatches(v, oracle, a) {
					errs <- "wrong verdict for " + ip.FormatAddr(a)
					return
				}
				served.Add(1)
			}
		}(lc)
	}

	waitFor(t, "traffic to start", func() bool { return served.Load() > 50 })
	if err := r.DrainLC(1); err != nil {
		t.Fatal(err)
	}
	if st := r.LCStates()[1]; st != LCDraining {
		t.Fatalf("state after drain = %s, want draining", st)
	}
	if _, err := r.Lookup(1, tbl.RandomMatchedAddr(stats.NewRNG(9))); err != nil {
		t.Fatalf("drained LC must keep serving arrival traffic: %v", err)
	}
	rng := stats.NewRNG(13)
	for i := 0; i < 300; i++ {
		if r.HomeLC(rng.Uint32()) == 1 {
			t.Fatal("drained LC still owns part of the partition")
		}
	}

	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	s := r.Metrics()
	if got := s.Sum(MetricDeadlineExpired); got != 0 {
		t.Errorf("deadline expiries during a clean drain = %v, want 0", got)
	}
	if got := s.Sum(MetricDrains); got != 1 {
		t.Errorf("drains = %v, want 1", got)
	}
	if h, ok := s.HistValue(MetricDrainDuration); !ok || h.Count != 1 {
		t.Errorf("drain duration histogram count = %+v (ok=%v), want 1", h, ok)
	}

	if err := r.RestoreLC(1); err != nil {
		t.Fatal(err)
	}
	if st := r.LCStates()[1]; st != LCHealthy {
		t.Fatalf("state after restore = %s, want healthy", st)
	}
}

// TestLifecycleAdminErrors pins the admin API's error contract.
func TestLifecycleAdminErrors(t *testing.T) {
	tbl := rtable.Small(500, 3)
	r, err := New(tbl, WithLCs(2), WithRequestTimeout(4*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	if err := r.KillLC(7); err == nil {
		t.Error("KillLC out of range must fail")
	}
	if err := r.DrainLC(-1); err == nil {
		t.Error("DrainLC out of range must fail")
	}
	if err := r.RestoreLC(0); err == nil {
		t.Error("RestoreLC of a healthy LC must fail")
	}
	if err := r.DrainLC(0); err != nil {
		t.Fatal(err)
	}
	if err := r.DrainLC(0); err == nil {
		t.Error("double drain must fail")
	}
	if err := r.DrainLC(1); err == nil {
		t.Error("draining the last active LC must fail")
	}
	if err := r.RestoreLC(0); err != nil {
		t.Fatal(err)
	}

	if err := r.KillLC(1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "LC 1 down", func() bool { return r.LCStates()[1] == LCDown })
	if err := r.KillLC(1); err == nil {
		t.Error("killing a down LC must fail")
	}
	if err := r.DrainLC(1); err == nil {
		t.Error("draining a down LC must fail")
	}
}

// TestWedgedLCSuspectsButNeverDowns: an LC whose lock is held past the
// suspect window — a wedged handler, as the "home's lock held" row of
// TestBatchDirectPreconditions holds it — goes Suspect and no further,
// because Down requires a crash. A lookup at the other LC still answers
// meanwhile, and once the lock goes the wedged LC heals.
func TestWedgedLCSuspectsButNeverDowns(t *testing.T) {
	tbl := rtable.Small(500, 5)
	oracle := lpm.NewReference(tbl)
	r, err := New(tbl, WithLCs(2), WithRequestTimeout(4*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	addr := remoteAddrs(t, r, tbl, stats.NewRNG(1), 0, 1)[0]

	h := r.lcs[0]
	h.mu.Lock() // ended as every ownership is (leave), below
	waitFor(t, "LC 0 suspect", func() bool { return r.LCStates()[0] == LCSuspect })
	// Wedged for twice the window more, still only Suspect: the lookup homed
	// on it answers (from the fallback) and nothing is re-homed.
	time.Sleep(2 * r.suspectAfter)
	if v, err := r.Lookup(1, addr); err != nil || !verdictMatches(v, oracle, addr) {
		t.Fatalf("lookup at LC 1 while LC 0 is wedged: %+v, %v", v, err)
	}
	if st := r.LCStates(); st[0] != LCSuspect || st[1] != LCHealthy {
		t.Fatalf("states %v while LC 0 is wedged, want [suspect healthy]", st)
	}
	if n := r.rehomes.Load(); n != 0 {
		t.Fatalf("%d re-homes of a wedged LC: a stale tick alone must never declare it down", n)
	}

	r.leave(h, 0)
	waitFor(t, "LC 0 healed", func() bool { return r.LCStates()[0] == LCHealthy })
	s := r.Metrics()
	if s.Sum(MetricSuspects) < 1 {
		t.Errorf("suspect transitions = %v, want >= 1", s.Sum(MetricSuspects))
	}
	if s.Sum(MetricRehomes) != 0 {
		t.Errorf("rehomes = %v, want 0", s.Sum(MetricRehomes))
	}
}

// TestHealthCheckClock: the monitor ages tick stamps on the clock they were
// stamped with, Router.now, and no other. The hour-long timeout keeps the
// monitor's own ticker out; its period is run by hand against an injected
// clock, and the suspect window is set by hand far below the real time the
// test lets pass. With that clock frozen nothing has aged, so no LC leaves
// Healthy (stamped on one clock and aged on the wall's, all would go Suspect
// — as they would for good after a wall-clock step). A killed LC is re-homed
// at the very next check, the clock still frozen; with it then advanced an
// hour the live LCs, the restored one included, are ticked by the sweep
// before they are judged, and stay Healthy.
func TestHealthCheckClock(t *testing.T) {
	r, err := New(rtable.Small(500, 5), WithLCs(3), WithRequestTimeout(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	r.suspectAfter = 2 * time.Millisecond
	// The frozen clock starts at the reading New stamped every LC's first
	// tick with: a reading taken here instead would already be a stamp's age
	// later, more than the window when a busy host takes the CPU away.
	frozen := r.lcs[0].lastTick.Load()
	var ahead int64
	r.clock = func() int64 { return frozen + ahead }
	period := func(want ...LCState) {
		t.Helper()
		r.sweep()
		r.healthCheck(r.now())
		for i, st := range r.LCStates() {
			if st != want[i] {
				t.Fatalf("LC %d is %s, want %s; states %v", i, st, want[i], r.LCStates())
			}
		}
	}
	time.Sleep(3 * r.suspectAfter)
	period(LCHealthy, LCHealthy, LCHealthy)
	if n := r.suspects.Load(); n != 0 {
		t.Errorf("%d Healthy→Suspect demotions with the router's clock standing still", n)
	}

	crash(t, r, 1)
	period(LCHealthy, LCDown, LCHealthy)
	if err := r.RestoreLC(1); err != nil {
		t.Fatal(err)
	}
	ahead = int64(time.Hour)
	period(LCHealthy, LCHealthy, LCHealthy)
	if n := r.suspects.Load(); n != 0 {
		t.Errorf("%d Healthy→Suspect demotions, want none: every live LC is ticked before it is judged", n)
	}
}

// TestStopUpdateTableInterleaving is the shutdown-contract regression
// test: UpdateTable racing Stop must always return nil or ErrStopped —
// never a partial swap, never a deadlock. The whole test runs under a
// watchdog so a deadlock fails fast instead of hanging the suite.
func TestStopUpdateTableInterleaving(t *testing.T) {
	t1 := rtable.Small(800, 7)
	t2 := rtable.Small(800, 8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for iter := 0; iter < 30; iter++ {
			r, err := New(t1, WithLCs(4), WithDefaultCache())
			if err != nil {
				t.Error(err)
				return
			}
			var wg sync.WaitGroup
			for u := 0; u < 3; u++ {
				wg.Add(1)
				go func(u int) {
					defer wg.Done()
					for i := 0; ; i++ {
						next := t2
						if (i+u)%2 == 1 {
							next = t1
						}
						if err := r.UpdateTable(next); err != nil {
							if !errors.Is(err, ErrStopped) {
								t.Errorf("UpdateTable returned %v, want nil or ErrStopped", err)
							}
							return
						}
					}
				}(u)
			}
			// Let the updaters get going, then tear down under them.
			time.Sleep(time.Duration(iter%3) * 100 * time.Microsecond)
			r.Stop()
			wg.Wait()
			// Post-Stop calls observe a stopped router immediately.
			if err := r.UpdateTable(t2); !errors.Is(err, ErrStopped) {
				t.Errorf("UpdateTable after Stop = %v, want ErrStopped", err)
			}
			if _, err := r.Lookup(0, 1); !errors.Is(err, ErrStopped) {
				t.Errorf("Lookup after Stop = %v, want ErrStopped", err)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Stop/UpdateTable interleaving deadlocked")
	}
}

// TestLookupBatchCtxOrdering pins the documented guarantee: out[i] is the
// verdict for addrs[i], duplicates included, regardless of internal
// completion order.
func TestLookupBatchCtxOrdering(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	oracle := lpm.NewReference(tbl)
	r, err := New(tbl, WithLCs(4), WithDefaultCache())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	rng := stats.NewRNG(77)
	addrs := make([]ip.Addr, 0, 120)
	for i := 0; i < 100; i++ {
		addrs = append(addrs, tbl.RandomMatchedAddr(rng))
	}
	for i := 0; i < 20; i++ { // duplicates exercise coalescing
		addrs = append(addrs, addrs[rng.Intn(50)])
	}
	out, err := r.LookupBatchCtx(context.Background(), 1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(addrs) {
		t.Fatalf("got %d verdicts for %d addrs", len(out), len(addrs))
	}
	for i, v := range out {
		if v.Addr != addrs[i] {
			t.Fatalf("out[%d].Addr = %s, want %s (positional guarantee)",
				i, ip.FormatAddr(v.Addr), ip.FormatAddr(addrs[i]))
		}
		if !verdictMatches(v, oracle, addrs[i]) {
			t.Fatalf("out[%d] wrong for %s", i, ip.FormatAddr(addrs[i]))
		}
	}
}

// TestLookupBatchCtxCancel: a cancelled context aborts the wait with
// ctx.Err() while the in-flight lookups drain harmlessly inside the
// router.
func TestLookupBatchCtxCancel(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	r, err := New(tbl, WithLCs(2), WithRequestTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	// A batch aimed at a stalled home LC cannot complete until released.
	defer gateLC(t, r, 1)()

	rng := stats.NewRNG(5)
	var addrs []ip.Addr
	for len(addrs) < 8 {
		if a := tbl.RandomMatchedAddr(rng); r.HomeLC(a) == 1 {
			addrs = append(addrs, a)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := r.LookupBatchCtx(ctx, 0, addrs)
		got <- err
	}()
	cancel()
	select {
	case err := <-got:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled batch did not return")
	}

	// Pre-cancelled context: fail before submitting anything.
	if _, err := r.LookupBatchCtx(ctx, 0, addrs); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled batch returned %v, want context.Canceled", err)
	}
}

// TestWaitersGauge: parked lookups are visible in spal_router_waiters and
// the gauge returns to zero once they resolve.
func TestWaitersGauge(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	r, err := New(tbl, WithLCs(2), WithRequestTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	release := gateLC(t, r, 1)

	rng := stats.NewRNG(41)
	var addrs []ip.Addr
	for len(addrs) < 6 {
		if a := tbl.RandomMatchedAddr(rng); r.HomeLC(a) == 1 {
			addrs = append(addrs, a)
		}
	}
	var chans []<-chan Verdict
	for _, a := range addrs {
		ch, err := lookupAsync(r, 0, a)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	waitFor(t, "waiters to park", func() bool {
		return r.lcs[0].waiters.Load() == int64(len(addrs))
	})
	release()
	for _, ch := range chans {
		<-ch
	}
	waitFor(t, "waiters to clear", func() bool {
		w0, w1 := r.lcs[0].waiters.Load(), r.lcs[1].waiters.Load()
		return w0 == 0 && w1 == 0
	})
}

// crash kills LC i: a corpse, until the monitor adopts it.
func crash(t *testing.T, r *Router, i int) {
	t.Helper()
	if err := r.KillLC(i); err != nil {
		t.Fatal(err)
	}
}

// TestControlSkipsDeadSlot: a control action aimed at a slot between its
// crash and its adoption is skipped on the spot — never buffered for the
// revived slot to apply on top of what the adoption installs, and
// never waited for. UpdateTable and ApplyUpdates both return while the slot
// is still a corpse, and once it is adopted it serves the table as it is by
// then, both changes in it. The hour-long timeout keeps the monitor's ticker
// out: the test runs the check that adopts the slot itself.
func TestControlSkipsDeadSlot(t *testing.T) {
	t1 := rtable.Small(1500, 7)
	t2 := rtable.Small(1500, 8)
	o1, o2 := lpm.NewReference(t1), lpm.NewReference(t2)
	r, err := New(t1, WithLCs(2), WithDefaultCache(), WithRequestTimeout(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	// An address t2 routes, and neither t1 nor t2 the way the batch will.
	const dead = 1
	var addr ip.Addr
	var changed rtable.Route
	for rng := stats.NewRNG(31); ; {
		addr = t2.RandomMatchedAddr(rng)
		changed, _ = t2.LongestMatch(addr)
		changed.NextHop++
		if nh1, _, ok1 := o1.Lookup(addr); !ok1 || nh1 != changed.NextHop {
			break
		}
	}
	if v, err := r.Lookup(dead, addr); err != nil || !verdictMatches(v, o1, addr) {
		t.Fatalf("lookup before the crash: %+v, %v", v, err)
	}

	crash(t, r, dead)
	if err := r.UpdateTable(t2); err != nil {
		t.Fatalf("UpdateTable with a dead slot: %v", err)
	}
	batch := []rtable.Update{{Kind: rtable.Announce, Route: changed}}
	if err := r.ApplyUpdates(batch); err != nil {
		t.Fatalf("ApplyUpdates with a dead slot: %v", err)
	}
	if r.lcs[dead].live.Load() || r.LCStates()[dead] == LCDown {
		t.Fatal("the slot was adopted before the control calls returned: they were meant to find it dead")
	}

	r.healthCheck(r.now())
	if r.LCStates()[dead] != LCDown || !r.lcs[dead].live.Load() {
		t.Fatalf("LC %d is %s, live %v after the check: want it adopted", dead, r.LCStates()[dead], r.lcs[dead].live.Load())
	}
	cur := lpm.NewReference(t2.ApplyAll(batch))
	for lc := 0; lc < 2; lc++ {
		v, err := r.Lookup(lc, addr)
		if err != nil || !verdictMatches(v, cur, addr) || verdictMatches(v, o2, addr) {
			t.Errorf("lookup at LC %d after the adoption: %+v (served by %s), %v; want the current table's next hop %d",
				lc, v, v.ServedBy, err, changed.NextHop)
		}
	}
}

// TestMetricsWhileLCDead: a scrape takes each LC's lock, which a dead LC's
// goroutine is not needed for — Metrics returns at once with an LC crashed
// and not yet declared Down (which is when an operator scrapes), the corpse's
// cache counters in it. The hour-long timeout keeps the monitor's ticker,
// and so the adoption, out.
func TestMetricsWhileLCDead(t *testing.T) {
	r, err := New(rtable.Small(1500, 7), WithLCs(2), WithDefaultCache(), WithRequestTimeout(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	crash(t, r, 1)

	start := time.Now()
	s := r.Metrics()
	if took := time.Since(start); took >= time.Second {
		t.Errorf("Metrics took %v with an LC dead, want well under a second", took)
	}
	if st, ok := s.Value(MetricLCState, metrics.L("lc", "1")); !ok || LCState(st) == LCDown {
		t.Errorf("%s{lc=1} = %v (present %v) at the scrape, want the slot dead and not yet Down", MetricLCState, st, ok)
	}
	if _, ok := s.Value(cache.MetricProbes, metrics.L("lc", "1")); !ok {
		t.Errorf("%s{lc=1} missing: a corpse's cache is readable under its lock", cache.MetricProbes)
	}
}
