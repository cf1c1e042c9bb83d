// Command spal-router runs the concurrent SPAL
// forwarding plane and drives it with destination addresses — from a
// trace file, from a synthetic generator, or interactively from stdin —
// printing verdicts and per-LC statistics.
//
// With -metrics ADDR it also serves Prometheus text on /metrics, a
// lifecycle-aware liveness probe on /healthz (503 while any LC is Down
// or Draining), the completed-trace journal on /debug/spal/traces, and
// the standard pprof profiles under /debug/pprof/ while the router runs,
// and stays up after a batch drive finishes (Ctrl-C to exit) so the
// endpoints can be scraped.
//
// Examples:
//
//	spal-router -psi 8 -n 100000              # synthetic load, print stats
//	spal-router -trace d75.trace              # replay a stored trace
//	echo 10.1.2.3 | spal-router -i            # interactive lookups
//	spal-router -metrics :9090 -n 1000000     # drive load, then serve /metrics
//	spal-router -batch 64 -n 1000000          # batched submission, coalesced fabric messages
//	spal-router -engine stride24              # the 24/8 table: one or two reads a lookup
//	spal-router -fault-rate 0.1 -n 100000     # chaos mode: drop 10% of fabric messages
//	spal-router -kill-lc 2 -n 500000          # crash LC 2 mid-drive, watch the re-homing
//	spal-router -drain-after 50ms -n 500000   # drain LC 0 mid-drive, restore after
//	spal-router -trace-rate 0.01 -n 100000 -trace-dump 3  # sample 1% of lookups, dump the last 3 traces
//	spal-router -trace-rate 1 -fault-rate 0.1 -trace-log -n 10000  # full tracing + JSON log per lookup
//	spal-router -overload-depth 256 -n 1000000  # bounded inboxes, shed on overflow
//	spal-router -churn-rate 1000 -n 1000000   # absorb 1000 route updates/s while forwarding
//	spal-router -slow-lc 1 -slow-factor 20 -n 1000000  # brown out LC 1, watch detection and ejection
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spal"
	"spal/internal/cache"
	"spal/internal/fabric"
	"spal/internal/ip"
	"spal/internal/metrics"
	"spal/internal/router"
	"spal/internal/rtable"
	"spal/internal/sim"
	"spal/internal/trace"
	"spal/internal/tracing"
)

func main() {
	psi := flag.Int("psi", 8, "number of line cards")
	tableN := flag.Int("table", 41709, "synthetic routing table size")
	beta := flag.Int("beta", 4096, "LR-cache blocks")
	gamma := flag.Int("gamma", 50, "mix value %")
	n := flag.Int("n", 100000, "packets for synthetic load")
	preset := flag.String("preset", "D_75", "synthetic trace preset")
	tracePath := flag.String("trace", "", "replay a trace file instead of synthetic load")
	interactive := flag.Bool("i", false, "read addresses from stdin, print verdicts")
	noCache := flag.Bool("no-cache", false, "disable LR-caches")
	engineName := flag.String("engine", "lulea", "matching engine: "+strings.Join(spal.EngineNames(), "|"))
	batchSize := flag.Int("batch", 0, "drive load through the batched data plane in batches of this size (0 = per-address lookups)")
	metricsAddr := flag.String("metrics", "", "serve /metrics and /healthz on this address (e.g. :9090)")
	faultRate := flag.Float64("fault-rate", 0, "drop this fraction of fabric messages (chaos mode, 0..1)")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for the deterministic fault injector")
	timeout := flag.Duration("timeout", 0, "per-attempt fabric request deadline (0 = default 50ms)")
	retries := flag.Int("retries", 0, "fabric request retries before falling back (0 = default 3, negative = none)")
	killLC := flag.Int("kill-lc", -1, "crash this line card shortly into the drive (lifecycle demo)")
	drainAfter := flag.Duration("drain-after", 0, "drain LC 0 this long into the drive, restore when it ends")
	traceRate := flag.Float64("trace-rate", -1, "per-lookup trace sampling rate 0..1 (negative = tracing off)")
	traceDump := flag.Int("trace-dump", 0, "print the last N completed traces after the drive (implies tracing)")
	traceLog := flag.Bool("trace-log", false, "emit one structured log line per finished trace (implies tracing)")
	overloadDepth := flag.Int("overload-depth", 0, "enable overload control with each LC inbox bounded to this many messages, shedding on overflow (0 = no policy: inboxes hold 1024 and callers wait for space)")
	churnRate := flag.Float64("churn-rate", 0, "stream BGP-style route updates at this rate (events/s) through ApplyUpdates while driving load (0 = off)")
	processMetrics := flag.Bool("process-metrics", false, "also export Go process gauges (goroutines, heap bytes, GC pause) on /metrics")
	slowLC := flag.Int("slow-lc", -1, "brown out this line card: its fabric links run at 1/slow-factor speed while its own ticks keep it Healthy (gray-failure demo; enables detection+ejection)")
	slowFactor := flag.Float64("slow-factor", 10, "brownout severity for -slow-lc: fabric links at 1/factor of clean speed")
	flag.Parse()

	tbl := rtable.Synthesize(rtable.SynthConfig{N: *tableN, NextHops: 16, NestProb: 0.35, Seed: 0x5e3d_0001})
	opts := []router.Option{
		router.WithLCs(*psi),
		router.WithEngineName(*engineName),
		router.WithCache(cache.Config{Blocks: *beta, Assoc: 4, VictimBlocks: 8, MixPercent: *gamma, Policy: cache.LRU}),
	}
	if *noCache {
		opts = append(opts, router.WithoutCache())
	}
	if *slowLC >= 0 {
		if *slowLC >= *psi {
			fmt.Fprintf(os.Stderr, "-slow-lc %d outside [0,%d)\n", *slowLC, *psi)
			os.Exit(2)
		}
		if *slowFactor <= 1 {
			fmt.Fprintln(os.Stderr, "-slow-factor must be > 1")
			os.Exit(2)
		}
	}
	if *faultRate > 0 || *slowLC >= 0 {
		// One fault model: the drop rate on every link, the brownout on top.
		faults := fabric.NewFaults(*faultSeed, fabric.LinkConfig{DropRate: *faultRate})
		if *slowLC >= 0 {
			faults.SlowLC(*slowLC, *slowFactor)
			opts = append(opts, router.WithGray())
		}
		opts = append(opts, router.WithFaultInjector(faults.Decide))
	}
	if *timeout != 0 {
		opts = append(opts, router.WithRequestTimeout(*timeout))
	}
	if *retries != 0 {
		opts = append(opts, router.WithMaxRetries(*retries))
	}
	if *traceRate >= 0 || *traceDump > 0 || *traceLog {
		rate := *traceRate
		if rate < 0 {
			rate = 0 // dump/log without -trace-rate: interesting lookups only
		}
		opts = append(opts, router.WithTraceSampling(rate))
	}
	if *traceLog {
		opts = append(opts, router.WithLogger(slog.New(slog.NewJSONHandler(os.Stderr, nil))))
	}
	if *overloadDepth > 0 {
		opts = append(opts, router.WithOverload(*overloadDepth))
	}
	r, err := router.New(tbl, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer r.Stop()
	fmt.Printf("router up: psi=%d, table=%d prefixes, control bits %v, engine=%s\n",
		*psi, tbl.Len(), r.PartitionBits(), *engineName)

	if *metricsAddr != "" {
		if err := serveMetrics(*metricsAddr, r, *processMetrics); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *churnRate > 0 {
		churnStop := make(chan struct{})
		go runChurn(r, tbl, *churnRate, churnStop)
		defer func() {
			close(churnStop)
			s := r.Metrics()
			fmt.Printf("route churn: %.0f batches / %.0f events applied, %.0f stale replies guarded, %.0f range invalidations\n",
				s.Sum(router.MetricUpdateBatches), s.Sum(router.MetricUpdateEvents),
				s.Sum(router.MetricStaleGen), s.Sum(cache.MetricRangeInv))
		}()
	}

	switch {
	case *interactive:
		runInteractive(r)
	case *tracePath != "":
		f, err := os.Open(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fs, err := trace.Read(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		addrs := trace.Slice(fs, fs.Len())
		drive(r, *psi, addrs, *batchSize, *killLC, *drainAfter)
	default:
		tc := trace.PresetConfig(trace.Preset(*preset))
		pool := trace.NewPool(tbl, tc)
		addrs := trace.Slice(trace.NewSynthetic(pool, tc, 0), *n)
		drive(r, *psi, addrs, *batchSize, *killLC, *drainAfter)
	}

	if *slowLC >= 0 {
		g := r.Gray()
		fmt.Printf("gray failures: %d degrades / %d recoveries; %d eject-served\n",
			g.Degrades, g.Recovers, g.EjectServed)
		for _, l := range g.LCs {
			if l.Degraded || l.Samples > 0 {
				fmt.Printf("  LC%-2d degraded=%v rtt-samples=%d p50=%v p99=%v\n",
					l.LC, l.Degraded, l.Samples, l.RTTp50, l.RTTp99)
			}
		}
	}

	if *traceDump > 0 {
		ts := r.Traces()
		if len(ts) > *traceDump {
			ts = ts[len(ts)-*traceDump:]
		}
		fmt.Printf("last %d of %d journaled traces:\n", len(ts), len(r.Traces()))
		tracing.WriteJSON(os.Stdout, ts)
	}

	if *metricsAddr != "" && !*interactive {
		fmt.Printf("serving /metrics and /healthz on %s — Ctrl-C to exit\n", *metricsAddr)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
	}
}

// serveMetrics starts the observability endpoint in the background,
// failing fast when the address cannot be bound. /healthz reflects the
// lifecycle state machine (503 while any LC is Down or Draining),
// /debug/spal/traces serves the completed-trace journal, and the
// standard pprof profiles hang under /debug/pprof/. withProcess opts the
// scrape into the Go process gauges; the default snapshot stays exactly
// the router's own metric families.
func serveMetrics(addr string, r *router.Router, withProcess bool) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	src := r.Metrics
	if withProcess {
		src = metrics.WithProcess(src)
	}
	mux := metrics.NewMux(src, r.Healthy)
	mux.Handle("/debug/spal/traces", tracing.Handler(r.Traces))
	metrics.RegisterPprof(mux)
	go http.Serve(ln, mux)
	return nil
}

// drive spreads the addresses across LCs round-robin with one goroutine
// per LC and reports aggregate throughput and per-LC counters. batch > 0
// submits through the coalesced batch plane in batches of that size
// instead of per-address Lookup calls. killLC >= 0 crashes that LC
// shortly into the drive; drainAfter > 0 drains LC 0 mid-drive and
// restores it once the drive ends — both exercise the lifecycle
// subsystem under real load.
func drive(r *router.Router, psi int, addrs []ip.Addr, batch, killLC int, drainAfter time.Duration) {
	if killLC >= 0 {
		time.AfterFunc(10*time.Millisecond, func() {
			if err := r.KillLC(killLC); err != nil {
				fmt.Fprintln(os.Stderr, "kill-lc:", err)
				return
			}
			fmt.Printf("crashed LC %d mid-drive\n", killLC)
		})
	}
	var drained chan error
	if drainAfter > 0 {
		drained = make(chan error, 1)
		time.AfterFunc(drainAfter, func() {
			fmt.Println("draining LC 0 mid-drive")
			t0 := time.Now()
			err := r.DrainLC(0)
			if err == nil {
				fmt.Printf("drained LC 0 in %v\n", time.Since(t0))
			}
			drained <- err
		})
	}
	before := r.Metrics()
	start := time.Now()
	var shed atomic.Int64
	var wg sync.WaitGroup
	for lc := 0; lc < psi; lc++ {
		wg.Add(1)
		go func(lc int) {
			defer wg.Done()
			if batch > 0 {
				buf := make([]ip.Addr, 0, batch)
				out := make([]router.Verdict, batch)
				ctx := context.Background()
				flush := func() bool {
					if len(buf) == 0 {
						return true
					}
					err := r.LookupBatchInto(ctx, lc, buf, out)
					if errors.Is(err, router.ErrOverloaded) {
						// Admission sheds whole batches; count every address.
						shed.Add(int64(len(buf)))
					} else if err != nil {
						fmt.Fprintln(os.Stderr, err)
						return false
					}
					buf = buf[:0]
					return true
				}
				for i := lc; i < len(addrs); i += psi {
					if buf = append(buf, addrs[i]); len(buf) == batch {
						if !flush() {
							return
						}
					}
				}
				flush()
				return
			}
			for i := lc; i < len(addrs); i += psi {
				if _, err := r.Lookup(lc, addrs[i]); err != nil {
					// Under overload control ErrOverloaded is the
					// expected per-lookup outcome, not a drive failure.
					if errors.Is(err, router.ErrOverloaded) {
						shed.Add(1)
						continue
					}
					fmt.Fprintln(os.Stderr, err)
					return
				}
			}
		}(lc)
	}
	wg.Wait()
	elapsed := time.Since(start)
	served := int64(len(addrs)) - shed.Load()
	fmt.Printf("forwarded %d packets in %.2fs (%s software)\n",
		len(addrs), elapsed.Seconds(), formatRate(float64(len(addrs))/elapsed.Seconds()))
	if shed.Load() > 0 {
		fmt.Printf("overload: shed %d of %d lookups (%.2f%%), goodput %s\n",
			shed.Load(), len(addrs), 100*float64(shed.Load())/float64(len(addrs)),
			formatRate(float64(served)/elapsed.Seconds()))
	}
	fmt.Printf("%-4s %10s %10s %8s %9s %9s %10s %12s\n",
		"LC", "lookups", "hits", "FE", "reqSent", "repSent", "coalesced", "p95 cache")
	delta := r.Metrics().Delta(before)
	for lc := 0; lc < r.NumLCs(); lc++ {
		lbl := metrics.L("lc", fmt.Sprint(lc))
		lookups, _ := delta.Value(router.MetricLookups, lbl)
		hits, _ := delta.Value(router.MetricCacheHits, lbl)
		fe, _ := delta.Value(router.MetricFEExecs, lbl)
		req, _ := delta.Value(router.MetricFabricRequests, lbl)
		rep, _ := delta.Value(router.MetricFabricReplies, lbl)
		coal, _ := delta.Value(router.MetricCoalesced, lbl)
		var p95 time.Duration
		if h, ok := delta.HistValue(router.MetricLatency, lbl, metrics.L("served_by", "cache")); ok {
			p95 = time.Duration(h.Quantile(0.95))
		}
		fmt.Printf("%-4d %10.0f %10.0f %8.0f %9.0f %9.0f %10.0f %12v\n",
			lc, lookups, hits, fe, req, rep, coal, p95)
	}
	// Robustness summary: only interesting when something actually went
	// wrong on the fabric (chaos mode or a genuinely slow peer).
	retries := delta.Sum(router.MetricRetries)
	fallbacks := delta.Sum(router.MetricFallbacks)
	expired := delta.Sum(router.MetricDeadlineExpired)
	forwarded := delta.Sum(router.MetricForwarded)
	if retries+fallbacks+expired+forwarded > 0 {
		fmt.Printf("fabric faults survived: %.0f retries, %.0f deadline expiries, %.0f fallback verdicts, %.0f forwarded requests\n",
			retries, expired, fallbacks, forwarded)
	}
	sheds := delta.Sum(router.MetricShed)
	streakServed := delta.Sum(router.MetricStreakServed)
	exhausted := delta.Sum(router.MetricBudgetExhausted)
	if sheds+streakServed+exhausted > 0 {
		fmt.Printf("overload control: %.0f sheds, %.0f streak-served fallbacks, %.0f budget-exhausted retries\n",
			sheds, streakServed, exhausted)
	}

	// Lifecycle summary: admin drain completion, crash re-homings, and the
	// final per-LC states when anything left Healthy.
	if drained != nil {
		if err := <-drained; err != nil {
			fmt.Fprintln(os.Stderr, "drain:", err)
		} else if err := r.RestoreLC(0); err != nil {
			fmt.Fprintln(os.Stderr, "restore:", err)
		} else {
			fmt.Println("restored LC 0")
		}
	}
	after := r.Metrics()
	rehomes := after.Sum(router.MetricRehomes)
	replayed := after.Sum(router.MetricReplayed)
	if rehomes > 0 {
		fmt.Printf("lifecycle: %.0f partition re-homings, %.0f parked lookups replayed\n", rehomes, replayed)
	}
	states := r.LCStates()
	allHealthy := true
	for _, s := range states {
		allHealthy = allHealthy && s == router.LCHealthy
	}
	if !allHealthy {
		parts := make([]string, len(states))
		for i, s := range states {
			parts[i] = fmt.Sprintf("%d=%s", i, s)
		}
		fmt.Printf("lc states: %s\n", strings.Join(parts, " "))
	}
}

// formatRate prints a packet rate in the unit that keeps its leading
// digits: a chaos run's few thousand lookups a second reads in kpps, not
// as 0.00 Mpps.
func formatRate(perSecond float64) string {
	switch {
	case perSecond >= 1e6:
		return fmt.Sprintf("%.2f Mpps", perSecond/1e6)
	case perSecond >= 1e3:
		return fmt.Sprintf("%.2f kpps", perSecond/1e3)
	default:
		return fmt.Sprintf("%.0f pps", perSecond)
	}
}

// runChurn streams seeded BGP-style route updates into the live router
// at approximately rate events per second, applying one incremental
// batch (router.ApplyUpdates: no barrier, targeted cache invalidation)
// per 50 ms tick until stop closes.
func runChurn(r *router.Router, tbl *rtable.Table, rate float64, stop <-chan struct{}) {
	const tick = 50 * time.Millisecond
	cur := tbl
	seed := uint64(0xc1124)
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		batch := rtable.GenerateUpdates(cur, rtable.UpdateStreamConfig{
			RatePerSecond: rate,
			CycleNS:       sim.CycleNS,
			Duration:      int64(tick.Seconds() * 1e9 / sim.CycleNS),
			WithdrawProb:  0.3,
			NewPrefixProb: 0.2,
			Seed:          seed,
		})
		seed++
		if len(batch) == 0 {
			continue
		}
		next := cur.ApplyAll(batch)
		if next.Len() == 0 {
			continue
		}
		if err := r.ApplyUpdates(batch); err != nil {
			return // router stopping
		}
		cur = next
	}
}

// runInteractive reads one address per line and prints the verdict.
func runInteractive(r *router.Router) {
	sc := bufio.NewScanner(os.Stdin)
	lc := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		a, err := ip.ParseAddr(line)
		if err != nil {
			fmt.Printf("%s: %v\n", line, err)
			continue
		}
		v, err := r.Lookup(lc, a)
		if err != nil {
			fmt.Println(err)
			return
		}
		if v.OK {
			fmt.Printf("%s -> next hop %d (home LC %d, served by %s)\n",
				line, v.NextHop, r.HomeLC(a), v.ServedBy)
		} else {
			fmt.Printf("%s -> no route\n", line)
		}
		lc = (lc + 1) % r.NumLCs()
	}
}
