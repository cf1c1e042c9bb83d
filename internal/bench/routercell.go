package bench

import (
	"context"
	"sort"
	"sync"
	"time"

	"spal/internal/ip"
	"spal/internal/router"
	"spal/internal/rtable"
	"spal/internal/stats"
)

// runRouterCell executes one repeat of a router cell and returns its
// metric map. Latency is client-observed wall time per lookup (or per
// batched lookup, normalized per address). A slowdown > 0 injects that
// much sleep into every timed operation — the CI tripwire that proves
// the regression gate actually fires.
func runRouterCell(c *RouterCell, repeat int, slowdown time.Duration) (map[string]float64, error) {
	tbl := rtable.Small(c.TablePrefixes, 7)
	opts := []router.Option{
		router.WithLCs(c.LCs),
		router.WithDefaultCache(),
		router.WithEngineName(c.Engine),
	}
	if c.TimeoutMS > 0 {
		opts = append(opts, router.WithRequestTimeout(time.Duration(c.TimeoutMS*float64(time.Millisecond))))
	}
	if c.SlowLC >= 0 {
		lf := router.NewLinkFaults(c.Seed + uint64(repeat)*17 + 5)
		lf.SlowLC(c.SlowLC, c.SlowFactor)
		opts = append(opts, router.WithFaultInjector(lf.Injector()))
	}
	if c.Hedge {
		opts = append(opts, router.WithGray(router.DefaultGrayPolicy()))
	}
	if c.CorruptRate > 0 {
		opts = append(opts,
			router.WithCorruption(router.CorruptionPolicy{
				Enabled:       true,
				Seed:          c.Seed + uint64(repeat)*131 + 77,
				WrongFillRate: c.CorruptRate,
			}),
			router.WithScrub(router.DefaultScrubPolicy()))
	}
	r, err := router.New(tbl, opts...)
	if err != nil {
		return nil, err
	}
	defer r.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	if c.UpdateRate > 0 {
		// One pre-generated stream covering the whole run, dispensed by
		// elapsed wall time so the applied rate matches the nominal one
		// even when a tick carries < 1 event. Same shape as the
		// BenchmarkLookupUnderChurn churn loop so grid cells and the
		// committed benchmark measure the same thing.
		const cycleNS = 5.0
		stream := rtable.GenerateUpdates(tbl, rtable.UpdateStreamConfig{
			RatePerSecond: c.UpdateRate,
			CycleNS:       cycleNS,
			Duration:      int64(120 * 1e9 / cycleNS),
			WithdrawProb:  0.35,
			NewPrefixProb: 0.2,
			Seed:          c.Seed + uint64(repeat),
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur := tbl
			next := 0
			start := time.Now()
			t := time.NewTicker(10 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
				}
				due := int64(float64(time.Since(start).Nanoseconds()) / cycleNS)
				lo := next
				for next < len(stream) && stream[next].AtCycle <= due {
					next++
				}
				if next == lo {
					continue
				}
				batch := stream[lo:next]
				nt := cur.ApplyAll(batch)
				if nt.Len() == 0 {
					continue
				}
				if r.ApplyUpdates(batch) != nil {
					return
				}
				cur = nt
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	rng := stats.NewRNG(c.Seed + uint64(repeat)*1000003 + 3)
	// Warm the LR-caches so the measurement sees steady state, not the
	// cold-start miss storm.
	for i := 0; i < c.WarmupLookups; i++ {
		if _, err := r.Lookup(i%c.LCs, tbl.RandomMatchedAddr(rng)); err != nil {
			return nil, err
		}
	}

	var lat []int64 // per-operation latency, ns
	opsPerTiming := 1
	if c.Batch > 1 {
		// Batched path: time each LookupBatchInto call and normalize by
		// the batch size. Percentiles are over per-call latencies
		// scaled per address, so tails reflect whole-batch stalls.
		opsPerTiming = c.Batch
		calls := c.Lookups / c.Batch
		if calls < 1 {
			calls = 1
		}
		ctx := context.Background()
		addrs := make([]ip.Addr, c.Batch)
		out := make([]router.Verdict, c.Batch)
		lat = make([]int64, calls)
		for i := 0; i < calls; i++ {
			for j := range addrs {
				addrs[j] = tbl.RandomMatchedAddr(rng)
			}
			t0 := time.Now()
			if slowdown > 0 {
				time.Sleep(slowdown * time.Duration(c.Batch))
			}
			if err := r.LookupBatchInto(ctx, i%c.LCs, addrs, out); err != nil {
				return nil, err
			}
			lat[i] = int64(time.Since(t0)) / int64(c.Batch)
		}
	} else {
		lat = make([]int64, c.Lookups)
		for i := 0; i < c.Lookups; i++ {
			a := tbl.RandomMatchedAddr(rng)
			t0 := time.Now()
			if slowdown > 0 {
				time.Sleep(slowdown)
			}
			if _, err := r.Lookup(i%c.LCs, a); err != nil {
				return nil, err
			}
			lat[i] = int64(time.Since(t0))
		}
	}

	var sum int64
	for _, v := range lat {
		sum += v
	}
	sorted := append([]int64(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	m := map[string]float64{
		"ns_per_op": float64(sum) / float64(len(lat)),
		"p50_ns":    float64(stats.PercentileInt64(sorted, 0.50)),
		"p90_ns":    float64(stats.PercentileInt64(sorted, 0.90)),
		"p99_ns":    float64(stats.PercentileInt64(sorted, 0.99)),
		"max_ns":    float64(sorted[len(sorted)-1]),
		"ops":       float64(len(lat) * opsPerTiming),
	}
	if c.UpdateRate > 0 {
		m["updates_applied"] = r.Metrics().Sum(router.MetricUpdateEvents)
	}
	if c.CorruptRate > 0 {
		m["corruptions_injected"] = r.Metrics().Sum(router.MetricCorruptions)
		m["scrub_repairs"] = r.Metrics().Sum(router.MetricScrubRepairs)
	}
	if c.SlowLC >= 0 || c.Hedge {
		// Gray() is zero-valued when the subsystem is off, so exposure
		// cells (slow set, hedge off) record zeros — the contrast the
		// Brownout experiment exists to show.
		g := r.Gray()
		m["gray_degrades"] = float64(g.Degrades)
		m["hedges"] = float64(g.Hedges)
		m["eject_served"] = float64(g.EjectServed)
	}
	return m, nil
}
