package router

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"spal/internal/rtable"
	"spal/internal/stats"
)

// BenchmarkLookupUnderChurn measures client-observed single-lookup
// latency while a background goroutine streams route updates through
// ApplyUpdates at a fixed rate — the BENCH_7 experiment: churn must not
// move the data plane's tail. Reports exact p50/p99 over the timed
// lookups via ReportMetric; run with a fixed -benchtime (e.g. 50000x)
// so the percentile sample size is stable.
func BenchmarkLookupUnderChurn(b *testing.B) {
	for _, rate := range []float64{0, 20, 1000} {
		b.Run(fmt.Sprintf("rate=%v", rate), func(b *testing.B) {
			tbl := rtable.Small(20000, 7)
			r, err := New(tbl, WithLCs(4), WithDefaultCache(), WithEngineName("bintrie"))
			if err != nil {
				b.Fatal(err)
			}
			defer r.Stop()

			stop := make(chan struct{})
			var wg sync.WaitGroup
			if rate > 0 {
				// One stream covering the whole run (120 wall seconds at 5 ns
				// cycles), dispensed by elapsed time so the applied rate
				// matches the nominal one even when a tick carries < 1 event.
				const cycleNS = 5.0
				stream := rtable.GenerateUpdates(tbl, rtable.UpdateStreamConfig{
					RatePerSecond: rate,
					CycleNS:       cycleNS,
					Duration:      int64(120 * 1e9 / cycleNS),
					WithdrawProb:  0.35,
					NewPrefixProb: 0.2,
					Seed:          1,
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

			rng := stats.NewRNG(3)
			// Warm the caches so the benchmark measures steady state, not
			// the cold-start miss storm.
			for i := 0; i < 20000; i++ {
				if _, err := r.Lookup(i%4, tbl.RandomMatchedAddr(rng)); err != nil {
					b.Fatal(err)
				}
			}
			lat := make([]int64, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := tbl.RandomMatchedAddr(rng)
				t0 := time.Now()
				if _, err := r.Lookup(i%4, a); err != nil {
					b.Fatal(err)
				}
				lat[i] = int64(time.Since(t0))
			}
			b.StopTimer()
			close(stop)
			wg.Wait()

			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			b.ReportMetric(float64(lat[len(lat)*50/100]), "p50-ns")
			b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-ns")
			if rate > 0 {
				b.ReportMetric(r.Metrics().Sum(MetricUpdateEvents), "updates")
			}
		})
	}
}

// BenchmarkApplyUpdates is the cost of one Router.ApplyUpdates call with
// nothing else running: ψ = 4 over RT2, default LR-caches warmed and then
// left idle, the next batch-many events of one seeded stream per call
// (wrapping after 32 k events, past which withdraws start to miss). ns/op
// is one call; ns/update divides it by the batch. A dynamic engine's call
// should follow the batch; lulea's rebuilds every LC engine the batch
// touches.
func BenchmarkApplyUpdates(b *testing.B) {
	const cycleNS = 5.0
	tbl := rtable.RT2()
	stream := rtable.GenerateUpdates(tbl, rtable.UpdateStreamConfig{
		RatePerSecond: 1000, CycleNS: cycleNS, Duration: int64(32 * 1e9 / cycleNS),
		WithdrawProb: 0.35, NewPrefixProb: 0.2, Seed: 1,
	})
	for _, engine := range []string{"dptrie", "bintrie", "lulea"} {
		for _, batch := range []int{1, 32, 1000} {
			b.Run(fmt.Sprintf("engine=%s/batch=%d", engine, batch), func(b *testing.B) {
				r, err := New(tbl, WithLCs(4), WithDefaultCache(), WithEngineName(engine))
				if err != nil {
					b.Fatal(err)
				}
				defer r.Stop()
				rng := stats.NewRNG(3)
				for i := 0; i < 4*8192; i++ {
					if _, err := r.Lookup(i%4, tbl.RandomMatchedAddr(rng)); err != nil {
						b.Fatal(err)
					}
				}
				calls := len(stream) / batch
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					off := i % calls * batch
					if err := r.ApplyUpdates(stream[off : off+batch]); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/update")
			})
		}
	}
}
