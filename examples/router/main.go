// Router example: run the concurrent SPAL forwarding
// plane, drive it with a locality-bearing workload from every line card,
// and show how results migrate from FE executions to cache hits — then
// apply a routing-table update and keep forwarding.
package main

import (
	"fmt"
	"log"
	"sync"

	"spal"
	"spal/internal/rtable"
	"spal/internal/stats"
	"spal/internal/trace"
)

func main() {
	table := spal.SynthesizeTable(30000, 7)
	const numLCs = 8

	r, err := spal.NewRouter(table, spal.WithLCs(numLCs), spal.WithDefaultRouterCache())
	if err != nil {
		log.Fatal(err)
	}
	defer r.Stop()
	fmt.Printf("router up: %d LCs, control bits %v\n", r.NumLCs(), r.PartitionBits())

	// One traffic goroutine per LC, sharing a Zipf destination pool so hot
	// destinations appear everywhere (what the LR-caches exploit).
	cfg := trace.Config{PoolSize: 4000, ZipfS: 1.1, MeanTrain: 4, Seed: 3}
	pool := trace.NewPool(table, cfg)
	var wg sync.WaitGroup
	const perLC = 20000
	for lc := 0; lc < numLCs; lc++ {
		wg.Add(1)
		go func(lc int) {
			defer wg.Done()
			src := trace.NewSynthetic(pool, cfg, uint64(lc))
			for i := 0; i < perLC; i++ {
				addr, _ := src.Next()
				if _, err := r.Lookup(lc, addr); err != nil {
					log.Printf("LC %d: %v", lc, err)
					return
				}
			}
		}(lc)
	}
	wg.Wait()

	var lookups, hits, fe, req int64
	for _, s := range r.Stats() {
		lookups += s.Lookups.Load()
		hits += s.CacheHits.Load()
		fe += s.FEExecs.Load()
		req += s.RequestsSent.Load()
	}
	fmt.Printf("forwarded %d packets: %.1f%% cache hits, %d FE executions, %d fabric requests\n",
		lookups, 100*float64(hits)/float64(lookups), fe, req)

	// A BGP update arrives: swap the table in-place; caches flush, the
	// plane keeps running.
	updated := table.Apply(rtable.Update{
		Kind:  rtable.Announce,
		Route: rtable.Route{Prefix: mustPrefix("10.0.0.0/8"), NextHop: 9},
	})
	if err := r.UpdateTable(updated); err != nil {
		log.Fatal(err)
	}
	v, err := r.Lookup(0, mustAddr("10.1.2.3"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after update: 10.1.2.3 -> next hop %d (served by %s)\n", v.NextHop, v.ServedBy)

	// Throughput spot check: replay a hot address everywhere.
	rng := stats.NewRNG(5)
	hot := table.Routes()[rng.Intn(table.Len())].Prefix.FirstAddr()
	for lc := 0; lc < numLCs; lc++ {
		v, _ := r.Lookup(lc, hot)
		fmt.Printf("LC %d: hot address -> nh %d via %s\n", lc, v.NextHop, v.ServedBy)
	}
}

func mustPrefix(s string) spal.Prefix {
	p, err := spal.ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

func mustAddr(s string) spal.Addr {
	a, err := spal.ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}
