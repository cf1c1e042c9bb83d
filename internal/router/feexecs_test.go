package router

import (
	"context"
	"sync"
	"testing"

	"spal/internal/cache"
	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/rtable"
	"spal/internal/stats"
)

// TestFEExecsBounded checks that a lookup never multiplies into several
// forwarding-engine executions: on a ψ = 4 router with LR-caches, no faults
// and no updates, three concurrent callers mixing LookupBatchInto and
// Lookup over more distinct addresses than the caches hold run the engines
// at most once per arrival miss, plus once per re-sent request. A home's
// cache hit and a coalesced miss only lower the count; a miss replayed,
// re-driven or served twice raises it past the bound.
func TestFEExecsBounded(t *testing.T) {
	const (
		lcs     = 4
		callers = 3
		batch   = 64
	)
	tbl := rtable.Small(2000, 29)
	pool := distinctAddrs(tbl, stats.NewRNG(29), 5*lcs*cache.DefaultConfig().Blocks/4)
	r, err := New(tbl, WithLCs(lcs), WithDefaultCache(), WithEngineName("lulea"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	oracle := lpm.NewReference(tbl)

	var wg sync.WaitGroup
	errs := make(chan string, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]Verdict, batch)
			// Each caller starts a third of the way further into the pool, so
			// the three overlap on some addresses and not on others.
			for k := 0; k*batch < len(pool); k++ {
				lo := (k*batch + g*len(pool)/callers) % len(pool)
				addrs := pool[lo:min(lo+batch, len(pool))]
				lc := (k + g) % lcs
				if k%callers == g { // every third chunk one address a call
					for _, a := range addrs {
						v, err := r.Lookup(lc, a)
						if err != nil {
							errs <- "Lookup: " + err.Error()
							return
						}
						if msg := checkBatch([]ip.Addr{a}, []Verdict{v}, oracle); msg != "" {
							errs <- "Lookup: " + msg
							return
						}
					}
					continue
				}
				if err := r.LookupBatchInto(context.Background(), lc, addrs, out[:len(addrs)]); err != nil {
					errs <- "LookupBatchInto: " + err.Error()
					return
				}
				if msg := checkBatch(addrs, out[:len(addrs)], oracle); msg != "" {
					errs <- "LookupBatchInto: " + msg
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	var fe, misses, retries int64
	for _, s := range r.Stats() {
		fe += s.FEExecs.Load()
		misses += s.Lookups.Load() - s.CacheHits.Load()
		retries += s.Retries.Load()
	}
	t.Logf("FE executions %d, arrival misses %d, retries %d", fe, misses, retries)
	if fe == 0 || misses == 0 {
		t.Fatalf("FE executions %d, arrival misses %d: the pool did not miss", fe, misses)
	}
	if fe > misses+retries {
		t.Fatalf("%d FE executions > %d arrival misses + %d retries: a lookup ran the engine more than once", fe, misses, retries)
	}
}
