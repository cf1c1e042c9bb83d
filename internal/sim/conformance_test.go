package sim

import (
	"sort"
	"strconv"
	"testing"

	"spal/internal/cache"
	"spal/internal/ip"
	"spal/internal/lpm/engines"
	"spal/internal/metrics"
	"spal/internal/router"
	"spal/internal/rtable"
)

// TestCountsConformance feeds the simulator and the concurrent router one
// seeded per-LC address sequence — D_75, ψ = 4, β = 4K, γ = 50, lulea, no
// faults — in the same global order, spaced so that no lookup is in flight
// while another arrives, and compares the paper's counts per LC: lookups,
// cache hits, misses, FE executions, fabric requests and replies, and the
// LR-cache's evictions, probes and fills. Serially fed, both drivers put
// every LR-cache through the same probes, reservations and fills in the same
// order, so each count is equal to the count. The router's counts are read
// through Stats and Metrics after the run, which also checks that folding
// the untimed inline hits loses none.
func TestCountsConformance(t *testing.T) {
	const psi, perLC = 4, 20000
	tbl := rtable.Small(20000, 21)
	lulea, err := engines.Lookup("lulea")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tbl)
	cfg.NumLCs, cfg.PacketsPerLC, cfg.Engine = psi, perLC, lulea
	// Gaps of 50 s and more (5 ns cycles): a lookup takes tens of cycles, so
	// arrivals this far apart never overlap one (checked below against the
	// run's worst lookup). Idle cycles cost the calendar nothing.
	cfg.GapMin, cfg.GapMax = 10_000_000_000, 20_000_000_000

	// The arrival schedule the run will follow, from a second simulator of
	// the same configuration: each LC's stream, and its gaps as stepLC draws
	// them, merged into one order (ties go to the lower LC, as a cycle steps
	// them).
	sched, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type arrival struct {
		at   int64
		lc   int
		addr ip.Addr
	}
	order := make([]arrival, 0, psi*perLC)
	for _, l := range sched.lcs {
		addrs := make([]ip.Addr, perLC)
		l.src.Fill(addrs)
		at := l.nextArrival
		for _, a := range addrs {
			order = append(order, arrival{at, l.id, a})
			at += l.drawGap(sched.cfg.GapMin, &sched.gaps)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].at != order[j].at {
			return order[i].at < order[j].at
		}
		return order[i].lc < order[j].lc
	})
	closest := order[1].at - order[0].at
	for k := 2; k < len(order); k++ {
		closest = min(closest, order[k].at-order[k-1].at)
	}

	sr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.WorstLookupCycles) >= closest {
		t.Fatalf("the simulated lookups overlap: the worst took %d cycles, two arrivals are %d apart", res.WorstLookupCycles, closest)
	}

	rr, err := router.New(tbl, router.WithLCs(psi), router.WithEngine(lulea), router.WithCache(cfg.Cache))
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Stop()
	for _, a := range order {
		if home, want := rr.HomeLC(a.addr), sr.homeOf(a.addr, a.lc); home != want {
			t.Fatalf("%s: the router homes it at LC %d, the simulator at LC %d", ip.FormatAddr(a.addr), home, want)
		}
		if _, err := rr.Lookup(a.lc, a.addr); err != nil {
			t.Fatal(err)
		}
	}

	// Every count is loaded before Metrics runs, which folds as well.
	type counts struct{ lookups, hits, fe, requests, replies int64 }
	st := rr.Stats()
	got := make([]counts, psi)
	for i, s := range st {
		got[i] = counts{s.Lookups.Load(), s.CacheHits.Load(), s.FEExecs.Load(), s.RequestsSent.Load(), s.RepliesSent.Load()}
	}
	snap := rr.Metrics()
	for i, s := range res.PerLC {
		if s.Parked != 0 {
			t.Errorf("LC %d: %d lookups parked on a waiting block: lookups overlapped", i, s.Parked)
		}
		lbl := metrics.L("lc", strconv.Itoa(i))
		value := func(name string) int64 { v, _ := snap.Value(name, lbl); return int64(v) }
		cs := sr.lcs[i].cache.Stats()
		g := got[i]
		for _, c := range []struct {
			what        string
			router, sim int64
		}{
			{"lookups", g.lookups, s.Generated},
			{"cache hits", g.hits, s.HitLoc + s.HitRem},
			{"misses", g.lookups - g.hits, s.MissLocal},
			{"FE executions", g.fe, s.FELookups},
			{"fabric requests", g.requests, s.RequestsSent},
			{"fabric replies", g.replies, s.RepliesSent},
			{"evictions", value(cache.MetricEvictions), cs.Evictions},
			// The home's probes of requests and the fills on both sides.
			{"LR-cache probes", value(cache.MetricProbes), cs.Probes},
			{"LR-cache fills", value(cache.MetricFills), cs.Fills},
		} {
			if c.router != c.sim {
				t.Errorf("LC %d %s: router %d, simulator %d", i, c.what, c.router, c.sim)
			}
		}
		if l, h := value(router.MetricLookups), value(router.MetricCacheHits); l != g.lookups || h != g.hits {
			t.Errorf("LC %d: Metrics reads %d lookups and %d cache hits, Stats %d and %d", i, l, h, g.lookups, g.hits)
		}
	}
}
