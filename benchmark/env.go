package main

import (
	"runtime"
	"sync"
	"time"

	"spal/internal/ip"
	"spal/internal/router"
	"spal/internal/rtable"
	"spal/internal/stats"
	"spal/internal/trace"
)

// scale sizes a run. full is what BENCHMARK.json measures; quick is the
// smoke scale `go test` uses.
type scale struct {
	name      string // also selects the sim golden values
	table     func() *rtable.Table
	hotLen    int           // addresses per client, trace streams
	coldLen   int           // distinct uniform addresses, cold_batch
	warmup    time.Duration // untimed traffic before the first segment
	segLen    time.Duration // one timed segment; a run has --seconds/segLen of them
	setups    int           // times set-up is repeated for setup_s
	tick      time.Duration // churn_single: one ApplyUpdates call per tick
	recheck   int           // churn_single: addresses re-checked on the final table
	ladderLen int           // addresses replayed through the standalone layers
	ladderUpd int           // update batches replayed through the standalone layers
	simPkts   int           // sim_fig6: packets per LC per run
	simRuns   int           // sim_fig6: fewest timed runs
}

var (
	full = scale{
		name:    "full",
		table:   rtable.RT2,
		hotLen:  1 << 22,
		coldLen: 1 << 21,
		warmup:  2 * time.Second,
		// Short segments: the host's speed drifts within seconds, and each
		// segment is scaled by the probes on either side of it (host.go).
		segLen: 200 * time.Millisecond,
		setups: 5,
		// One ApplyUpdates call rebuilds whole tables, ~130 ms of CPU
		// whatever the batch size. On the run's single P (spec.go) the
		// writer shares the core with two closed-loop clients and can
		// count on a third of it; at the issue's five calls a second it
		// needed two thirds, the open loop's backlog grew by seconds over
		// a run and update latency measured the queue. One call a second
		// keeps the issue's 1000 updates/s and stays clear of saturation.
		// A churn_single segment is one tick long, so each holds one call.
		tick:      time.Second,
		recheck:   100_000,
		ladderLen: 1 << 21,
		ladderUpd: 8,
		simPkts:   300_000, // the paper's run length, ~1.5 s of wall time
		simRuns:   3,
	}
	quick = scale{
		name:      "quick",
		table:     func() *rtable.Table { return rtable.Small(5000, 1) },
		hotLen:    1 << 16,
		coldLen:   1 << 16,
		warmup:    50 * time.Millisecond,
		segLen:    50 * time.Millisecond,
		setups:    1,
		tick:      50 * time.Millisecond,
		recheck:   5000,
		ladderLen: 1 << 15,
		ladderUpd: 2,
		simPkts:   5000,
		simRuns:   1,
	}
)

// routerWorkload is the shape of one of the four workloads that drive the
// real router.
type routerWorkload struct {
	name    string
	engine  string
	clients int
	batch   int  // 1: Router.Lookup; otherwise LookupBatchInto of this size
	cold    bool // distinct uniform addresses instead of the D_75 trace
	churn   bool // an update writer runs beside the clients
}

var routerWorkloads = []routerWorkload{
	{name: "hot_single", engine: "lulea", clients: 2, batch: 1},
	{name: "hot_batch", engine: "lulea", clients: 1, batch: batchSize},
	{name: "cold_batch", engine: "lulea", clients: 1, batch: batchSize, cold: true},
	{name: "churn_single", engine: "dptrie", clients: 2, batch: 1, churn: true},
}

// Every generated input derives from --seed through one of these salts;
// the router and the simulator receive only the generated inputs.
const (
	saltTrace   = 0x7261
	saltUniform = 0x756e
	saltUpdates = 0x7570
	saltArrival = 0x6172
	saltSim     = 0x7369
)

func seeded(seed, salt uint64) uint64 { return stats.NewRNG(seed).Fork(salt).Uint64() }

// hotStreams draws one D_75-shaped stream per client over a shared pool,
// so every client (and therefore every arrival LC) sees the same hot set.
func hotStreams(tbl *rtable.Table, seed uint64, clients, n int) [][]ip.Addr {
	cfg := trace.PresetConfig(trace.D75)
	cfg.Seed = seeded(seed, saltTrace)
	pool := trace.NewPool(tbl, cfg)
	out := make([][]ip.Addr, clients)
	for c := range out {
		out[c] = trace.Slice(trace.NewSynthetic(pool, cfg, uint64(c)), n)
	}
	return out
}

// coldStreams draws n uniform matched addresses per client: far more
// distinct addresses than the ψ×4096 cache blocks, so every probe misses.
func coldStreams(tbl *rtable.Table, seed uint64, clients, n int) [][]ip.Addr {
	out := make([][]ip.Addr, clients)
	for c := range out {
		rng := stats.NewRNG(seeded(seed, saltUniform) + uint64(c))
		out[c] = make([]ip.Addr, n)
		for i := range out[c] {
			out[c][i] = tbl.RandomMatchedAddr(rng)
		}
	}
	return out
}

// updateBatches pre-generates the churn stream (1000 updates/s, withdraw
// 0.35, new-prefix 0.2) and cuts it into one batch per writer tick.
func updateBatches(tbl *rtable.Table, seed uint64, tick, span time.Duration) [][]rtable.Update {
	stream := rtable.GenerateUpdates(tbl, rtable.UpdateStreamConfig{
		RatePerSecond: 1000,
		CycleNS:       1, // AtCycle is then nanoseconds since the writer started
		Duration:      int64(span),
		WithdrawProb:  0.35,
		NewPrefixProb: 0.2,
		Seed:          seeded(seed, saltUpdates),
	})
	batches := make([][]rtable.Update, int(span/tick))
	for _, u := range stream {
		if k := int(u.AtCycle / int64(tick)); k < len(batches) {
			batches[k] = append(batches[k], u)
		}
	}
	return batches
}

// env is a router workload after set-up: the table, the running router and
// the generated inputs.
type env struct {
	tbl     *rtable.Table
	r       *router.Router
	streams [][]ip.Addr
	batches [][]rtable.Update // churn only
	arrival uint64            // first arrival LC of the round-robin schedule
}

// setUp is everything setup_s covers: table synthesis, partitioning and
// engine builds and LC start (router.New), and input generation.
func setUp(w routerWorkload, sc scale, seed uint64, seconds float64) (*env, error) {
	e := &env{tbl: sc.table(), arrival: seeded(seed, saltArrival) % numLCs}
	r, err := router.New(e.tbl, router.WithLCs(numLCs), router.WithDefaultCache(), router.WithEngineName(w.engine))
	if err != nil {
		return nil, err
	}
	e.r = r
	clients := min(w.clients, maxClients())
	if w.cold {
		e.streams = coldStreams(e.tbl, seed, clients, sc.coldLen)
	} else {
		e.streams = hotStreams(e.tbl, seed, clients, sc.hotLen)
	}
	if w.churn {
		// The slack covers the untimed gaps between segments, where the
		// latency samples are sorted.
		span := sc.warmup + time.Duration(1.25*seconds*float64(time.Second)) + 3*time.Second
		e.batches = updateBatches(e.tbl, seed, sc.tick, span)
	}
	return e, nil
}

// setUpTimed repeats set-up sc.setups times, keeps the last environment
// and returns each repetition's wall time, scaled to the reference host
// like every timing (host.go).
func setUpTimed(w routerWorkload, sc scale, seed uint64, seconds float64) (*env, []float64, error) {
	var (
		e     *env
		times []float64
	)
	for i := 0; i < sc.setups; i++ {
		if e != nil {
			e.r.Stop()
			e = nil
			runtime.GC() // each repetition starts from the same heap
		}
		before, t0 := probe(), time.Now()
		var err error
		if e, err = setUp(w, sc, seed, seconds); err != nil {
			return nil, nil, err
		}
		dt := time.Since(t0).Seconds()
		times = append(times, dt/((before+probe())/2))
	}
	return e, times, nil
}

// expect computes the oracle verdict for every stream position with
// rtable.Table.LongestMatch on the table the router was built from; no lpm
// engine is involved. It runs before the timed region, one goroutine per
// core.
func expect(tbl *rtable.Table, streams [][]ip.Addr) [][]rtable.NextHop {
	want := make([][]rtable.NextHop, len(streams))
	var wg sync.WaitGroup
	for c, s := range streams {
		want[c] = make([]rtable.NextHop, len(s))
		parts := runtime.GOMAXPROCS(0)
		for p := 0; p < parts; p++ {
			lo, hi := len(s)*p/parts, len(s)*(p+1)/parts
			wg.Add(1)
			go func(addrs []ip.Addr, out []rtable.NextHop) {
				defer wg.Done()
				for i, a := range addrs {
					if i > 0 && a == addrs[i-1] { // packet trains repeat
						out[i] = out[i-1]
						continue
					}
					out[i] = oracle(tbl, a)
				}
			}(s[lo:hi], want[c][lo:hi])
		}
	}
	wg.Wait()
	return want
}

// oracle is the independent verdict: the longest match's next hop, or
// NoNextHop when nothing matches.
func oracle(tbl *rtable.Table, a ip.Addr) rtable.NextHop {
	rt, _ := tbl.LongestMatch(a)
	return rt.NextHop
}
