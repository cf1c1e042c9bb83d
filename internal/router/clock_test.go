package router

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"spal/internal/ip"
	"spal/internal/rtable"
	"spal/internal/stats"
)

// TestLookupClockReads is the data plane's clock budget, counted, not
// timed: a handler run reads the clock at submission and once when it
// ends, however many addresses it answered, and an inline cache hit reads
// it at all one time in hitTimedEvery. The router's real clock is
// wrapped in a counter (real readings, so deadlines and health behave),
// the hour-long request timeout keeps every ticker out of the count, and
// the test's goroutine is the only caller, so every handler runs inline on
// it. Tracing costs an unsampled lookup no reading; a sampled one is
// stamped whatever it turns out to be — two readings a hit — and adds its
// FE timers, two readings an engine run, and nothing else. A router that
// scores round trips (WithGray) reads the clock once more per answer from a
// remote home, message or direct exchange alike, and nowhere else.
func TestLookupClockReads(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	const lcs, batch = 4, 64
	for _, tc := range []struct {
		name string
		opts []Option
		hits int64 // clock readings for hitTimedEvery consecutive inline hits at one LC
		next int64 // and for the one after them
		fe   int64 // clock readings per engine run
		rtt  int64 // and per round trip to a remote home
	}{
		{"untraced", nil, 2, 0, 0, 0},
		// Tracing on, nothing head-sampled: the FE timers run, the hit floor holds.
		{"unsampled", []Option{WithTraceSampling(0)}, 2, 0, 2, 0},
		{"traced", []Option{WithTraceSampling(1)}, 2 * hitTimedEvery, 2, 2, 0},
		{"gray", []Option{WithGray()}, 2, 0, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := New(tbl, append([]Option{WithLCs(lcs), WithDefaultCache(), WithEngineName("lulea"),
				WithRequestTimeout(time.Hour)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()
			var reads atomic.Int64
			clock := r.clock
			r.clock = func() int64 { reads.Add(1); return clock() }

			single := func(a ip.Addr, want ServedBy) func() {
				return func() {
					if v, err := r.Lookup(0, a); err != nil || v.ServedBy != want {
						t.Fatalf("Lookup = %+v, %v; want one served by %s", v, err, want)
					}
				}
			}
			out := make([]Verdict, batch)
			batched := func(addrs []ip.Addr) func() {
				return func() {
					if err := r.LookupBatchInto(context.Background(), 0, addrs, out); err != nil {
						t.Fatal(err)
					}
				}
			}
			local := remoteAddrs(t, r, tbl, stats.NewRNG(3), 0, 2)
			remote := remoteAddrs(t, r, tbl, stats.NewRNG(5), 1, 1)
			pool := distinctAddrs(tbl, stats.NewRNG(9), 4*batch)
			hot, cold := pool[:batch], pool[batch:2*batch]
			var oneHome []ip.Addr // cold too, every one homed at LC 1
			for _, a := range remoteAddrs(t, r, tbl, stats.NewRNG(7), 1, 2*batch) {
				if len(oneHome) < batch && !slices.Contains(pool, a) && a != remote[0] {
					oneHome = append(oneHome, a)
				}
			}
			homes := map[int]bool{}
			for _, a := range cold {
				if h := r.HomeLC(a); h != 0 {
					homes[h] = true
				}
			}
			h := int64(len(homes))
			if h != lcs-1 {
				t.Fatalf("the cold batch reaches %d remote homes, want %d", h, lcs-1)
			}
			single(local[0], ServedByFE)()
			batched(hot)()
			// LC 0's first inline hit is timed, having none to go by. The
			// sixteen below are then fifteen untimed and the next timed one.
			single(local[0], ServedByCache)()
			sixteen := func() {
				for i := 0; i < hitTimedEvery; i++ {
					single(local[0], ServedByCache)()
				}
			}

			for _, step := range []struct {
				name    string
				do      func()
				reads   int64
				directs int64 // exchanges made by call
			}{
				{"sixteen consecutive single hits", sixteen, tc.hits, 0},
				{"a seventeenth", single(local[0], ServedByCache), tc.next, 0},
				{"single local-home miss", single(local[1], ServedByFE), 2 + tc.fe, 0},
				// Its home is idle, so the exchange is a call (direct): its own stamp —
				// at the miss, or at submission when sampled — dates the request and
				// tells that the home's tick is not due, and the arrival run's end
				// ends it.
				{"single remote miss", single(remote[0], ServedByRemote), 2 + tc.fe + tc.rtt, 1},
				{"all-hit batch", batched(hot), 3, 0},
				// Submission, the scan's stamp — the send time of every exchange,
				// and what tells that no home's tick is due — and the arrival run's
				// end; one engine sweep, at the home. The home is idle, so the
				// exchange is a call: the handler run is the arrival's alone.
				{"remote-home batch", batched(oneHome), 3 + tc.fe + tc.rtt, 1},
				// The same, with an engine sweep here and one at every home.
				{"cold batch", batched(cold), 3 + tc.fe*(h+1) + tc.rtt*h, h},
			} {
				before, directBefore := reads.Load(), handledDirect(r)
				step.do()
				if got := reads.Load() - before; got != step.reads {
					t.Errorf("%s: %d clock reads, budget %d", step.name, got, step.reads)
				}
				if got := handledDirect(r) - directBefore; got != step.directs {
					t.Errorf("%s: %d exchanges were direct, want %d", step.name, got, step.directs)
				}
			}
			for i, v := range out {
				if v.Addr != cold[i] || v.ServedBy == ServedByCache {
					t.Fatalf("cold batch slot %d: %+v", i, v)
				}
			}
			if _, queued := handled(r); queued != 0 {
				t.Errorf("%d handlers ran queued; the budgets are the inline path's", queued)
			}
		})
	}
}
