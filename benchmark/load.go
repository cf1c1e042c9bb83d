package main

import (
	"context"
	"slices"
	"sort"
	"sync"
	"time"

	"spal/internal/ip"
	"spal/internal/router"
	"spal/internal/rtable"
)

const (
	// maxLatSamples bounds one client's latency samples per segment; the
	// fastest workload makes ~60,000 calls per client per 200 ms segment.
	maxLatSamples = 1 << 18
	// spanEvery is the sampling stride of per-call spans in a traced run.
	spanEvery = 64
)

// client is one closed-loop caller: it waits for each verdict before it
// sends the next address, cycling its pre-generated stream, and rotates
// the arrival LC round-robin per call.
type client struct {
	r      *router.Router
	batch  int
	stream []ip.Addr
	want   []rtable.NextHop // oracle verdict per stream position
	pos    int
	calls  uint64
	out    []router.Verdict

	// Per segment.
	lat   []int32 // ns per call
	addrs int64
	wall  time.Duration

	// Whole run: calls that returned an error plus verdicts that disagreed
	// with the oracle, and (churn) disagreements that excused set aside.
	failed, unchecked int64
	// excused, when set, reports whether an address lies in a range some
	// update of the run's stream may change; a disagreement there may be
	// the router being right about a newer table.
	excused func(ip.Addr) bool

	tr     *tracer // non-nil during a traced segment
	parent int32
}

func (c *client) mismatch(a ip.Addr) {
	if c.excused != nil && c.excused(a) {
		c.unchecked++
	} else {
		c.failed++
	}
}

// run issues calls for d. The clock is read once per call: a call's latency
// runs from the previous call's return to its own, so it includes the
// compare of the verdict against the precomputed oracle value (about a
// nanosecond an address) and nothing else of the client.
func (c *client) run(d time.Duration) {
	c.lat = c.lat[:0]
	ctx := context.Background()
	start := time.Now()
	t0 := start
	var n int64
	for {
		lc := int(c.calls % numLCs)
		var class string
		if c.batch == 1 {
			a := c.stream[c.pos]
			v, err := c.r.Lookup(lc, a)
			if err != nil {
				c.failed++
			} else if v.NextHop != c.want[c.pos] || v.Addr != a || v.OK != (v.NextHop != rtable.NoNextHop) {
				c.mismatch(a)
			}
			if c.tr != nil {
				class = v.ServedBy.String()
			}
		} else {
			addrs := c.stream[c.pos : c.pos+c.batch]
			if err := c.r.LookupBatchInto(ctx, lc, addrs, c.out); err != nil {
				c.failed += int64(c.batch)
			} else {
				for i, v := range c.out {
					if v.NextHop != c.want[c.pos+i] || v.Addr != addrs[i] {
						c.mismatch(addrs[i])
					}
				}
			}
			class = "batch"
		}
		t1 := time.Now()
		if len(c.lat) < cap(c.lat) {
			c.lat = append(c.lat, int32(t1.Sub(t0)))
		}
		if c.tr != nil && c.calls%spanEvery == 0 {
			c.tr.add("router.lookup", class, c.parent, t0, t1)
		}
		c.calls++
		n += int64(c.batch)
		if c.pos += c.batch; c.pos == len(c.stream) {
			c.pos = 0
		}
		t0 = t1
		if t1.Sub(start) >= d {
			break
		}
	}
	c.addrs, c.wall = n, t0.Sub(start)
}

// segment is what one timed stretch measured, all clients together.
type segment struct {
	lookupsPerS float64
	p50, p99    float64 // ns per public call
	addrs       int64
	snapshotNS  float64 // traced segments: one Router.Metrics() call's time
	host        float64 // mean of the probes before and after, see host.go
}

// load drives a router with closed-loop clients.
type load struct {
	r       *router.Router
	clients []*client
	merged  []int32
}

func newLoad(e *env, w routerWorkload, want [][]rtable.NextHop) *load {
	l := &load{r: e.r}
	var excused func(ip.Addr) bool
	if w.churn {
		ranges := rtable.UpdateRanges(slices.Concat(e.batches...))
		excused = func(a ip.Addr) bool {
			i := sort.Search(len(ranges), func(i int) bool { return ranges[i].Hi >= a })
			return i < len(ranges) && ranges[i].Contains(a)
		}
	}
	for i, s := range e.streams {
		if len(s)%w.batch != 0 {
			panic("benchmark: stream length is not a multiple of the batch size")
		}
		l.clients = append(l.clients, &client{
			r: e.r, batch: w.batch, stream: s, want: want[i], excused: excused,
			// Clients start one LC apart so they do not march in step.
			calls: e.arrival + uint64(i),
			out:   make([]router.Verdict, w.batch),
			lat:   make([]int32, 0, maxLatSamples),
		})
	}
	l.merged = make([]int32, 0, len(l.clients)*maxLatSamples)
	return l
}

// segment runs every client for d. With a tracer it opens one
// router.segment span per client, samples per-call spans under it, and
// takes one Router.Metrics() snapshot halfway through from the otherwise
// idle calling goroutine.
func (l *load) segment(d time.Duration, tr *tracer) segment {
	var wg sync.WaitGroup
	done := make(chan struct{})
	for _, c := range l.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			if c.tr = tr; tr != nil {
				c.parent = tr.begin("router.segment", noParent)
				defer tr.end(c.parent)
			}
			c.run(d)
		}(c)
	}
	go func() { wg.Wait(); close(done) }()
	var seg segment
	if tr != nil {
		select {
		case <-done:
		case <-time.After(d / 2):
			id := tr.begin("metrics.snapshot", noParent)
			l.r.Metrics()
			seg.snapshotNS = float64(tr.end(id))
		}
	}
	<-done
	l.merged = l.merged[:0]
	for _, c := range l.clients {
		l.merged = append(l.merged, c.lat...)
		seg.addrs += c.addrs
		seg.lookupsPerS += float64(c.addrs) / c.wall.Seconds()
	}
	slices.Sort(l.merged)
	seg.p50, seg.p99 = percentile(l.merged, 0.50), percentile(l.merged, 0.99)
	return seg
}

// ownMiB is the size of the load generator's own long-lived buffers.
func (l *load) ownMiB() float64 {
	bytes := cap(l.merged) * 4
	for _, c := range l.clients {
		bytes += len(c.stream)*4 + len(c.want)*2 + cap(c.lat)*4
	}
	return float64(bytes) / (1 << 20)
}

// failures sums the clients' failed and unchecked verdicts.
func (l *load) failures() (failed, unchecked int64) {
	for _, c := range l.clients {
		failed += c.failed
		unchecked += c.unchecked
	}
	return failed, unchecked
}

// counters is the router-wide sum of the per-LC counters the per-layer
// metrics are ratios of.
type counters struct {
	lookups, cacheHits, feExecs, fabricMsgs, coalesced, retries, fallbacks, updatesApplied int64
}

func readCounters(r *router.Router) counters {
	var c counters
	for _, s := range r.Stats() {
		c.lookups += s.Lookups.Load()
		c.cacheHits += s.CacheHits.Load()
		c.feExecs += s.FEExecs.Load()
		c.fabricMsgs += s.RequestsSent.Load() + s.RepliesSent.Load()
		c.coalesced += s.Coalesced.Load()
		c.retries += s.Retries.Load()
		c.fallbacks += s.Fallbacks.Load()
		c.updatesApplied += s.UpdatesApplied.Load()
	}
	return c
}

func (c counters) minus(o counters) counters {
	return counters{
		c.lookups - o.lookups, c.cacheHits - o.cacheHits, c.feExecs - o.feExecs,
		c.fabricMsgs - o.fabricMsgs, c.coalesced - o.coalesced, c.retries - o.retries,
		c.fallbacks - o.fallbacks, c.updatesApplied - o.updatesApplied,
	}
}

// writer is churn_single's open-loop update source: batch k is due at
// start+(k+1)·tick whether or not the router kept up (BGP peers do not
// wait), so a call's latency runs from its due time and the generator's
// lateness is recorded beside it.
type writer struct {
	r       *router.Router
	batches [][]rtable.Update
	tick    time.Duration

	// Written by run; read only after it has returned.
	start   time.Time
	applied [][]rtable.Update
	callNS  []int64 // per applied batch: completion - due
	lateNS  []int64 // per applied batch: actual start - due
	err     error
}

// due is when batch k is scheduled.
func (w *writer) due(k int) time.Time { return w.start.Add(time.Duration(k+1) * w.tick) }

func (w *writer) run(stop <-chan struct{}) {
	w.start = time.Now()
	for k, b := range w.batches {
		due := w.due(k)
		select {
		case <-stop:
			return
		case <-time.After(time.Until(due)):
		}
		t0 := time.Now()
		if err := w.r.ApplyUpdates(b); err != nil {
			w.err = err
			return
		}
		w.applied = append(w.applied, b)
		w.callNS = append(w.callNS, int64(time.Since(due)))
		w.lateNS = append(w.lateNS, int64(t0.Sub(due)))
	}
}

// recheck looks n addresses up through the router after the writer has
// stopped and compares them with LongestMatch on the final table: half are
// stream addresses, half sit inside prefixes the run announced or
// withdrew. It returns the number that disagreed.
func recheck(e *env, applied [][]rtable.Update, n int) int64 {
	all := slices.Concat(applied...)
	final := e.tbl.ApplyAll(all)
	var bad int64
	for i := 0; i < n; i++ {
		a := e.streams[0][i%len(e.streams[0])]
		if i%2 == 1 && len(all) > 0 {
			p := all[(i/2)%len(all)].Route.Prefix.Canon()
			a = p.FirstAddr() + ip.Addr(uint64(i)%(uint64(p.LastAddr()-p.FirstAddr())+1))
		}
		v, err := e.r.Lookup(i%numLCs, a)
		if want := oracle(final, a); err != nil || v.NextHop != want || v.OK != (want != rtable.NoNextHop) {
			bad++
		}
	}
	return bad
}
