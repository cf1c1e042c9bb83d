// Tests for the direct exchange (batchDirect): the rows a batch, or a single
// lookup, holds for an idle home are answered by call, and the router is
// indistinguishable from one whose every exchange is a message — except in
// what it allocates and in spal_router_handled_total{path="direct"}.
package router

import (
	"context"
	"reflect"
	"runtime"
	"strconv"
	"strings"
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
	"spal/internal/trace"
	"spal/internal/tracing"
)

// delayRequests is the injector that forces the message path and changes
// nothing else: a request delayed by a nanosecond is not clean, so no
// exchange goes direct, and a run's requests, which leave together on one
// helper, reach their homes in the order a clean fabric delivers them.
func delayRequests(m fabric.Message) fabric.Decision {
	if m.Kind == fabric.Request {
		return fabric.Decision{Delay: time.Nanosecond}
	}
	return fabric.Decision{}
}

// exchangeStream is the stream the direct exchange is checked on: one
// goroutine, a Zipf stream (trains, so a batch repeats its misses) and a cold
// uniform one, through LookupBatchInto at batch 64 at every LC in turn,
// interleaved with runs of single Lookups — a single miss is a batch of one
// row.
type exchangeStream struct {
	tbl    *rtable.Table
	stream []ip.Addr
}

const streamLCs, streamBatch, streamChunks = 4, 64, 1200

func newExchangeStream() exchangeStream {
	tbl := rtable.Small(2000, 7)
	const batch, chunks = streamBatch, streamChunks
	tc := trace.Config{PoolSize: 24000, ZipfS: 1.10, MeanTrain: 4, Seed: 0x75}
	src := trace.NewSynthetic(trace.NewPool(tbl, tc), tc, 0)
	rng := stats.NewRNG(0x76)
	stream := make([]ip.Addr, batch*chunks)
	for c := 0; c < chunks; c++ {
		for i := c * batch; i < (c+1)*batch; i++ {
			switch {
			case c%6 != 5:
				stream[i], _ = src.Next()
			case i%2 == 0:
				stream[i] = rng.Uint32() // cold and uniform, often unmatched
			default:
				stream[i] = tbl.RandomMatchedAddr(rng)
			}
		}
	}
	return exchangeStream{tbl: tbl, stream: stream}
}

// singles: every third chunk is a run of single lookups, one LC after another.
func (exchangeStream) singles(c int) bool { return c%3 == 1 }

// streamOutcome is what a router made of the stream.
type streamOutcome struct {
	r        *Router
	verdicts []Verdict
	mallocs  [2]uint64 // batches', singles'
	direct   [2]int64
	flushes  [2]int64 // runs that sent a fabric request: a batch's one, a single lookup's each
	snap     *metrics.Snapshot
	traces   map[uint64][]tracing.EventKind
}

// drive runs the stream through a router built with opts.
func (xs exchangeStream) drive(t *testing.T, opts ...Option) streamOutcome {
	const lcs, batch, chunks = streamLCs, streamBatch, streamChunks
	stream := xs.stream
	r, err := New(xs.tbl, append([]Option{WithLCs(lcs), WithDefaultCache(), WithEngineName("lulea"),
		WithRequestTimeout(time.Minute), WithTraceSampling(0.125), WithTraceJournal(len(stream))}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	o := streamOutcome{r: r, verdicts: make([]Verdict, len(stream)), traces: map[uint64][]tracing.EventKind{}}
	var before, after runtime.MemStats
	for c := 0; c < chunks; c++ {
		at, kind := c*batch, 0
		d0, q0 := handledDirect(r), requestsSent(r)
		runtime.ReadMemStats(&before)
		if xs.singles(c) {
			kind = 1
			for i := at; i < at+batch; i++ {
				if o.verdicts[i], err = r.Lookup(i%lcs, stream[i]); err != nil {
					t.Fatal(err)
				}
			}
		} else if err := r.LookupBatchInto(context.Background(), c%lcs, stream[at:at+batch], o.verdicts[at:at+batch]); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		o.mallocs[kind] += after.Mallocs - before.Mallocs
		o.direct[kind] += handledDirect(r) - d0
		if q := requestsSent(r) - q0; kind == 1 {
			o.flushes[kind] += q
		} else if q > 0 {
			o.flushes[kind]++
		}
	}
	o.snap = r.Metrics()
	for _, tr := range r.Traces() {
		var kinds []tracing.EventKind
		for _, ev := range tr.EventSlice() {
			kinds = append(kinds, ev.Kind)
		}
		o.traces[tr.ID] = kinds
	}
	return o
}

// TestBatchDirectMatchesFabric is the differential oracle of the direct
// exchange: two routers that differ only in an injector delaying every
// request by a nanosecond, which sends every exchange down the message path,
// drive exchangeStream. The verdicts, every LCStats and LR-cache counter,
// occupancy, the event kinds of every traced lookup and the latency
// histograms' counts are equal, exactly; what differs is that one router's
// exchanges with remote homes were calls, and the other's a request and a
// reply each, with a payload each when they carry more than one row.
func TestBatchDirectMatchesFabric(t *testing.T) {
	xs := newExchangeStream()
	tbl, stream, singles := xs.tbl, xs.stream, xs.singles
	oracle := lpm.NewReference(tbl)
	const lcs, batch = streamLCs, streamBatch
	direct, fabric := xs.drive(t), xs.drive(t, WithFaultInjector(delayRequests))

	var remote [2]int64
	for i, v := range direct.verdicts {
		if v != fabric.verdicts[i] {
			t.Fatalf("slot %d: direct %+v, fabric %+v", i, v, fabric.verdicts[i])
		}
		if v.Addr != stream[i] || !verdictMatches(v, oracle, stream[i]) {
			t.Fatalf("slot %d, %s: wrong verdict %+v", i, ip.FormatAddr(stream[i]), v)
		}
		if v.ServedBy == ServedByRemote {
			if singles(i / batch) {
				remote[1]++
			} else {
				remote[0]++
			}
		}
	}
	var coalesced int64
	for i := 0; i < lcs; i++ {
		d, f := reflect.ValueOf(direct.r.stats[i]).Elem(), reflect.ValueOf(fabric.r.stats[i]).Elem()
		for k := 0; k < d.NumField(); k++ {
			dv, fv := d.Field(k).Addr().Interface().(*atomic.Int64).Load(), f.Field(k).Addr().Interface().(*atomic.Int64).Load()
			if dv != fv {
				t.Errorf("LC %d %s: direct %d, fabric %d", i, d.Type().Field(k).Name, dv, fv)
			}
		}
		coalesced += direct.r.stats[i].Coalesced.Load()
	}
	lrcache := 0
	for i, s := range direct.snap.Samples {
		f := fabric.snap.Samples[i]
		if s.Name != f.Name || !reflect.DeepEqual(s.Labels, f.Labels) {
			t.Fatalf("sample %d: direct exports %s%v, fabric %s%v", i, s.Name, s.Labels, f.Name, f.Labels)
		}
		if strings.HasPrefix(s.Name, "spal_lrcache_") {
			if lrcache++; s.Value != f.Value {
				t.Errorf("%s%v: direct %v, fabric %v", s.Name, s.Labels, s.Value, f.Value)
			}
		}
	}
	if want := lcs * (12 + 3); lrcache < want {
		t.Errorf("compared %d spal_lrcache_* samples, want at least %d", lrcache, want)
	}
	for i, h := range direct.snap.Hists {
		if f := fabric.snap.Hists[i]; h.Name != f.Name || !reflect.DeepEqual(h.Labels, f.Labels) || h.Hist.Count != f.Hist.Count {
			t.Errorf("%s%v: direct counts %d, fabric %s%v %d", h.Name, h.Labels, h.Hist.Count, f.Name, f.Labels, f.Hist.Count)
		}
	}
	if len(direct.traces) < len(stream)/16 || len(direct.traces) != len(fabric.traces) {
		t.Fatalf("%d lookups traced direct, %d fabric, want the same 1 in 8 of %d", len(direct.traces), len(fabric.traces), len(stream))
	}
	received, feExecs := 0, 0
	for id, kinds := range direct.traces {
		if !reflect.DeepEqual(kinds, fabric.traces[id]) {
			t.Fatalf("trace %d: direct recorded %v, fabric %v", id, kinds, fabric.traces[id])
		}
		for k, kind := range kinds {
			if kind == tracing.EvFabricRecv {
				received++
				if k+1 < len(kinds) && kinds[k+1] == tracing.EvFEExec {
					feExecs++ // a one-row answer the home's FE computed: its time rides the reply
				}
			}
		}
	}

	// And what is meant to differ.
	for kind, name := range []string{"batch", "single"} {
		if d := direct.direct[kind]; d == 0 || d > remote[kind] {
			t.Errorf("%d %s exchanges were direct for %d remote-served slots without an injector, want nearly every one", d, name, remote[kind])
		}
	}
	if d := handledDirect(fabric.r); d != 0 {
		t.Errorf("%d exchanges were direct past an injector, want 0", d)
	}
	if received == 0 || feExecs == 0 || coalesced == 0 {
		t.Errorf("%d traced lookups received an answer from a home, %d with its FE time, and %d duplicate rows joined one: the exchange's trace and its duplicates were not compared",
			received, feExecs, coalesced)
	}
	if !raceEnabled {
		// The traces and everything else are allocated alike; an exchange that
		// becomes messages makes a request and a reply payload on top when it
		// carries more than one row — nothing for one row, as every single
		// lookup's does — and the message path the waitlists it parks on, once
		// (they are recycled). What delaying a run's requests allocates for
		// itself (their helper) is the injector's, not the path's: it is taken off.
		delay := delayedSendAllocs(t)
		fabric.mallocs[0] -= uint64(delay * float64(fabric.flushes[0]))
		fabric.mallocs[1] -= uint64(delay * float64(fabric.flushes[1]))
		perBatch := float64(int64(fabric.mallocs[0])-int64(direct.mallocs[0])) / float64(direct.direct[0])
		if perBatch < 1.5 || perBatch > 2.25 {
			t.Errorf("batches: the message path allocated %.3f objects more per exchange (%d vs %d over %d), want 2 for most and their waitlists",
				perBatch, fabric.mallocs[0], direct.mallocs[0], direct.direct[0])
		}
		perSingle := float64(int64(fabric.mallocs[1])-int64(direct.mallocs[1])) / float64(direct.direct[1])
		if perSingle < -0.1 || perSingle > 0.1 {
			t.Errorf("single lookups: the message path allocated %.3f objects more per exchange (%d vs %d over %d), want 0",
				perSingle, fabric.mallocs[1], direct.mallocs[1], direct.direct[1])
		}
	}
	evictions := direct.snap.Sum(cache.MetricEvictions)
	if evictions == 0 {
		t.Error("no LR-cache evicted a block: victim choice was not compared")
	}
	t.Logf("%d slots, %v served remote (batch, single): %v direct exchanges; %d coalesced; %v evictions; mallocs %v direct, %v fabric; %d traces, %d received, %d with FE time",
		len(stream), remote, direct.direct, coalesced, evictions, direct.mallocs, fabric.mallocs, len(direct.traces), received, feExecs)
}

// requestsSent sums the fabric requests r's line cards have counted.
func requestsSent(r *Router) (n int64) {
	for _, st := range r.stats {
		n += st.RequestsSent.Load()
	}
	return n
}

// delayedSendAllocs is what delaying the messages of one flush allocates for
// itself, flushed and delivered one at a time: a reply nobody waits for,
// which its handling allocates nothing for.
func delayedSendAllocs(t *testing.T) float64 {
	r, err := New(rtable.Small(100, 7), WithLCs(2))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		r.sendFabric([]fabricSend{{to: 1, m: message{kind: mBatchReply}, fault: fabric.Decision{Delay: time.Nanosecond}, drawn: true}})
		r.delayWG.Wait()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n
}

// linkFault is an injector that applies d to the messages of one kind from
// LC from to LC to while on, counting them, and leaves the rest clean.
type linkFault struct {
	kind     fabric.MsgKind
	from, to int
	d        fabric.Decision
	on       atomic.Bool
	applied  atomic.Int64
}

func (f *linkFault) decide(m fabric.Message) fabric.Decision {
	if m.Kind != f.kind || m.Src != f.from || m.Dst != f.to || !f.on.Load() {
		return fabric.Decision{}
	}
	f.applied.Add(1)
	return f.d
}

// TestInjectorSeesEveryExchange: an injector is offered every exchange, a
// direct one as the request and the reply it stands for, and one that finds
// them all clean changes nothing. On exchangeStream its calls number the
// requests and replies the line cards count, every LC answers as many
// exchanges direct as without it, and every verdict is the same.
func TestInjectorSeesEveryExchange(t *testing.T) {
	xs := newExchangeStream()
	var calls atomic.Int64
	counting := func(fabric.Message) fabric.Decision {
		calls.Add(1)
		return fabric.Decision{}
	}
	plain, seen := xs.drive(t), xs.drive(t, WithFaultInjector(counting))
	var sent int64
	for _, st := range seen.r.Stats() {
		sent += st.RequestsSent.Load() + st.RepliesSent.Load()
	}
	if c := calls.Load(); c != sent || c == 0 {
		t.Errorf("the injector was called %d times for %d requests and replies sent", c, sent)
	}
	for i := 0; i < streamLCs; i++ {
		lbl, path := metrics.L("lc", strconv.Itoa(i)), metrics.L("path", "direct")
		p, _ := plain.snap.Value(MetricHandled, lbl, path)
		s, ok := seen.snap.Value(MetricHandled, lbl, path)
		if !ok || p != s || p == 0 {
			t.Errorf("%s{lc=%d,path=\"direct\"}: %v with the injector, %v without", MetricHandled, i, s, p)
		}
	}
	for i, v := range seen.verdicts {
		if v != plain.verdicts[i] {
			t.Fatalf("slot %d: %+v with the injector, %+v without", i, v, plain.verdicts[i])
		}
	}
}

// TestBatchDirectPreconditions: every condition of the direct exchange,
// alone, sends the rows homed behind it down the message path — with the
// verdicts, and the home in the state, that path produces — while the
// batch's other home, ψ = 3, is asked by call as before; and the same rows
// go direct once the obstacle is gone. An obstacle that is a row's, not its
// home's (the address in flight there), sends that row alone.
func TestBatchDirectPreconditions(t *testing.T) { testDirectPreconditions(t, false) }

// TestDirectPreconditions is TestBatchDirectPreconditions' table asked by a
// single lookup, a batch of one row: each obstacle sends it down the message
// path, and the same miss goes direct once the obstacle is gone.
func TestDirectPreconditions(t *testing.T) { testDirectPreconditions(t, true) }

// testDirectPreconditions runs the table of obstacles, each row asked by a
// batch of four (two rows for the obstructed home, two for a free one) or by
// a single lookup of the first. The hour-long timeout keeps every ticker
// out: what happens is what the row arranged.
func testDirectPreconditions(t *testing.T, single bool) {
	tbl := rtable.Small(2000, 7)
	oracle := lpm.NewReference(tbl)
	const arrival, home, free = 0, 1, 2
	type obstacle struct {
		// lift removes the obstacle; nil if the message path removed it. until,
		// when set, says when: the lookups cannot end while the obstacle stands.
		// redriven: a row is put through the handlers again once the obstacle
		// has gone, and may find the home idle that time. applied, when set,
		// counts the messages a fault decision was applied to: exactly one.
		lift     func()
		until    func() bool
		redriven bool
		applied  *atomic.Int64
	}
	// A fault on the link between the arrival and the home stands until it
	// is lifted; a lost message's rows wait for their deadline, which lifting
	// brings forward.
	fault := func(r *Router, f *linkFault, lost bool) obstacle {
		f.on.Store(true)
		return obstacle{
			lift: func() {
				f.on.Store(false)
				if lost {
					r.own(arrival, func(lc *lineCard) { r.checkDeadlines(lc, r.now()+int64(time.Hour)) })
				}
			},
			until:   func() bool { return f.applied.Load() > 0 },
			applied: &f.applied,
		}
	}
	reqDropped := &linkFault{kind: fabric.Request, from: arrival, to: home, d: fabric.Decision{Drop: true}}
	reqDelayed := &linkFault{kind: fabric.Request, from: arrival, to: home, d: fabric.Decision{Delay: 100 * time.Millisecond}}
	repDropped := &linkFault{kind: fabric.Reply, from: home, to: arrival, d: fabric.Decision{Drop: true}}
	for _, tc := range []struct {
		name     string
		opts     []Option
		servedBy [2]ServedBy // the home's two rows, as the message path answers them
		homeHas  bool        // whether the home's cache holds the first row's address afterwards
		row      bool        // the obstacle is the first row's alone: the second goes direct
		every    bool        // it stands between the arrival and every home
		block    func(r *Router, a ip.Addr) obstacle
	}{
		{"request dropped", []Option{WithFaultInjector(reqDropped.decide)}, [2]ServedBy{ServedByRemote, ServedByRemote}, true, false, false,
			func(r *Router, _ ip.Addr) obstacle { return fault(r, reqDropped, true) }},
		{"request delayed", []Option{WithFaultInjector(reqDelayed.decide)}, [2]ServedBy{ServedByRemote, ServedByRemote}, true, false, false,
			func(r *Router, _ ip.Addr) obstacle { return fault(r, reqDelayed, false) }},
		// The home answers by call; its reply is the message lost.
		{"reply dropped", []Option{WithFaultInjector(repDropped.decide)}, [2]ServedBy{ServedByRemote, ServedByRemote}, true, false, false,
			func(r *Router, _ ip.Addr) obstacle { return fault(r, repDropped, true) }},
		{"breaker open", []Option{WithOverload(0)}, [2]ServedBy{ServedByFallback, ServedByFallback}, false, false, false,
			func(r *Router, _ ip.Addr) obstacle {
				b := &r.lcs[arrival].ov.breakers[home]
				r.own(arrival, func(*lineCard) { b.openedAt = r.now(); b.state.Store(breakerOpen) })
				return obstacle{lift: func() { r.own(arrival, func(lc *lineCard) { r.breakerSuccess(lc, home) }) }}
			}},
		// The first row claims the probe on the message path, the second finds
		// it claimed; the probe's reply closes the breaker.
		{"breaker half-open", []Option{WithOverload(0)}, [2]ServedBy{ServedByRemote, ServedByFallback}, true, false, false,
			func(r *Router, _ ip.Addr) obstacle {
				r.own(arrival, func(*lineCard) { r.lcs[arrival].ov.breakers[home].state.Store(breakerHalfOpen) })
				return obstacle{}
			}},
		{"home ejected", []Option{WithGray()}, [2]ServedBy{ServedByFallback, ServedByFallback}, true, false, false,
			func(r *Router, _ ip.Addr) obstacle {
				r.gray[home].degraded.Store(true)
				return obstacle{lift: func() { r.gray[home].degraded.Store(false) }}
			}},
		{"home's lock held", nil, [2]ServedBy{ServedByRemote, ServedByRemote}, true, false, false,
			func(r *Router, _ ip.Addr) obstacle {
				h := r.lcs[home]
				h.mu.Lock() // ended as every ownership is: the request queued behind it is served
				return obstacle{lift: func() { r.leave(h, 0) }, until: func() bool { return h.backlog.Load() > 0 }}
			}},
		{"address in flight at the home", nil, [2]ServedBy{ServedByRemote, ServedByRemote}, true, true, false,
			func(r *Router, a ip.Addr) obstacle {
				var wl *waitlist
				r.own(home, func(h *lineCard) { wl = r.park(h, a) })
				joined := func() (n int) {
					r.own(home, func(*lineCard) { n = len(wl.remotes) })
					return n
				}
				return obstacle{
					lift: func() {
						r.own(home, func(h *lineCard) {
							nh, ok, _ := r.walk(h, a)
							r.fillAndRelease(h, a, nh, ok, cache.LOC, ServedByFE)
						})
					},
					until: func() bool { return joined() == 1 },
				}
			}},
		{"home disagrees it is the home", nil, [2]ServedBy{ServedByRemote, ServedByRemote}, false, false, false,
			func(r *Router, _ ip.Addr) obstacle {
				var homeOf func(ip.Addr) int
				r.own(home, func(h *lineCard) { homeOf, h.homeOf = h.homeOf, func(ip.Addr) int { return arrival } })
				return obstacle{lift: func() { r.own(home, func(h *lineCard) { h.homeOf = homeOf }) }}
			}},
		{"home a generation behind", nil, [2]ServedBy{ServedByRemote, ServedByRemote}, true, false, false,
			func(r *Router, _ ip.Addr) obstacle {
				r.own(arrival, func(lc *lineCard) { lc.gen++ })
				r.own(free, func(lc *lineCard) { lc.gen++ })
				// Request and stale reply chase each other until the home catches up.
				return obstacle{
					lift:     func() { r.own(home, func(h *lineCard) { h.gen++ }) },
					until:    func() bool { return r.stats[arrival].StaleGenReplies.Load() > 0 },
					redriven: true,
				}
			}},
		{"home's tick due", nil, [2]ServedBy{ServedByRemote, ServedByRemote}, true, false, false,
			func(r *Router, _ ip.Addr) obstacle {
				// Its own, not the free home's: the request's run ticks it on its way out.
				r.own(home, func(h *lineCard) { h.lastTick.Store(r.now() - int64(r.tickEvery)) })
				return obstacle{}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := New(tbl, append([]Option{WithLCs(3), WithDefaultCache(), WithEngineName("lulea"),
				WithRequestTimeout(time.Hour)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()
			xs := remoteAddrs(t, r, tbl, stats.NewRNG(31), home, 4)
			ys := remoteAddrs(t, r, tbl, stats.NewRNG(37), free, 4)
			directs := func() (h, f int64) { return r.lcs[home].handledDirect.Load(), r.lcs[free].handledDirect.Load() }
			// ask submits the batch of rows k and k+1 of each home, or the single
			// lookup of row k of the obstructed one, and the served-by each
			// slot is to come back with.
			ask := func(k int, servedBy [2]ServedBy) ([]ip.Addr, []ServedBy, func() ([]Verdict, error)) {
				if single {
					return []ip.Addr{xs[k]}, servedBy[:1], func() ([]Verdict, error) {
						v, err := r.Lookup(arrival, xs[k])
						return []Verdict{v}, err
					}
				}
				batch := []ip.Addr{xs[k], ys[k], xs[k+1], ys[k+1]}
				return batch, []ServedBy{servedBy[0], ServedByRemote, servedBy[1], ServedByRemote},
					func() ([]Verdict, error) { return r.LookupBatch(arrival, batch) }
			}
			check := func(what string, addrs []ip.Addr, want []ServedBy, out []Verdict) {
				t.Helper()
				if len(out) != len(addrs) {
					t.Fatalf("%s: %d verdicts for %d addresses", what, len(out), len(addrs))
				}
				for i, v := range out {
					if v.Addr != addrs[i] || !verdictMatches(v, oracle, addrs[i]) || v.ServedBy != want[i] {
						t.Errorf("%s, slot %d: %+v (served by %s), want the oracle's served by %s", what, i, v, v.ServedBy, want[i])
					}
				}
			}

			h0, f0 := directs() // before the obstacle: the home's lock may be it
			ob := tc.block(r, xs[0])
			addrs, want, submit := ask(0, tc.servedBy)
			got := make(chan []Verdict, 1)
			go func() {
				out, err := submit()
				if err != nil {
					t.Error(err)
				}
				got <- out
			}()
			if ob.until != nil {
				waitFor(t, "the lookups to be waiting behind the obstacle", ob.until)
				select {
				case out := <-got:
					t.Fatalf("the lookups ended with the obstacle standing: %+v", out)
				default:
				}
				ob.lift()
				ob.lift = nil
			}
			select {
			case out := <-got:
				check("with the obstacle standing", addrs, want, out)
			case <-time.After(5 * time.Second):
				t.Fatal("the lookups never ended")
			}
			h1, f1 := directs()
			wantH, wantF := int64(0), int64(1)
			if tc.row && !single {
				wantH = 1
			}
			if tc.every || single {
				wantF = 0
			}
			if d := h1 - h0; d != wantH && !(ob.redriven && d <= 2) { // a re-driven row may go direct, once
				t.Errorf("%d direct exchanges with the obstructed home, want %d", d, wantH)
			}
			if d := f1 - f0; d != wantF {
				t.Errorf("%d direct exchanges with the free home, want %d", d, wantF)
			}
			if ob.applied != nil && ob.applied.Load() != 1 {
				t.Errorf("the fault decision was applied to %d messages, want 1", ob.applied.Load())
			}
			for i := range r.lcs {
				r.own(i, func(lc *lineCard) {
					if lc.pending.len() != 0 || lc.nwaiters != 0 || len(lc.outbox) != 0 {
						t.Errorf("LC %d left with %d in flight, %d waiters, %d unsent", i, lc.pending.len(), lc.nwaiters, len(lc.outbox))
					}
					if i != home {
						return
					}
					has := false
					lc.cache.AuditEntries(func(a ip.Addr, _ rtable.NextHop) bool {
						has = has || a == xs[0]
						return true
					})
					if has != tc.homeHas {
						t.Errorf("the home's cache holds the first row's address: %v, want %v", has, tc.homeHas)
					}
				})
			}

			if ob.lift != nil {
				ob.lift()
			}
			h0, f0 = directs()
			addrs, want, submit = ask(2, [2]ServedBy{ServedByRemote, ServedByRemote})
			out, err := submit()
			if err != nil {
				t.Fatal(err)
			}
			check("with the obstacle gone", addrs, want, out)
			if wantF = 1; single {
				wantF = 0
			}
			if h1, f1 = directs(); h1-h0 != 1 || f1-f0 != wantF {
				t.Errorf("with the obstacle gone: %d and %d direct exchanges with the two homes, want 1 and %d", h1-h0, f1-f0, wantF)
			}
			if n := len(r.lcs[home].outbox); n != 0 {
				t.Errorf("the home was released with %d messages to send: a goroutine holding two LC locks sends nothing", n)
			}
		})
	}
}

// TestChaosBatchDirectCrossfire is TestChaosDirectCrossfire for batches:
// callers at LC 0 submit batches homed at LC 1 and callers at LC 1 batches
// homed at LC 0, so each batch handler wants the other LC's lock while
// holding its own, beside a writer that applies updates and flushes the
// caches. At two and at eight Ps it must end, every verdict must match a
// table version live during its call, both ways of asking a home must have
// been taken, and nothing may be left parked.
func TestChaosBatchDirectCrossfire(t *testing.T) {
	tbl := rtable.Small(1500, 71)
	for _, procs := range []int{2, 8} {
		t.Run("procs="+strconv.Itoa(procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			r, err := New(tbl, WithLCs(2), WithDefaultCache(), WithEngineName("bintrie"), WithRequestTimeout(20*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()
			oracle := newVersionedOracle(tbl)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var wrong, served, updates atomic.Int64

			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := stats.NewRNG(chaosSeeds(t)[0]*37 + uint64(procs))
				for cur := tbl; ; {
					select {
					case <-stop:
						return
					default:
					}
					r.FlushCaches() // keeps the callers' addresses cold
					stream := churnStream(cur, rng.Uint64())
					next := cur.ApplyAll(stream)
					if len(stream) == 0 || next.Len() == 0 {
						continue
					}
					oracle.announce(next)
					if r.ApplyUpdates(stream) != nil {
						return // stopping
					}
					oracle.settle()
					updates.Add(1)
					cur = next
				}
			}()
			const batch = 32
			for w := 0; w < 4; w++ {
				at := w % 2
				addrs := remoteAddrs(t, r, tbl, stats.NewRNG(uint64(w)+5), 1-at, 1500)
				wg.Add(1)
				go func() {
					defer wg.Done()
					out := make([]Verdict, batch)
					for i := 0; ; i += batch {
						select {
						case <-stop:
							return
						default:
						}
						b := addrs[i%len(addrs):][:batch]
						lo, _ := oracle.window()
						if err := r.LookupBatchInto(context.Background(), at, b, out); err != nil {
							t.Error(err)
							return
						}
						_, hi := oracle.window()
						served.Add(batch)
						for k, a := range b {
							if out[k].Addr != a || !oracle.matches(out[k], a, lo, hi) {
								wrong.Add(1)
							}
						}
					}
				}()
			}
			time.Sleep(300 * time.Millisecond)
			close(stop)
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				buf := make([]byte, 1<<20)
				t.Fatalf("crossing batch callers never ended\n%s", buf[:runtime.Stack(buf, true)])
			}

			if w := wrong.Load(); w != 0 {
				t.Errorf("%d wrong verdicts among %d served", w, served.Load())
			}
			var sent int64
			for _, st := range r.Stats() {
				sent += st.RequestsSent.Load()
			}
			direct := handledDirect(r)
			if direct == 0 || sent <= direct || updates.Load() == 0 {
				t.Errorf("%d requests counted, %d of them direct, over %d updates: both paths were meant to be taken", sent, direct, updates.Load())
			}
			waitFor(t, "every LC to be left with nothing parked", func() bool {
				quiet := true
				for i := range r.lcs {
					r.own(i, func(lc *lineCard) { quiet = quiet && lc.pending.len() == 0 && lc.nwaiters == 0 })
				}
				return quiet
			})
			t.Logf("served=%d updates=%d requests=%d direct=%d", served.Load(), updates.Load(), sent, direct)
		})
	}
}
