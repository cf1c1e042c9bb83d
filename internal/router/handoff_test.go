// Tests for the queue hand-off (leave, queued): whoever holds an LC's lock
// serves what was queued behind it, within a budget, and only while the LC
// is live. CI runs them at GOMAXPROCS 1, 2 and 8 (job chaos-procs) as well.
package router

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/rtable"
	"spal/internal/stats"
)

// TestNoMessageParksOnIdleLC: callers crowd two cache-less LCs with lookups
// half of which miss to the other LC, so requests and replies keep finding
// their target busy and queue. The hour-long timeout takes away both
// rescuers — no deadline retries a lost request, no sweep comes by to serve
// a queue — so a message left parked at an LC whose owner has gone is a
// lookup that never returns: a lost wake-up is a hang, not a slow run. And
// at quiescence nothing is counted or queued anywhere.
func TestNoMessageParksOnIdleLC(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	oracle := lpm.NewReference(tbl)
	const callers, each = 8, 20000
	for _, procs := range []int{1, 2, 8} {
		t.Run("procs="+strconv.Itoa(procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			r, err := New(tbl, WithLCs(2), WithoutCache(), WithRequestTimeout(time.Hour))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := stats.NewRNG(uint64(c) + 1)
					for i := 0; i < each; i++ {
						a := tbl.RandomMatchedAddr(rng)
						var v Verdict
						var err error
						if i%2 == 0 {
							v, err = r.Lookup(c%2, a)
						} else if ch, aerr := lookupAsync(r, c%2, a); aerr != nil {
							err = aerr
						} else {
							v = <-ch
						}
						if err != nil || !verdictMatches(v, oracle, a) {
							t.Errorf("caller %d, lookup %d of %s: %+v, %v", c, i, ip.FormatAddr(a), v, err)
							return
						}
					}
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				buf := make([]byte, 1<<20)
				t.Fatalf("a lookup never returned: a message was left parked\n%s", buf[:runtime.Stack(buf, true)])
			}
			for i, lc := range r.lcs {
				if n, q := lc.backlog.Load(), len(r.inboxes[i]); n != 0 || q != 0 {
					t.Errorf("LC %d at quiescence: %d counted, %d queued, want none", i, n, q)
				}
			}
			inline, queued := handled(r)
			t.Logf("%d handlers ran inline, %d queued, %d direct", inline, queued, handledDirect(r))
		})
	}
}

// refillEngine is an engine whose every lookup queues one more lookup at
// LC 0 while on is set: a queue refilled exactly as fast as it is served.
type refillEngine struct {
	lpm.Engine
	r    **Router
	on   *atomic.Bool
	runs *atomic.Int64
}

func (e refillEngine) Lookup(a ip.Addr) (rtable.NextHop, int, bool) {
	e.runs.Add(1)
	if e.on.Load() {
		(*e.r).push(0, message{kind: mLookup, addr: a + 1, bd: getBatchDesc(1, 0)})
	}
	return e.Engine.Lookup(a)
}

// TestDrainBudget: one ownership serves at most QueueDepth queued messages,
// then goes, whatever is still queued — a control caller, Router.mu in hand,
// is not kept at an LC by a flood — and what it left is served by the
// monitor's next sweep.
func TestDrainBudget(t *testing.T) {
	const depth = 32
	var (
		r    *Router
		on   atomic.Bool
		runs atomic.Int64
	)
	refill := func(tbl *rtable.Table) lpm.Engine {
		return refillEngine{lpm.NewReferenceEngine(tbl), &r, &on, &runs}
	}
	// The hour keeps the monitor out: the sweep below is the test's own call.
	r, err := New(rtable.Small(500, 3), WithLCs(1), WithoutCache(), WithEngine(refill),
		WithRequestTimeout(time.Hour), WithOverload(depth, ShedBlock))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	lc := r.lcs[0]
	for i := 0; i < depth; i++ {
		r.inboxes[0] <- message{kind: mLookup, addr: ip.Addr(i) << 8, bd: getBatchDesc(1, 0)}
	}
	lc.backlog.Add(depth) // counted, and every sender lost its TryLock to an owner now gone
	on.Store(true)
	r.FlushCaches() // any control action: an ownership that finds the queue full, and refilled as it serves
	if got := runs.Load(); got != depth {
		t.Errorf("one ownership ran %d handlers against a queue that never empties, want QueueDepth = %d", got, depth)
	}
	if n, q := lc.backlog.Load(), len(r.inboxes[0]); n != depth || q != depth {
		t.Errorf("the owner left %d counted, %d queued, want the %d that refilled the queue", n, q, depth)
	}
	on.Store(false)
	r.sweep()
	if got := runs.Load(); got != 2*depth {
		t.Errorf("after one sweep %d handlers have run, want %d", got, 2*depth)
	}
	if n, q := lc.backlog.Load(), len(r.inboxes[0]); n != 0 || q != 0 {
		t.Errorf("one sweep left %d counted, %d queued, want none", n, q)
	}
	if got := lc.handledQueued.Load(); got != 2*depth {
		t.Errorf("handled{path=queued} = %d, want %d", got, 2*depth)
	}
}

// TestKilledLCBuffersUntilAdopted: a crash is live = false and nothing
// else. From KillLC's return to the adoption no handler runs at the slot,
// whoever comes by: callers and peers queue, the sweep skips it, a control
// caller takes its lock and leaves its queue alone. The adoption's own leave
// then serves everything that buffered, oracle-correct. The hour-long timeout
// keeps the monitor's ticker out: the test runs the check that adopts the
// slot itself.
func TestKilledLCBuffersUntilAdopted(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	oracle := lpm.NewReference(tbl)
	r, err := New(tbl, WithLCs(4), WithDefaultCache(), WithRequestTimeout(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	const dead = 2
	lc := r.lcs[dead]
	local := distinctAddrs(tbl, stats.NewRNG(11), 48)
	remote := remoteAddrs(t, r, tbl, stats.NewRNG(13), dead, 16)

	crash(t, r, dead)
	inline0, queued0 := lc.handledInline.Load(), lc.handledQueued.Load()
	var addrs []ip.Addr
	var chans []<-chan Verdict
	submit := func(at int, a ip.Addr) {
		t.Helper()
		ch, err := lookupAsync(r, at, a)
		if err != nil {
			t.Fatal(err)
		}
		addrs, chans = append(addrs, a), append(chans, ch)
	}
	for _, a := range local {
		submit(dead, a)
	}
	for i, a := range remote { // misses at live LCs, homed at the corpse: their requests queue there too
		submit((dead+1+i%3)%4, a)
	}
	r.sweep()
	r.FlushCaches()
	r.Metrics()
	if in, q := lc.handledInline.Load()-inline0, lc.handledQueued.Load()-queued0; in != 0 || q != 0 {
		t.Errorf("%d handlers ran inline and %d from the queue at a killed LC, want none", in, q)
	}
	if n := lc.backlog.Load(); n < int32(len(local)) {
		t.Errorf("the killed LC's queue holds %d messages, want at least the %d lookups submitted there", n, len(local))
	}
	r.healthCheck(r.now())
	for i, ch := range chans {
		select {
		case v := <-ch:
			if !verdictMatches(v, oracle, addrs[i]) {
				t.Errorf("lookup %d, buffered at the dead slot: wrong verdict %+v", i, v)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("lookup %d, buffered at the dead slot, never completed", i)
		}
	}
	if r.LCStates()[dead] != LCDown {
		t.Errorf("LC %d is %s after the buffered lookups were answered, want down (re-homed)", dead, r.LCStates()[dead])
	}
	if q := lc.handledQueued.Load() - queued0; q < int64(len(local)) {
		t.Errorf("the adopted slot served %d messages from its queue, want at least the %d lookups that buffered", q, len(local))
	}
}
