// Tests for the run-to-completion hand-off (runInline): which goroutine
// runs a handler is decided by the LC's observable state, and every state
// that sends traffic back to the inbox keeps its old semantics. The
// TestChaosInline names put these in the -race seed matrix and in the
// GOMAXPROCS 1/2/8 interleaving matrix (CI jobs chaos and chaos-procs).
package router

import (
	"context"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spal/internal/fabric"
	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/metrics"
	"spal/internal/partition"
	"spal/internal/rtable"
	"spal/internal/stats"
)

// handled sums the per-LC handler-run counters.
func handled(r *Router) (inline, queued int64) {
	for _, lc := range r.lcs {
		inline += lc.handledInline.Load()
		queued += lc.handledQueued.Load()
	}
	return
}

// handledDirect sums the requests served at their home by their requester
// (path="direct"): exchanges that never became messages.
func handledDirect(r *Router) (direct int64) {
	for _, lc := range r.lcs {
		direct += lc.handledDirect.Load()
	}
	return
}

// TestChaosInlineKilledLCQueues: from the moment KillLC returns nothing is
// served inline at the dead slot — not even a warmed cache hit, which the
// corpse could answer — and the lookups submitted there before the
// rebirth buffer in its queue, are handled once it is adopted, and
// come back oracle-correct. The hour-long timeout keeps the monitor's ticker
// out: the test runs the check that adopts the slot itself.
func TestChaosInlineKilledLCQueues(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	oracle := lpm.NewReference(tbl)
	r, err := New(tbl, WithLCs(4), WithDefaultCache(), WithRequestTimeout(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	const dead = 2
	rng := stats.NewRNG(11)
	addrs := make([]ip.Addr, 64)
	for i := range addrs {
		addrs[i] = tbl.RandomMatchedAddr(rng)
		if _, err := r.Lookup(dead, addrs[i]); err != nil { // warm the corpse-to-be
			t.Fatal(err)
		}
	}
	if in := r.lcs[dead].handledInline.Load(); in < int64(len(addrs)) {
		t.Fatalf("warm-up ran %d handlers inline at an idle LC, want at least %d", in, len(addrs))
	}

	if err := r.KillLC(dead); err != nil {
		t.Fatal(err)
	}
	inlineAtKill := r.lcs[dead].handledInline.Load()
	chans := make([]<-chan Verdict, len(addrs))
	for i, a := range addrs {
		if chans[i], err = lookupAsync(r, dead, a); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.lcs[dead].handledInline.Load(); got != inlineAtKill {
		t.Errorf("%d handlers ran inline at a killed LC", got-inlineAtKill)
	}
	r.healthCheck(r.now())
	for i, ch := range chans {
		select {
		case v := <-ch:
			if !verdictMatches(v, oracle, addrs[i]) {
				t.Errorf("lookup %d at the dead slot: wrong verdict %+v", i, v)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("lookup %d submitted at the dead slot never completed", i)
		}
	}
	if r.LCStates()[dead] != LCDown {
		t.Errorf("LC %d is %s after the lookups drained, want down (re-homed)", dead, r.LCStates()[dead])
	}
	// The reborn shell is live again: a lookup there runs inline.
	waitFor(t, "the reborn slot to serve inline", func() bool {
		before := r.lcs[dead].handledInline.Load()
		v, err := r.Lookup(dead, addrs[0])
		if err != nil || !verdictMatches(v, oracle, addrs[0]) {
			t.Fatalf("lookup at the reborn slot: %+v, %v", v, err)
		}
		return r.lcs[dead].handledInline.Load() > before
	})
}

// TestChaosInlineQueuesBehindBacklog: an LC with anything unhandled — a
// control message, a data message, a running handler — is not idle, and a
// caller queues behind it instead of running ahead of it.
func TestChaosInlineQueuesBehindBacklog(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	oracle := lpm.NewReference(tbl)
	r, err := New(tbl, WithLCs(2), WithDefaultCache(), WithRequestTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	var addr ip.Addr
	for rng := stats.NewRNG(5); ; {
		if addr = tbl.RandomMatchedAddr(rng); r.HomeLC(addr) == 0 {
			break
		}
	}
	lookup := func() Verdict {
		t.Helper()
		v, err := r.Lookup(0, addr)
		if err != nil || !verdictMatches(v, oracle, addr) {
			t.Fatalf("lookup: %+v, %v", v, err)
		}
		return v
	}
	lookup()
	if v := lookup(); v.ServedBy != ServedByCache {
		t.Fatalf("warmed lookup served by %s, want cache", v.ServedBy)
	}

	// The claim itself, on each condition alone.
	lc := r.lcs[0]
	lc.backlog.Add(1)
	if r.enter(0) != nil {
		t.Fatal("enter claimed an LC with an unhandled message")
	}
	lc.backlog.Add(-1)
	lc.mu.Lock()
	if r.enter(0) != nil {
		t.Fatal("enter claimed an LC whose lock is held")
	}
	lc.mu.Unlock()
	if got := r.enter(0); got != lc {
		t.Fatal("enter refused an idle LC")
	}
	r.leave(lc, 0)

	// A pending control message: the caller's own FlushCaches is in force
	// for its next Lookup, every time, although the flush is asynchronous.
	for i := 0; i < 200; i++ {
		r.FlushCaches()
		if v := lookup(); v.ServedBy == ServedByCache {
			t.Fatalf("round %d: a lookup overtook the flush submitted before it", i)
		}
	}

	// A stalled LC: callers queue, in order, and nothing runs inline.
	release := gateLC(t, r, 0)
	inline0 := lc.handledInline.Load()
	var chans []<-chan Verdict
	for i := 0; i < 8; i++ {
		ch, err := lookupAsync(r, 0, addr)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	if got := len(r.inboxes[0]); got != len(chans) {
		t.Errorf("inbox holds %d messages behind the stalled LC, want %d", got, len(chans))
	}
	if got := lc.handledInline.Load(); got != inline0 {
		t.Errorf("%d handlers ran inline at a stalled LC", got-inline0)
	}
	release()
	for _, ch := range chans {
		if v := <-ch; !verdictMatches(v, oracle, addr) {
			t.Errorf("queued lookup: wrong verdict %+v", v)
		}
	}
}

// TestChaosInlineTicksWhileCallersHogP: with one P and callers that never
// block, the monitor's sweep runs only when the scheduler preempts a caller,
// so the tick stamps and deadline sweeps must ride the callers' own inline
// runs (tick-if-due in leave). Right after each lookup returns, its caller
// reads the tick stamp of the LC it looked up at: the stamp may be at most
// tickEvery older than the start of the caller's hitTimedEvery-th last
// lookup there. A stamped run at the LC in that window ticks it if it is
// due, and one hit in hitTimedEvery is stamped. The bound is the caller's
// own time, so a stall of the whole process (the host descheduling it)
// stretches bound and age alike. A sampler goroutine on the same P reads
// every LC's stamp whenever it gets the P, as the monitor would but without
// sweeping first; it compares a stamp with wall time, which a stall does
// move, so its oldest reading is logged, not judged. Clean fabric. One link
// dropping everything: the lookups crossing it still end in the fallback
// engine, oracle-correct, while the other callers keep the P busy. Nothing
// but warmed cache hits: no miss ever brings a stamp, and the tick rides
// the one hit in hitTimedEvery that is timed.
func TestChaosInlineTicksWhileCallersHogP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tbl := rtable.Small(2000, 7)
	oracle := lpm.NewReference(tbl)
	const (
		timeout = 4 * time.Millisecond
		unit    = 20 * time.Millisecond // the clean run lasts three, the others ten
	)
	// What caller lc looks up next, and where: at its own LC, anything.
	pick := func(lc int, rng *stats.RNG) (int, ip.Addr) { return lc, tbl.RandomMatchedAddr(rng) }
	// hog runs the callers for d, holds every stamp a caller reads to its
	// bound, and reports the oldest stamp the sampler read.
	hog := func(t *testing.T, r *Router, d time.Duration, check func(lc int, a ip.Addr, v Verdict, took time.Duration)) (oldest time.Duration) {
		var wg sync.WaitGroup
		stop := time.Now().Add(d)
		for caller := 0; caller < r.NumLCs(); caller++ {
			wg.Add(1)
			go func(caller int) {
				defer wg.Done()
				rng := stats.NewRNG(uint64(caller)*13 + 1)
				// starts[lc] is a ring of this caller's last hitTimedEvery
				// lookup starts at lc, read off the router's clock.
				starts := make([][hitTimedEvery]int64, r.NumLCs())
				count := make([]int, r.NumLCs())
				for t0 := time.Now(); t0.Before(stop); {
					lc, a := pick(caller, rng)
					starts[lc][count[lc]%hitTimedEvery] = r.now()
					count[lc]++
					v, err := r.Lookup(lc, a)
					stamp, now := r.lcs[lc].lastTick.Load(), r.now()
					if err != nil {
						t.Errorf("lookup at LC %d: %v", lc, err)
						return
					}
					if count[lc] >= hitTimedEvery {
						first := starts[lc][count[lc]%hitTimedEvery] // the hitTimedEvery-th last start
						if age, window := time.Duration(now-stamp), time.Duration(now-first); age > r.tickEvery+window {
							t.Errorf("caller %d read LC %d's tick stamp %v old, %v after its %dth-last lookup there began (bound %v + %v)",
								caller, lc, age, window, hitTimedEvery, r.tickEvery, window)
							return
						}
					}
					t1 := time.Now()
					if !verdictMatches(v, oracle, a) {
						t.Errorf("wrong verdict at LC %d for %s: %+v", lc, ip.FormatAddr(a), v)
						return
					}
					check(lc, a, v, t1.Sub(t0))
					t0 = t1
				}
			}(caller)
		}
		sampled := make(chan time.Duration)
		go func() {
			var oldest time.Duration
			for time.Now().Before(stop) {
				now := r.now()
				for _, lc := range r.lcs {
					oldest = max(oldest, time.Duration(now-lc.lastTick.Load()))
				}
				time.Sleep(time.Millisecond)
			}
			sampled <- oldest
		}()
		wg.Wait()
		return <-sampled
	}
	checkStamps := func(t *testing.T, r *Router, oldest time.Duration) {
		t.Helper()
		t.Logf("oldest tick stamp the sampler read: %v", oldest)
		if r.suspects.Load() != 0 {
			t.Errorf("%d Healthy→Suspect demotions while callers hogged the P; states %v", r.suspects.Load(), r.LCStates())
		}
	}

	t.Run("clean", func(t *testing.T) {
		r, err := New(tbl, WithLCs(4), WithoutCache(), WithRequestTimeout(timeout))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Stop()
		checkStamps(t, r, hog(t, r, 3*unit, func(int, ip.Addr, Verdict, time.Duration) {}))
		inline, queued := handled(r)
		if inline == 0 || queued > inline/10 {
			t.Errorf("handlers: %d inline, %d queued — the callers were meant to run them", inline, queued)
		}
	})

	t.Run("dead-link", func(t *testing.T) {
		dropped := func(m fabric.Message) fabric.Decision {
			return fabric.Decision{Drop: m.Src == 0 && m.Dst == 1}
		}
		r, err := New(tbl, WithLCs(4), WithoutCache(), WithRequestTimeout(timeout), WithMaxRetries(1),
			WithFaultInjector(dropped))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Stop()
		var crossed atomic.Int64
		oldest := hog(t, r, 10*unit, func(lc int, a ip.Addr, v Verdict, took time.Duration) {
			if lc != 0 || r.part.HomeLC(a) != 1 {
				return
			}
			crossed.Add(1)
			if v.ServedBy != ServedByFallback {
				t.Errorf("lookup over the dead link served by %s, want fallback", v.ServedBy)
			}
			// Two deadlines (4 ms, then 8 ms of backoff) plus the tick that
			// notices each; a second is what a starved sweep would blow.
			if took > time.Second {
				t.Errorf("lookup over the dead link took %v", took)
			}
		})
		if crossed.Load() == 0 {
			t.Error("no lookup crossed the dead link")
		}
		checkStamps(t, r, oldest)
	})

	t.Run("all-hit", func(t *testing.T) {
		r, err := New(tbl, WithLCs(4), WithDefaultCache(), WithRequestTimeout(timeout))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Stop()
		const warmed = 8
		addrs := distinctAddrs(tbl, stats.NewRNG(17), warmed*r.NumLCs())
		for i, a := range addrs {
			if _, err := r.Lookup(i/warmed, a); err != nil {
				t.Fatal(err)
			}
		}
		// Every caller goes round all the warmed addresses, so round the LCs:
		// an LC is ticked by whoever holds the P, not only by a caller of its
		// own that may be waiting a quantum or three for it.
		next := make([]int, r.NumLCs()) // a cursor a caller
		pick = func(caller int, _ *stats.RNG) (int, ip.Addr) {
			next[caller]++
			i := next[caller] % len(addrs)
			return i / warmed, addrs[i]
		}
		// As long as the dead link's run: the monitor gets the P at a
		// preemption now and then, and its sweep ticks what it finds free, so
		// a tick no hit carries shows in the sampler's readings only by chance.
		checkStamps(t, r, hog(t, r, 10*unit, func(_ int, a ip.Addr, v Verdict, _ time.Duration) {
			if v.ServedBy != ServedByCache {
				t.Errorf("warmed %s served by %s", ip.FormatAddr(a), v.ServedBy)
			}
		}))
		inline, queued := handled(r)
		if inline == 0 || queued > inline/10 {
			t.Errorf("handlers: %d inline, %d queued — the callers were meant to run them", inline, queued)
		}
	})
}

// TestChaosInlineRaceStress: single lookups at every LC — the inline path —
// concurrent with everything that takes an LC away from its callers:
// whole-table swaps, incremental updates, a kill/re-home/restore cycle.
// Every verdict must match a table version live during its lookup.
func TestChaosInlineRaceStress(t *testing.T) {
	tbl := rtable.Small(1500, 71)
	for _, seed := range chaosSeeds(t) {
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			r, err := New(tbl, WithLCs(4), WithDefaultCache(), WithEngineName("bintrie"),
				WithRequestTimeout(5*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()

			oracle := newVersionedOracle(tbl)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var wrong, served, updates atomic.Int64

			// Writer: alternate incremental batches and whole-table swaps.
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := stats.NewRNG(seed * 31)
				cur := tbl
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					stream := churnStream(cur, rng.Uint64())
					next := cur.ApplyAll(stream)
					if len(stream) == 0 || next.Len() == 0 {
						continue
					}
					oracle.announce(next)
					if i%4 == 3 {
						err = r.UpdateTable(next)
					} else {
						err = r.ApplyUpdates(stream)
					}
					if err != nil {
						return // stopping
					}
					oracle.settle()
					updates.Add(1)
					cur = next
				}
			}()

			// Chaos: kill LC 3, wait for the re-home, restore it, repeat.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					case <-time.After(20 * time.Millisecond):
					}
					if r.KillLC(3) != nil {
						continue
					}
					for r.LCStates()[3] != LCDown {
						select {
						case <-stop:
							return
						case <-time.After(time.Millisecond):
						}
					}
					_ = r.RestoreLC(3)
				}
			}()

			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := stats.NewRNG(seed + 1000 + uint64(w)*17)
					for {
						select {
						case <-stop:
							return
						default:
						}
						a := tbl.RandomMatchedAddr(rng)
						if rng.Intn(4) == 0 {
							a = rng.Uint32()
						}
						lo, _ := oracle.window()
						v, err := r.Lookup(w, a)
						if err != nil {
							return // stopping
						}
						_, hi := oracle.window()
						served.Add(1)
						if !oracle.matches(v, a, lo, hi) {
							wrong.Add(1)
						}
					}
				}(w)
			}

			time.Sleep(400 * time.Millisecond)
			close(stop)
			wg.Wait()

			if w := wrong.Load(); w != 0 {
				t.Fatalf("%d wrong verdicts among %d served", w, served.Load())
			}
			if served.Load() == 0 || updates.Load() == 0 {
				t.Fatalf("served %d lookups over %d updates: the race was not run", served.Load(), updates.Load())
			}
			inline, queued := handled(r)
			if inline == 0 || queued == 0 {
				t.Errorf("handlers: %d inline, %d queued — both paths were meant to run", inline, queued)
			}
			t.Logf("served=%d updates=%d rehomes=%d inline=%d queued=%d", served.Load(), updates.Load(), r.rehomes.Load(), inline, queued)
		})
	}
}

// TestChaosInlineStopUnderDelay: Stop while the injector is delaying fabric
// messages and callers keep submitting. A delayed message's helper
// goroutine runs handlers inline like any other sender, so its handler's
// reply can itself be up for a delay while Stop is waiting for the helper;
// Stop must not hold anything that send needs.
func TestChaosInlineStopUnderDelay(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	delayed := func(fabric.Message) fabric.Decision { return fabric.Decision{Delay: 20 * time.Microsecond} }
	rounds := 150
	if testing.Short() {
		rounds = 50
	}
	for round := 0; round < rounds; round++ {
		r, err := New(tbl, WithLCs(4), WithoutCache(), WithFaultInjector(delayed))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for lc := 0; lc < r.NumLCs(); lc++ {
			wg.Add(1)
			go func(lc int) {
				defer wg.Done()
				rng := stats.NewRNG(uint64(round*4+lc) + 1)
				for {
					if _, err := lookupAsync(r, lc, tbl.RandomMatchedAddr(rng)); err != nil {
						return // stopped
					}
				}
			}(lc)
		}
		time.Sleep(time.Duration(50+round%8*50) * time.Microsecond)
		stopped := make(chan struct{})
		go func() {
			r.Stop()
			close(stopped)
		}()
		select {
		case <-stopped:
		case <-time.After(10 * time.Second):
			buf := make([]byte, 1<<20)
			t.Fatalf("round %d: Stop did not return\n%s", round, buf[:runtime.Stack(buf, true)])
		}
		wg.Wait()
	}
}

// inlineNesting counts the runInline frames on the calling goroutine's
// stack. Called from a fault injector it sees the stack a fabric message is
// sent from, which is the stack its handler would nest on.
func inlineNesting() int {
	pcs := make([]uintptr, 2048)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
	n := 0
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "(*Router).runInline") {
			n++
		}
		if !more {
			return n
		}
	}
}

// TestChaosInlineDepthBounded: inline runs nest on the sender's stack, and
// the protocol has one open-ended exchange — a requester that has swapped
// to a new table re-drives every reply from a home that has not, for as
// long as that home's install has not reached it. Held in that
// state by hand, request and stale reply must go round through the inbox
// every maxInlineDepth hand-offs instead of down one stack; and real
// UpdateTable calls under load must stay inside the same bound.
func TestChaosInlineDepthBounded(t *testing.T) {
	t1 := rtable.Small(1500, 7)
	t2 := rtable.Small(1500, 8)
	o2 := lpm.NewReference(t2)
	p2 := partition.Partition(t2, 2)
	var deepest atomic.Int64
	probe := func(fabric.Message) fabric.Decision {
		if n := int64(inlineNesting()); n > deepest.Load() {
			deepest.Store(n) // racy max is fine: any excess trips the check
		}
		return fabric.Decision{}
	}
	r, err := New(t1, WithLCs(2), WithDefaultCache(), WithFaultInjector(probe), WithRequestTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	const home, req = 1, 0
	var addr ip.Addr
	for rng := stats.NewRNG(29); ; {
		if addr = t2.RandomMatchedAddr(rng); r.HomeLC(addr) == home && p2.HomeLC(addr) == home {
			break
		}
	}
	tables := p2.Tables()
	swap := func(i int) {
		engine := r.cfg.Engine(tables[i])
		r.install(i, func(lc *lineCard) { lc.installTable(engine, p2.HomeLC, r.gen) })
	}

	r.mu.Lock()
	r.fallback.Store(rtable.NewIndex(t2))
	r.gen++
	swap(req) // the requester is ahead; the home has yet to be reached
	got := make(chan Verdict, 1)
	go func() {
		v, err := r.Lookup(req, addr)
		if err != nil {
			t.Error(err)
		}
		got <- v
	}()
	stale := &r.stats[req].StaleGenReplies
	waitFor(t, "the stale re-drive to go round a few thousand times", func() bool {
		return stale.Load() >= 5000 || deepest.Load() > maxInlineDepth
	})
	swap(home)
	r.install(req, r.rekey)
	r.install(home, r.rekey)
	r.part = p2
	r.mu.Unlock()

	select {
	case v := <-got:
		if !verdictMatches(v, o2, addr) {
			t.Errorf("verdict %+v (served by %s) is not the new table's", v, v.ServedBy)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the re-driven lookup never completed")
	}
	if d := deepest.Load(); d > maxInlineDepth || d < 2 {
		t.Fatalf("%d stale replies re-driven with inline runs nested %d deep, want 2..%d", stale.Load(), d, maxInlineDepth)
	}

	// The same bound with nobody holding the window open.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for lc := 0; lc < r.NumLCs(); lc++ {
		wg.Add(1)
		go func(lc int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(lc) + 41)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := r.Lookup(lc, t1.RandomMatchedAddr(rng)); err != nil {
					t.Error(err)
					return
				}
			}
		}(lc)
	}
	for i, tbl := range []*rtable.Table{t1, t2, t1, t2} {
		if err := r.UpdateTable(tbl); err != nil {
			t.Fatalf("UpdateTable %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if d := deepest.Load(); d > maxInlineDepth {
		t.Fatalf("inline runs nested %d deep across UpdateTable under load, want at most %d", d, maxInlineDepth)
	}
}

// TestHandledMetric reconciles spal_router_handled_total with the messages
// the router handled: every lookup (a batch is one), fabric request and
// fabric reply is one handler run, inline or queued, and which of the two
// follows from whether the LC was idle — except that a request whose home was
// idle too is served there by its requester, one direct run standing for the
// request and the reply that were counted and never sent, a single lookup's
// or a batch's: inline + queued + 2·direct = lookups + requests + replies,
// exactly. A scrape is no message and adds nothing, however many there are.
func TestHandledMetric(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	for _, tc := range []struct {
		name  string
		stall bool // LC 0 is wedged while the lookups arrive
		batch bool // they arrive as batches of 64, each one handler run
	}{
		{"idle single caller", false, false},
		{"stalled arrival LC", true, false},
		{"idle batch caller", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := New(tbl, WithLCs(4), WithDefaultCache(), WithRequestTimeout(time.Second))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()
			r.Metrics()
			r.Metrics()
			var fabric int64
			release := func() {}
			if tc.stall {
				release = gateLC(t, r, 0)
			}

			const n = 200
			rng := stats.NewRNG(9)
			var chans []<-chan Verdict
			lookups := int64(n)
			if tc.batch {
				// At every LC in turn; an idle router asks each remote home by call.
				out := make([]Verdict, 64)
				for b := 0; b < n; b++ {
					if err := r.LookupBatchInto(context.Background(), b%r.NumLCs(), batchAddrs(tbl, rng, len(out)), out); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				chans = make([]<-chan Verdict, n)
				for i := range chans {
					if chans[i], err = lookupAsync(r, 0, tbl.RandomMatchedAddr(rng)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if tc.stall {
				// Misses homed at the stalled LC, submitted at an idle one: their
				// requests wait in its inbox like everything else sent there.
				toStalled := remoteAddrs(t, r, tbl, rng, 0, 8)
				for _, a := range toStalled {
					ch, err := lookupAsync(r, 1, a)
					if err != nil {
						t.Fatal(err)
					}
					chans = append(chans, ch)
				}
				lookups += int64(len(toStalled))
				if in := r.lcs[0].handledInline.Load(); in != 0 {
					t.Errorf("%d handlers ran inline at the stalled LC", in)
				}
			} else if _, queued := handled(r); queued != 0 {
				t.Errorf("%d handlers queued on an idle router with one caller", queued)
			}
			release()
			for _, ch := range chans {
				<-ch
			}

			s := r.Metrics()
			for _, st := range r.Stats() {
				fabric += st.RequestsSent.Load() + st.RepliesSent.Load()
			}
			inline, queued := handled(r)
			direct := handledDirect(r)
			if inline+queued+2*direct != lookups+fabric {
				t.Errorf("handled %d inline + %d queued + 2 × %d direct = %d, want %d lookups + %d fabric messages",
					inline, queued, direct, inline+queued+2*direct, lookups, fabric)
			}
			if tc.stall {
				if in := r.lcs[0].handledInline.Load(); in != 0 {
					t.Errorf("the stalled LC ran %d handlers inline, want all %d lookups and their replies queued", in, n)
				}
				if d := r.lcs[0].handledDirect.Load(); d != 0 {
					t.Errorf("%d requests were served direct at the stalled home, want them all in its inbox", d)
				}
			} else {
				if queued != 0 {
					t.Errorf("queued = %d on an idle router with one caller, want 0", queued)
				}
				if direct == 0 || direct*2 != fabric {
					t.Errorf("direct = %d of %d fabric messages counted on an idle router with one caller, want every exchange", direct, fabric)
				}
			}
			for path, want := range map[string]int64{"inline": inline, "queued": queued, "direct": direct} {
				var got float64
				for i := 0; i < r.NumLCs(); i++ {
					v, ok := s.Value(MetricHandled, metrics.L("lc", strconv.Itoa(i)), metrics.L("path", path))
					if !ok {
						t.Errorf("%s{lc=%d,path=%q} missing from the snapshot", MetricHandled, i, path)
					}
					got += v
				}
				if int64(got) != want {
					t.Errorf("%s{path=%q} sums to %v, want %d", MetricHandled, path, got, want)
				}
			}
		})
	}
}

// TestChaosDirectCrossfire: callers crossing — two at LC 0 missing on
// addresses homed at LC 1, two at LC 1 missing on LC 0's — each want the
// other's lock while holding their own. Both lose the TryLock and both
// take the message path, so nobody waits for anybody; beside them a writer
// applies updates and flushes the caches, which waits for each LC's lock in
// turn. It must end, every verdict must match a table version live during
// its call, both ways of asking a home must have been taken, and nothing may
// be left parked.
func TestChaosDirectCrossfire(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	tbl := rtable.Small(1500, 71)
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
		rng := stats.NewRNG(chaosSeeds(t)[0] * 31)
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
	for w := 0; w < 4; w++ {
		at := w % 2
		addrs := remoteAddrs(t, r, tbl, stats.NewRNG(uint64(w)+3), 1-at, 1500)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a := addrs[i%len(addrs)]
				lo, _ := oracle.window()
				v, err := r.Lookup(at, a)
				if err != nil {
					t.Error(err)
					return
				}
				_, hi := oracle.window()
				served.Add(1)
				if !oracle.matches(v, a, lo, hi) {
					wrong.Add(1)
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
		t.Fatalf("crossing callers never ended\n%s", buf[:runtime.Stack(buf, true)])
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
}
