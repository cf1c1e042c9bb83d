package router

import (
	"context"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spal/internal/fabric"
	"spal/internal/ip"
	"spal/internal/rtable"
	"spal/internal/stats"
)

const pendingMinSlots = 1 << pendingMinBits

// pendingModel is the in-flight table's model: the map it replaced, beside
// the table itself, every operation applied to both and every answer
// compared.
type pendingModel struct {
	t      *testing.T
	tb     pendingTable
	m      map[ip.Addr]*waitlist
	checks int
}

func newPendingModel(t *testing.T, seed uint64) *pendingModel {
	return &pendingModel{t: t, tb: newPendingTable(seed), m: map[ip.Addr]*waitlist{}}
}

func (pm *pendingModel) get(a ip.Addr) *waitlist {
	pm.t.Helper()
	got := pm.tb.get(a)
	if got != pm.m[a] {
		pm.t.Fatalf("get(%#x) = %p, the map holds %p", a, got, pm.m[a])
	}
	return got
}

// put parks a fresh waitlist under a, unless a is present (put's contract).
func (pm *pendingModel) put(a ip.Addr) {
	pm.t.Helper()
	if pm.get(a) != nil {
		return
	}
	wl := &waitlist{}
	pm.tb.put(a, wl)
	pm.m[a] = wl
	pm.check()
}

func (pm *pendingModel) delete(a ip.Addr) {
	pm.t.Helper()
	got := pm.tb.delete(a)
	if got != pm.m[a] {
		pm.t.Fatalf("delete(%#x) = %p, the map holds %p", a, got, pm.m[a])
	}
	delete(pm.m, a)
	pm.check()
}

// check holds the table to its invariants and to the model's contents
// after a put or a delete: the load stays at or under a half, an empty table
// is at its initial size — and, on every 16th call and whenever the table
// is small, all that checkAll looks at.
func (pm *pendingModel) check() {
	pm.t.Helper()
	tb := &pm.tb
	if tb.len() == 0 && (len(tb.slots) != pendingMinSlots || cap(tb.dense) != pendingMinSlots/2) {
		pm.t.Fatalf("drained table keeps %d slots and room for %d entries", len(tb.slots), cap(tb.dense))
	}
	if pm.checks++; pm.checks%16 == 0 || tb.len() < 32 {
		pm.checkAll()
	}
}

// checkAll: every dense entry is the map's, its slot points back at it and
// is reachable from its home slot with no empty slot on the way; nothing
// else is in a slot, and nothing deleted is still referenced.
func (pm *pendingModel) checkAll() {
	pm.t.Helper()
	tb := &pm.tb
	if tb.len() != len(pm.m) {
		pm.t.Fatalf("table holds %d entries, the map %d", tb.len(), len(pm.m))
	}
	if n := len(tb.slots); n&(n-1) != 0 || n < pendingMinSlots || 2*tb.len() > n || tb.shift != uint(64-bits.TrailingZeros(uint(n))) {
		pm.t.Fatalf("%d slots (shift %d) for %d entries", n, tb.shift, tb.len())
	}
	if tb.cursor > tb.len() {
		pm.t.Fatalf("cursor %d beyond %d entries", tb.cursor, tb.len())
	}
	used := 0
	for i, s := range tb.slots {
		if s.pos == 0 {
			continue
		}
		used++
		if int(s.pos) > tb.len() || tb.dense[s.pos-1].addr != s.addr || int(tb.dense[s.pos-1].slot) != i {
			pm.t.Fatalf("slot %d = %+v does not match its dense entry", i, s)
		}
	}
	if used != tb.len() {
		pm.t.Fatalf("%d slots in use for %d entries", used, tb.len())
	}
	mask := len(tb.slots) - 1
	for k, e := range tb.dense {
		if e.wl == nil || pm.m[e.addr] != e.wl || tb.slots[e.slot].addr != e.addr || int(tb.slots[e.slot].pos) != k+1 {
			pm.t.Fatalf("dense[%d] = %+v: map holds %p, slot %+v", k, e, pm.m[e.addr], tb.slots[e.slot])
		}
		for i := tb.home(e.addr); i != int(e.slot); i = (i + 1) & mask {
			if tb.slots[i].pos == 0 {
				pm.t.Fatalf("%#x sits in slot %d behind empty slot %d of its chain", e.addr, e.slot, i)
			}
		}
	}
	for _, e := range tb.dense[len(tb.dense):cap(tb.dense)] {
		if e.wl != nil {
			pm.t.Fatalf("a deleted entry still pins waitlist %p", e.wl)
		}
	}
}

// order is the addresses in the order a walk that changes nothing visits
// them.
func (pm *pendingModel) order() []ip.Addr {
	var out []ip.Addr
	pm.tb.walk()
	for a, wl, ok := pm.tb.next(); ok; a, wl, ok = pm.tb.next() {
		if wl != pm.m[a] {
			pm.t.Fatalf("walk yields %p for %#x, the map holds %p", wl, a, pm.m[a])
		}
		out = append(out, a)
	}
	return out
}

// mutatingWalk walks the table and, at every entry, lets choose pick
// addresses to delete and to park; it then holds the walk to its contract:
// an entry present when the walk began and not deleted before its turn is
// visited exactly once, nothing is visited twice, and nothing parked during
// the walk is visited at all.
func (pm *pendingModel) mutatingWalk(choose func(cur ip.Addr) (del, put []ip.Addr)) {
	pm.t.Helper()
	began := map[*waitlist]bool{}
	for _, wl := range pm.m {
		began[wl] = true
	}
	visited := map[*waitlist]bool{}
	pm.tb.walk()
	for a, wl, ok := pm.tb.next(); ok; a, wl, ok = pm.tb.next() {
		switch {
		case pm.m[a] != wl:
			pm.t.Fatalf("walk visits %#x with %p, the map holds %p", a, wl, pm.m[a])
		case !began[wl]:
			pm.t.Fatalf("walk visits %#x, parked after it began", a)
		case visited[wl]:
			pm.t.Fatalf("walk visits %#x twice", a)
		}
		visited[wl] = true
		del, put := choose(a)
		for _, d := range del {
			pm.delete(d)
		}
		for _, p := range put {
			pm.put(p)
		}
	}
	for a, wl := range pm.m {
		if began[wl] && !visited[wl] {
			pm.t.Fatalf("walk missed %#x, present throughout", a)
		}
	}
	pm.checkAll()
}

// sameHome returns n addresses whose home slot in a table of the initial
// size, hashed with seed, is the same one.
func sameHome(seed uint64, n int) []ip.Addr {
	tb := newPendingTable(seed)
	var out []ip.Addr
	for a := ip.Addr(1); len(out) < n; a++ {
		if tb.home(a) == tb.home(1) {
			out = append(out, a)
		}
	}
	return out
}

// pendingKeys is the key set the model tests draw from: few enough to
// collide and to be deleted and parked again, enough to make the table grow
// twice, with a chain built to pile onto one home slot under seed and
// another onto the last slots, so that it wraps.
func pendingKeys(seed uint64) []ip.Addr {
	keys := sameHome(seed, 24)
	tb := newPendingTable(seed)
	for a := ip.Addr(1 << 20); len(keys) < 48; a++ {
		if tb.home(a) >= pendingMinSlots-3 {
			keys = append(keys, a)
		}
	}
	rng := stats.NewRNG(seed)
	for len(keys) < 600 {
		keys = append(keys, ip.Addr(rng.Uint32()))
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// TestPendingTableModel: 120,000 seeded operations a seed, walks that
// delete and park under themselves among them, against the map; the table
// grows twice, wraps, and is back at its initial size each time it drains.
func TestPendingTableModel(t *testing.T) {
	for _, seed := range []uint64{1, 2, 0xdecafbad} {
		pm := newPendingModel(t, seed)
		keys := pendingKeys(seed)
		rng := stats.NewRNG(seed ^ 77)
		key := func() ip.Addr { return keys[rng.Intn(len(keys))] }
		grown, drains := 0, 0
		for op := 1; op <= 120000; op++ {
			switch k := rng.Intn(100); {
			case k < 30:
				pm.get(key())
			case k < 31 && op%4 != 0:
				pm.get(key())
			case k < 31:
				pm.mutatingWalk(func(ip.Addr) (del, put []ip.Addr) {
					for n := rng.Intn(3); n > 0; n-- {
						del = append(del, key())
					}
					for n := rng.Intn(3); n > 0; n-- {
						put = append(put, key())
					}
					return del, put
				})
			case k < 75:
				pm.put(key())
			default:
				pm.delete(key())
			}
			if len(pm.tb.slots) >= 4*pendingMinSlots {
				grown++
			}
			if op%20000 == 0 { // the burst ends: every key goes, in no particular order
				for _, i := range rng.Perm(len(keys)) {
					pm.delete(keys[i]) // check holds the empty table to its initial size
				}
				drains++
			}
		}
		if grown == 0 || drains == 0 || pm.tb.len() != 0 {
			t.Fatalf("seed %d: past two doublings on %d operations, %d drains, %d entries left", seed, grown, drains, pm.tb.len())
		}
	}
}

// TestPendingTableWalkOrder: a walk visits in reverse park order, whatever
// the seed and however often the table has grown meanwhile; a deletion
// moves the newest entry into the hole and changes nothing else; take hands
// the entries over in park order and leaves an empty table.
func TestPendingTableWalkOrder(t *testing.T) {
	var want []ip.Addr // park order
	a, b := newPendingModel(t, 1), newPendingModel(t, 99)
	for i := 0; i < 5*pendingMinSlots; i++ {
		addr := ip.Addr(i * 2654435761)
		want = append(want, addr)
		a.put(addr)
		b.put(addr)
		if i%97 == 0 || i == 5*pendingMinSlots-1 {
			rev := slices.Clone(want)
			slices.Reverse(rev)
			if got := a.order(); !slices.Equal(got, rev) {
				t.Fatalf("after %d parks in %d slots the walk is not reverse park order", i+1, len(a.tb.slots))
			}
			if !slices.Equal(a.order(), b.order()) {
				t.Fatalf("after %d parks the walk depends on the seed", i+1)
			}
		}
	}
	if len(a.tb.slots) < 8*pendingMinSlots {
		t.Fatalf("%d slots after %d parks: the table never grew", len(a.tb.slots), len(want))
	}
	// Delete every third entry: the last one moves into each hole.
	for i := 0; i < len(want); i += 3 {
		last := len(want) - 1
		a.delete(want[i])
		b.delete(want[i])
		want[i] = want[last]
		want = want[:last]
	}
	rev := slices.Clone(want)
	slices.Reverse(rev)
	if got := a.order(); !slices.Equal(got, rev) || !slices.Equal(b.order(), rev) {
		t.Fatal("after deletions the walk is not park order with the newest moved into each hole")
	}
	held := a.tb.take()
	if len(held) != len(want) || a.tb.len() != 0 || len(a.tb.slots) != pendingMinSlots {
		t.Fatalf("take returned %d of %d entries and left %d in %d slots", len(held), len(want), a.tb.len(), len(a.tb.slots))
	}
	for i, e := range held {
		if e.addr != want[i] || e.wl != a.m[e.addr] {
			t.Fatalf("take: entry %d is %#x, park order has %#x", i, e.addr, want[i])
		}
	}
}

// FuzzPendingTable runs a program of table operations — two bytes each, an
// operation and a key out of pendingKeys — against the map model: get, put,
// delete, a walk that changes nothing and must repeat itself, and a walk
// whose body deletes and parks the keys the next bytes name.
func FuzzPendingTable(f *testing.F) {
	f.Add(uint64(1), []byte{1, 0, 1, 1, 1, 2, 2, 1, 0, 1, 3, 0})
	f.Add(uint64(2), []byte("\x01\x00\x01\x01\x01\x02\x01\x03\x04\x00\x02\x01\x01\x17\x02\x03\x01\x18"))
	var grow []byte
	for i := 0; i < 300; i++ { // park 300 keys: two growths
		grow = append(grow, byte(1+5*(i>>8)), byte(i))
	}
	f.Add(uint64(3), append(grow, 4, 7, 9, 9, 3, 0, 7, 200))
	keys := pendingKeys(1) // colliding under seed 1, arbitrary under the others
	f.Fuzz(func(t *testing.T, seed uint64, prog []byte) {
		pm := newPendingModel(t, seed)
		key := func(b byte, hi int) ip.Addr { return keys[(int(b)+hi)%len(keys)] }
		for pc := 0; pc+1 < len(prog); pc += 2 {
			op, k := prog[pc]%5, key(prog[pc+1], 256*int(prog[pc]/5%2))
			switch op {
			case 0:
				pm.get(k)
			case 1:
				pm.put(k)
			case 2:
				pm.delete(k)
			case 3:
				if first := pm.order(); !slices.Equal(first, pm.order()) {
					t.Fatal("two walks that change nothing differ")
				}
			case 4:
				// The body's moves come from the rest of the program, read
				// without consuming it.
				at := pc + 2
				pm.mutatingWalk(func(ip.Addr) (del, put []ip.Addr) {
					if at+1 >= len(prog) {
						return nil, nil
					}
					a, b := key(prog[at], 0), key(prog[at+1], 256)
					at += 2
					if prog[at-2]%2 == 0 {
						return []ip.Addr{a, b}, nil
					}
					return []ip.Addr{a}, []ip.Addr{b}
				})
			}
		}
		for _, a := range keys {
			pm.delete(a)
		}
		if pm.tb.len() != 0 || len(pm.tb.slots) != pendingMinSlots {
			t.Fatalf("drained table has %d entries in %d slots", pm.tb.len(), len(pm.tb.slots))
		}
	})
}

// TestPendingTableSteadyStateAllocs: parking, finding and releasing at a
// standing population — the table's whole life on the miss path — allocates
// nothing, at the initial size and grown.
func TestPendingTableSteadyStateAllocs(t *testing.T) {
	for _, standing := range []int{0, 100, 1000} {
		tb := newPendingTable(5)
		wl := &waitlist{}
		for i := 0; i < standing; i++ {
			tb.put(ip.Addr(i), wl)
		}
		next := ip.Addr(1 << 24)
		allocs := testing.AllocsPerRun(1000, func() {
			for k := ip.Addr(0); k < 16; k++ { // a reply batch's worth in flight at once
				if tb.get(next+k) != nil {
					t.Fatal("address in flight before it was parked")
				}
				tb.put(next+k, wl)
			}
			for k := ip.Addr(0); k < 16; k++ {
				if tb.get(next+k) != wl || tb.delete(next+k) != wl {
					t.Fatal("parked address not found")
				}
			}
			next += 16
		})
		if allocs != 0 {
			t.Errorf("%d standing entries: a park/find/release cycle allocates %v times, want 0", standing, allocs)
		}
	}
}

// TestDeadlineSweepAllocs: one tick over 256 parked addresses, none of them
// due, walks the in-flight table without allocating.
func TestDeadlineSweepAllocs(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	var drop atomic.Int32
	drop.Store(1)
	r, err := New(tbl, WithLCs(2), WithDefaultCache(),
		WithFaultInjector(dropRequests(&drop)), WithRequestTimeout(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	addrs := remoteAddrs(t, r, tbl, stats.NewRNG(3), 1, 256)
	for _, a := range addrs {
		if _, err := lookupAsync(r, 0, a); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "256 lookups to park", func() bool { return r.lcs[0].pendingDepth.Load() == 256 })
	lc := r.lcs[0]
	allocs := testing.AllocsPerRun(100, func() {
		lc.mu.Lock()
		r.tick(lc, r.now())
		r.leave(lc, 0)
	})
	if allocs != 0 {
		t.Errorf("a tick over %d parked addresses allocates %v times, want 0", lc.pendingDepth.Load(), allocs)
	}
	if got := lc.pendingDepth.Load(); got != 256 {
		t.Errorf("%d addresses parked after the ticks, want 256: the sweep was to find nothing due", got)
	}
}

// recordRequests is an injector that loses every request and remembers, in
// call order, the address each one was for (a batch request's is its first).
type recordRequests struct {
	mu    sync.Mutex
	addrs []ip.Addr
}

func (rr *recordRequests) inject(m fabric.Message) fabric.Decision {
	if m.Kind == fabric.Reply {
		return fabric.Decision{}
	}
	rr.mu.Lock()
	rr.addrs = append(rr.addrs, m.Addr)
	rr.mu.Unlock()
	return fabric.Decision{Drop: true}
}

// take returns what has been recorded so far and starts over.
func (rr *recordRequests) take() []ip.Addr {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	out := rr.addrs
	rr.addrs = nil
	return out
}

func (rr *recordRequests) len() int {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return len(rr.addrs)
}

// TestDeadlineSweepOrder: the order in which a line card retries its
// in-flight misses, and the order in which a table swap re-drives them, is a
// function of the order they parked in — the deadline sweep newest first,
// the re-drive oldest first — and so the same on two routers built alike and
// on every run, which is what lets a seeded fault schedule replay. (A map
// gave each sweep a random order of its own.) The routers' clocks are
// pinned, the fabric loses every request, and nothing in the test depends on
// when a ticker fires: the hour-long timeout keeps them all out.
func TestDeadlineSweepOrder(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	const n = 200
	var addrs []ip.Addr
	var sweeps, redrives [2][]ip.Addr
	for k := range sweeps {
		rec := &recordRequests{}
		r, err := New(tbl, WithLCs(2), WithDefaultCache(), WithFaultInjector(rec.inject), WithRequestTimeout(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Stop()
		var clock atomic.Int64
		clock.Store(1)
		r.clock = clock.Load
		if addrs == nil {
			addrs = remoteAddrs(t, r, tbl, stats.NewRNG(3), 1, n)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go r.LookupBatchInto(ctx, 0, addrs, make([]Verdict, n)) // blocks: nothing it asks for arrives
		waitFor(t, "the batch to park", func() bool { return r.lcs[0].pendingDepth.Load() == n && rec.len() == 1 })
		if got := rec.take(); got[0] != addrs[0] {
			t.Fatalf("router %d: the batch request went out for %#x, want the batch's first address %#x", k, got[0], addrs[0])
		}

		// One tick just past every deadline: each address is retried once, a
		// row of the one request the sweep sends the home.
		clock.Store(1 + int64(time.Hour) + 1)
		r.own(0, func(lc *lineCard) {
			r.tick(lc, r.now())
			for _, s := range lc.outbox {
				var one [1]fabricRow
				for _, row := range s.m.rows(&one) {
					sweeps[k] = append(sweeps[k], row.addr)
				}
			}
		})
		if len(sweeps[k]) != n {
			t.Fatalf("router %d: the sweep retried %d addresses, want %d", k, len(sweeps[k]), n)
		}
		if got := rec.take(); len(got) != 1 {
			t.Fatalf("router %d: the sweep sent %d requests to one home, want 1", k, len(got))
		}

		// The swap's rekey re-drives everything still parked; its requests
		// cross the fabric once the LC's lock is released.
		if err := r.UpdateTable(tbl); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the re-drive's requests", func() bool { return rec.len() == n })
		redrives[k] = rec.take()
		if got := r.lcs[0].pendingDepth.Load(); got != n {
			t.Fatalf("router %d: %d addresses parked after the re-drive, want %d", k, got, n)
		}
	}
	newestFirst := slices.Clone(addrs)
	slices.Reverse(newestFirst)
	for k := range sweeps {
		if !slices.Equal(sweeps[k], newestFirst) {
			t.Errorf("router %d: the deadline sweep did not retry in reverse park order", k)
		}
		if !slices.Equal(redrives[k], addrs) {
			t.Errorf("router %d: the re-drive did not go in park order", k)
		}
	}
}
