package router

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"spal/internal/cache"
	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/lpm/lulea"
	"spal/internal/rtable"
	"spal/internal/stats"
)

func newTestRouter(t *testing.T, numLCs int, cacheOn bool) (*Router, *rtable.Table) {
	t.Helper()
	tbl := rtable.Small(2000, 7)
	opts := []Option{WithLCs(numLCs)}
	if cacheOn {
		opts = append(opts, WithCache(cache.DefaultConfig()))
	}
	r, err := New(tbl, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	return r, tbl
}

func TestLookupMatchesOracle(t *testing.T) {
	r, tbl := newTestRouter(t, 4, true)
	oracle := lpm.NewReference(tbl)
	rng := stats.NewRNG(3)
	for i := 0; i < 2000; i++ {
		var a ip.Addr
		if i%2 == 0 {
			a = tbl.RandomMatchedAddr(rng)
		} else {
			a = rng.Uint32()
		}
		lc := rng.Intn(4)
		v, err := r.Lookup(lc, a)
		if err != nil {
			t.Fatal(err)
		}
		wantNH, _, wantOK := oracle.Lookup(a)
		if v.OK != wantOK || (wantOK && v.NextHop != wantNH) {
			t.Fatalf("Lookup(%d, %s) = (%d,%v), want (%d,%v)",
				lc, ip.FormatAddr(a), v.NextHop, v.OK, wantNH, wantOK)
		}
	}
}

func TestConcurrentLookupsAllLCs(t *testing.T) {
	r, tbl := newTestRouter(t, 8, true)
	oracle := lpm.NewReference(tbl)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for lc := 0; lc < 8; lc++ {
		wg.Add(1)
		go func(lc int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(lc) + 11)
			for i := 0; i < 1500; i++ {
				a := tbl.RandomMatchedAddr(rng)
				v, err := r.Lookup(lc, a)
				if err != nil {
					errs <- err.Error()
					return
				}
				wantNH, _, _ := oracle.Lookup(a)
				if !v.OK || v.NextHop != wantNH {
					errs <- "wrong verdict for " + ip.FormatAddr(a)
					return
				}
			}
		}(lc)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestServedByClassification(t *testing.T) {
	r, tbl := newTestRouter(t, 4, true)
	rng := stats.NewRNG(5)
	a := tbl.RandomMatchedAddr(rng)
	home := r.HomeLC(a)
	remoteLC := (home + 1) % 4

	// First lookup at the home LC executes the FE.
	v, err := r.Lookup(home, a)
	if err != nil {
		t.Fatal(err)
	}
	if v.ServedBy != ServedByFE {
		t.Errorf("first home lookup ServedBy = %s, want fe", v.ServedBy)
	}
	// Second lookup at the home LC hits the LOC entry.
	v, _ = r.Lookup(home, a)
	if v.ServedBy != ServedByCache {
		t.Errorf("second home lookup ServedBy = %s, want cache", v.ServedBy)
	}
	// Remote lookup is answered by the home LC's cache via the fabric.
	v, _ = r.Lookup(remoteLC, a)
	if v.ServedBy != ServedByRemote {
		t.Errorf("remote lookup ServedBy = %s, want remote", v.ServedBy)
	}
	// And is now cached as REM locally.
	v, _ = r.Lookup(remoteLC, a)
	if v.ServedBy != ServedByCache {
		t.Errorf("repeat remote lookup ServedBy = %s, want cache", v.ServedBy)
	}
}

func TestCoalescingSingleFEExec(t *testing.T) {
	r, tbl := newTestRouter(t, 2, true)
	rng := stats.NewRNG(9)
	// Hammer one address from both LCs concurrently; the FE must run far
	// fewer times than the number of lookups.
	a := tbl.RandomMatchedAddr(rng)
	var wg sync.WaitGroup
	const n = 500
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(lc int) {
			defer wg.Done()
			if _, err := r.Lookup(lc, a); err != nil {
				t.Error(err)
			}
		}(i % 2)
	}
	wg.Wait()
	var fe int64
	for _, s := range r.Stats() {
		fe += s.FEExecs.Load()
	}
	if fe == 0 || fe > n/10 {
		t.Errorf("FE executions = %d for %d identical lookups, want heavy coalescing", fe, n)
	}
}

func TestNoCacheMode(t *testing.T) {
	r, tbl := newTestRouter(t, 4, false)
	oracle := lpm.NewReference(tbl)
	rng := stats.NewRNG(13)
	for i := 0; i < 500; i++ {
		a := tbl.RandomMatchedAddr(rng)
		v, err := r.Lookup(rng.Intn(4), a)
		if err != nil {
			t.Fatal(err)
		}
		wantNH, _, _ := oracle.Lookup(a)
		if !v.OK || v.NextHop != wantNH {
			t.Fatalf("no-cache wrong verdict for %s", ip.FormatAddr(a))
		}
		if v.ServedBy == ServedByCache {
			t.Fatal("cache hit with caches disabled")
		}
	}
}

func TestUpdateTableChangesResults(t *testing.T) {
	r, _ := newTestRouter(t, 4, true)
	// A fresh table with one known route.
	newTbl := rtable.New([]rtable.Route{
		{Prefix: ip.MustPrefix("10.0.0.0/8"), NextHop: 42},
	})
	if err := r.UpdateTable(newTbl); err != nil {
		t.Fatal(err)
	}
	v, err := r.Lookup(2, 0x0a010203)
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK || v.NextHop != 42 {
		t.Fatalf("post-update verdict = %+v, want nh 42", v)
	}
	if v, _ = r.Lookup(1, 0x0b000001); v.OK {
		t.Fatal("address outside the new table must miss")
	}
}

func TestUpdateTableUnderLoad(t *testing.T) {
	r, tbl := newTestRouter(t, 4, true)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for lc := 0; lc < 4; lc++ {
		wg.Add(1)
		go func(lc int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(lc) * 7)
			for {
				select {
				case <-stop:
					return
				default:
				}
				a := tbl.RandomMatchedAddr(rng)
				if _, err := r.Lookup(lc, a); err != nil {
					return
				}
			}
		}(lc)
	}
	// Swap between the same logical table built twice and a variant.
	for i := 0; i < 5; i++ {
		if err := r.UpdateTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	// After the dust settles, results must match the (unchanged) table.
	oracle := lpm.NewReference(tbl)
	rng := stats.NewRNG(99)
	for i := 0; i < 300; i++ {
		a := tbl.RandomMatchedAddr(rng)
		v, err := r.Lookup(i%4, a)
		if err != nil {
			t.Fatal(err)
		}
		wantNH, _, _ := oracle.Lookup(a)
		if !v.OK || v.NextHop != wantNH {
			t.Fatalf("post-churn wrong verdict for %s", ip.FormatAddr(a))
		}
	}
}

func TestFlushCachesKeepsCorrectness(t *testing.T) {
	r, tbl := newTestRouter(t, 4, true)
	rng := stats.NewRNG(21)
	a := tbl.RandomMatchedAddr(rng)
	v1, _ := r.Lookup(0, a)
	r.FlushCaches()
	v2, err := r.Lookup(0, a)
	if err != nil {
		t.Fatal(err)
	}
	if v1.NextHop != v2.NextHop {
		t.Fatal("flush changed the lookup result")
	}
}

func TestStopAndErrStopped(t *testing.T) {
	r, _ := newTestRouter(t, 2, true)
	r.Stop()
	r.Stop() // idempotent
	if _, err := r.Lookup(0, 1); err != ErrStopped {
		t.Errorf("err = %v, want ErrStopped", err)
	}
	if err := r.UpdateTable(rtable.Small(10, 1)); err != ErrStopped {
		t.Errorf("UpdateTable err = %v, want ErrStopped", err)
	}
}

func TestInvalidConfigs(t *testing.T) {
	tbl := rtable.Small(10, 1)
	if _, err := New(tbl, WithLCs(0)); err == nil {
		t.Error("NumLCs 0 should fail")
	}
	if _, err := New(nil, WithLCs(2)); err == nil {
		t.Error("nil table should fail")
	}
	if _, err := New(rtable.New(nil), WithLCs(2)); err == nil {
		t.Error("empty table should fail")
	}
}

func TestLookupInvalidLC(t *testing.T) {
	r, _ := newTestRouter(t, 2, true)
	if _, err := r.Lookup(5, 1); err == nil {
		t.Error("out-of-range LC should fail")
	}
	if _, err := r.Lookup(-1, 1); err == nil {
		t.Error("negative LC should fail")
	}
}

func TestPartitionBitsExposed(t *testing.T) {
	r, _ := newTestRouter(t, 4, true)
	bits := r.PartitionBits()
	if len(bits) != 2 {
		t.Errorf("bits = %v, want 2 for psi=4", bits)
	}
	if r.NumLCs() != 4 {
		t.Errorf("NumLCs = %d", r.NumLCs())
	}
}

func TestStatsAccumulate(t *testing.T) {
	r, tbl := newTestRouter(t, 4, true)
	rng := stats.NewRNG(31)
	hot := make([]ip.Addr, 20)
	for i := range hot {
		hot[i] = tbl.RandomMatchedAddr(rng)
	}
	for i := 0; i < 400; i++ {
		if _, err := r.Lookup(i%4, hot[rng.Intn(len(hot))]); err != nil {
			t.Fatal(err)
		}
	}
	var lookups, hits int64
	for _, s := range r.Stats() {
		lookups += s.Lookups.Load()
		hits += s.CacheHits.Load()
	}
	if lookups != 400 {
		t.Errorf("lookups = %d", lookups)
	}
	if hits == 0 {
		t.Error("expected some cache hits on a 2000-route pool with repeats")
	}
}

func TestLookupBatchOrderAndCorrectness(t *testing.T) {
	r, tbl := newTestRouter(t, 4, true)
	oracle := lpm.NewReference(tbl)
	rng := stats.NewRNG(17)
	addrs := make([]ip.Addr, 500)
	for i := range addrs {
		addrs[i] = tbl.RandomMatchedAddr(rng)
	}
	out, err := r.LookupBatch(2, addrs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(addrs) {
		t.Fatalf("got %d verdicts", len(out))
	}
	for i, v := range out {
		if v.Addr != addrs[i] {
			t.Fatalf("verdict %d out of order: %v", i, v.Addr)
		}
		wantNH, _, _ := oracle.Lookup(addrs[i])
		if !v.OK || v.NextHop != wantNH {
			t.Fatalf("verdict %d wrong", i)
		}
	}
}

// lookupAsync submits a lookup at LC lc without waiting for its verdict, the
// way Lookup does when the LC is busy: admission is the call's own — it
// blocks on a full queue, or returns ErrOverloaded — and the verdict, a
// ServedByShed one if the lookup is shed after admission, arrives on the
// returned channel.
func lookupAsync(r *Router, lc int, addr ip.Addr) (<-chan Verdict, error) {
	if lc < 0 || lc >= r.NumLCs() {
		return nil, fmt.Errorf("router: no such LC %d", lc)
	}
	m := message{kind: mLookup, addr: addr, tr: r.tracer.Sample(lc, addr)}
	if err := r.submit(context.Background(), lc, &m); err != nil {
		return nil, err
	}
	ch := make(chan Verdict, 1)
	go func() {
		if r.wait(context.Background(), m.bd) == nil {
			ch <- m.bd.out[0]
			putBatchDesc(m.bd)
		}
	}()
	return ch, nil
}

func TestLookupAsyncManyInFlight(t *testing.T) {
	r, tbl := newTestRouter(t, 2, true)
	rng := stats.NewRNG(19)
	var chans []<-chan Verdict
	for i := 0; i < 200; i++ {
		ch, err := lookupAsync(r, i%2, tbl.RandomMatchedAddr(rng))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for _, ch := range chans {
		if v := <-ch; v.Addr == 0 && !v.OK && v.ServedBy == ServedByUnknown {
			t.Fatal("empty verdict")
		}
	}
}

// The router with a real (non-oracle) engine: integration of lulea tries
// behind the concurrent plane.
func TestRouterWithLuleaEngine(t *testing.T) {
	tbl := rtable.Small(3000, 61)
	r, err := New(tbl, WithLCs(4), WithEngine(lulea.NewEngine), WithDefaultCache())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	oracle := lpm.NewReference(tbl)
	rng := stats.NewRNG(7)
	for i := 0; i < 1000; i++ {
		a := tbl.RandomMatchedAddr(rng)
		v, err := r.Lookup(i%4, a)
		if err != nil {
			t.Fatal(err)
		}
		wantNH, _, _ := oracle.Lookup(a)
		if !v.OK || v.NextHop != wantNH {
			t.Fatalf("lulea-backed router wrong for %s", ip.FormatAddr(a))
		}
	}
}

func TestUpdateTableRejectsEmpty(t *testing.T) {
	r, _ := newTestRouter(t, 2, true)
	if err := r.UpdateTable(nil); err == nil {
		t.Error("nil table should fail")
	}
	if err := r.UpdateTable(rtable.New(nil)); err == nil {
		t.Error("empty table should fail")
	}
}
