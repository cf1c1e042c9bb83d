// Tests for packet trains in a batch: a run of rows with one address is
// answered once, by its first row, and the router is indistinguishable from
// one that was given the batch with every train cut to one row — except in
// the rows it answers and in what it counts for them.
package router

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"spal/internal/cache"
	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/rtable"
	"spal/internal/stats"
	"spal/internal/trace"
)

const trainLCs = 4

// trainRouter is the router the train property is checked on: ψ = 4, lulea,
// the cache opts give, one caller.
func trainRouter(t testing.TB, tbl *rtable.Table, opts ...Option) *Router {
	t.Helper()
	r, err := New(tbl, append([]Option{WithLCs(trainLCs), WithEngineName("lulea"), WithRequestTimeout(time.Minute)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	return r
}

// collapse cuts every train of batch to its first row, into short, and
// writes the row of short that answers each row of batch to train.
func collapse(batch, short []ip.Addr, train []int) []ip.Addr {
	short = short[:0]
	for i, a := range batch {
		if i == 0 || a != batch[i-1] {
			short = append(short, a)
		}
		train[i] = len(short) - 1
	}
	return short
}

// cacheState is everything an LC's LR-cache shows: its entries in block
// order, its occupancy and its counters.
type cacheState struct {
	entries []cacheEntry
	occ     [3]int
	stats   cache.Stats
}

type cacheEntry struct {
	addr ip.Addr
	nh   rtable.NextHop
}

func lrCacheState(r *Router, i int) (s cacheState) {
	r.own(i, func(lc *lineCard) {
		lc.cache.AuditEntries(func(a ip.Addr, nh rtable.NextHop) bool {
			s.entries = append(s.entries, cacheEntry{a, nh})
			return true
		})
		s.occ[0], s.occ[1], s.occ[2] = lc.cache.Occupancy()
		s.stats = lc.cache.Stats()
	})
	return s
}

// trainOutcome is what the rows of the batches that repeat their
// predecessor were answered by, per arrival LC.
type trainOutcome struct {
	hitFollowers, missFollowers [trainLCs]int64
	evictions                   int64
}

// checkTrainsAsCollapsed submits batch k (at most 64 rows) at LC k mod 4 of
// router a as it is and of router b collapsed. After every batch both
// routers' LR-caches show the same entries, occupancy and counters, and every
// verdict of a is b's
// verdict for its row's train, ServedBy included. At the end every LCStats
// counter is equal but three, which differ by the followers at that LC:
// Lookups by all, CacheHits by those of a hit, Coalesced by those of a miss.
func checkTrainsAsCollapsed(t testing.TB, tbl *rtable.Table, oracle *lpm.Reference, batches [][]ip.Addr, opts ...Option) (o trainOutcome) {
	t.Helper()
	a, b := trainRouter(t, tbl, opts...), trainRouter(t, tbl, opts...)
	var outA, outB [64]Verdict
	var short [64]ip.Addr
	var train [64]int
	for k, batch := range batches {
		if len(batch) == 0 {
			continue
		}
		lc := k % trainLCs
		collapsed := collapse(batch, short[:0], train[:])
		if err := a.LookupBatchInto(context.Background(), lc, batch, outA[:]); err != nil {
			t.Fatal(err)
		}
		if err := b.LookupBatchInto(context.Background(), lc, collapsed, outB[:]); err != nil {
			t.Fatal(err)
		}
		if msg := checkBatch(batch, outA[:len(batch)], oracle); msg != "" {
			t.Fatalf("batch %d: %s", k, msg)
		}
		for i, v := range outA[:len(batch)] {
			if w := outB[train[i]]; v != w {
				t.Fatalf("batch %d row %d (%s): %+v, its train collapsed %+v", k, i, ip.FormatAddr(batch[i]), v, w)
			}
			switch {
			case i == 0 || batch[i] != batch[i-1]:
			case v.ServedBy == ServedByCache:
				o.hitFollowers[lc]++
			default:
				o.missFollowers[lc]++
			}
		}
		for i := 0; i < trainLCs; i++ {
			if sa, sb := lrCacheState(a, i), lrCacheState(b, i); !reflect.DeepEqual(sa, sb) {
				t.Fatalf("batch %d, LC %d: the LR-cache of the trains differs from the collapsed one's\noccupancy %v vs %v\nstats %+v\nvs    %+v",
					k, i, sa.occ, sb.occ, sa.stats, sb.stats)
			}
		}
	}
	for i := 0; i < trainLCs; i++ {
		sa, sb := reflect.ValueOf(a.stats[i]).Elem(), reflect.ValueOf(b.stats[i]).Elem()
		for f := 0; f < sa.NumField(); f++ {
			va, vb := sa.Field(f).Addr().Interface().(*atomic.Int64).Load(), sb.Field(f).Addr().Interface().(*atomic.Int64).Load()
			want := vb
			switch sa.Type().Field(f).Name {
			case "Lookups":
				want += o.hitFollowers[i] + o.missFollowers[i]
			case "CacheHits":
				want += o.hitFollowers[i]
			case "Coalesced":
				want += o.missFollowers[i]
			}
			if va != want {
				t.Errorf("LC %d %s: %d with trains, %d collapsed, want %d", i, sa.Type().Field(f).Name, va, vb, want)
			}
		}
		o.evictions += lrCacheState(a, i).stats.Evictions
	}
	return o
}

// TestBatchTrainsAsCollapsed is the differential oracle of trains: a seeded
// D_75 stream (mean train 4) in 64-row batches through one router, and the
// same batches with every train cut to one row through another, are
// indistinguishable but for the followers (checkTrainsAsCollapsed) — the
// LR-cache sees each train as one access, and a miss's train runs the
// engine and crosses the fabric once. Then a train homed at its arrival LC,
// with an LR-cache and without one, runs the engine once.
func TestBatchTrainsAsCollapsed(t *testing.T) {
	tbl := rtable.Small(2000, 7)
	oracle := lpm.NewReference(tbl)
	tc := trace.PresetConfig(trace.D75)
	src := trace.NewSynthetic(trace.NewPool(tbl, tc), tc, 53)
	batches := make([][]ip.Addr, 600)
	for k := range batches {
		batches[k] = make([]ip.Addr, 64)
		src.Fill(batches[k])
	}
	o := checkTrainsAsCollapsed(t, tbl, oracle, batches, WithDefaultCache())
	var hit, miss int64
	for i := range o.hitFollowers {
		hit, miss = hit+o.hitFollowers[i], miss+o.missFollowers[i]
	}
	if hit == 0 || miss == 0 || o.evictions == 0 {
		t.Errorf("%d followers of a hit, %d of a miss, %d evictions: the stream did not exercise every case", hit, miss, o.evictions)
	}
	t.Logf("%d rows: %d followers of a hit, %d of a miss; %d evictions", 64*len(batches), hit, miss, o.evictions)

	for _, opt := range []Option{WithDefaultCache(), WithoutCache()} {
		r := trainRouter(t, tbl, opt)
		addr := remoteAddrs(t, r, tbl, stats.NewRNG(5), 0, 1)[0] // homed at LC 0
		train := make([]ip.Addr, 16)
		for i := range train {
			train[i] = addr
		}
		out, err := r.LookupBatch(0, train)
		if err != nil {
			t.Fatal(err)
		}
		if msg := checkBatch(train, out, oracle); msg != "" {
			t.Fatal(msg)
		}
		st := r.Stats()[0]
		if fe, co := st.FEExecs.Load(), st.Coalesced.Load(); fe != 1 || co != int64(len(train)-1) || out[len(train)-1].ServedBy != ServedByFE {
			t.Errorf("a train of %d homed at its arrival LC: %d FE executions, %d coalesced, served by %s; want 1, %d, fe",
				len(train), fe, co, out[len(train)-1].ServedBy, len(train)-1)
		}
	}
}

// FuzzBatchTrains checks the train property on batches the fuzzer shapes:
// each byte appends a train of 1 to 6 rows of one of 48 addresses, and a
// batch ends at 64 rows or at a byte of 0xff. The LR-caches hold 16 blocks,
// so that trains meet replacement.
func FuzzBatchTrains(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 0xff, 47, 95, 143, 191, 239})
	f.Add([]byte{3, 51, 99, 147, 195, 243, 3, 3, 0xff, 3, 51, 0xff, 0xff, 200, 12, 60})
	f.Add([]byte("trains of packets share one lookup, and so do the rows of a batch"))
	tbl := rtable.Small(2000, 7)
	oracle := lpm.NewReference(tbl)
	pool := distinctAddrs(tbl, stats.NewRNG(53), 48)
	small := WithCache(cache.Config{Blocks: 16, Assoc: 4, VictimBlocks: 2, MixPercent: 50})
	f.Fuzz(func(t *testing.T, data []byte) {
		var batches [][]ip.Addr
		var batch []ip.Addr
		for _, c := range data {
			if c != 0xff {
				for n := 1 + int(c)/len(pool); n > 0 && len(batch) < 64; n-- {
					batch = append(batch, pool[int(c)%len(pool)])
				}
			}
			if c == 0xff || len(batch) == 64 {
				batches, batch = append(batches, batch), nil
			}
		}
		checkTrainsAsCollapsed(t, tbl, oracle, append(batches, batch), small)
	})
}
