package router

import (
	"runtime"
	"testing"
	"time"

	"spal/internal/rtable"
)

// TestRetainedHeap holds the router to one copy of its routing table: New
// over RT_2 at ψ = 4 with Lulea engines and the default LR-caches retains
// the engines, caches and per-LC state, and no per-LC route list beside
// the caller's table, which it shares. Not parallel: it reads the heap.
func TestRetainedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const ceiling = 9 << 19 // 4.5 MiB
	tbl := rtable.RT2()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := New(tbl, WithLCs(4), WithDefaultCache(), WithEngineName("lulea"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	runtime.KeepAlive(tbl)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("New(RT_2 %d routes, ψ = 4, lulea) retains %.2f MiB beside the table", tbl.Len(), float64(retained)/(1<<20))
	if retained > ceiling {
		t.Errorf("New retained %.2f MiB beside the caller's table, more than %.1f MiB", float64(retained)/(1<<20), float64(ceiling)/(1<<20))
	}
}

// TestSupersededTableReleased: once an update batch has replaced the table
// a router was built from, nothing in the router keeps that table. The
// test drops its own reference and waits, over a bounded number of
// collections, for the table's finalizer — for an engine that takes the
// batch in place and for one that is rebuilt.
func TestSupersededTableReleased(t *testing.T) {
	for _, engine := range []string{"dptrie", "lulea"} {
		t.Run(engine, func(t *testing.T) {
			freed := make(chan struct{})
			r, batch := routerOverDroppedTable(t, engine, freed)
			defer r.Stop()
			if err := r.ApplyUpdates(batch); err != nil {
				t.Fatal(err)
			}
			for gc := 0; gc < 20; gc++ {
				runtime.GC()
				select {
				case <-freed:
					return
				case <-time.After(5 * time.Millisecond):
				}
			}
			t.Fatal("the table the router was built from is still reachable after an update batch replaced it")
		})
	}
}

// routerOverDroppedTable builds a router over a table only it references,
// whose finalizer closes freed, and an update batch against that table.
func routerOverDroppedTable(t *testing.T, engine string, freed chan struct{}) (*Router, []rtable.Update) {
	t.Helper()
	tbl := rtable.Small(3000, 41)
	runtime.SetFinalizer(tbl, func(*rtable.Table) { close(freed) })
	batch := rtable.GenerateUpdates(tbl, rtable.UpdateStreamConfig{
		RatePerSecond: 1000, CycleNS: 5, Duration: 20_000_000,
		WithdrawProb: 0.4, NewPrefixProb: 0.3, Seed: 43,
	})
	if len(batch) == 0 {
		t.Fatal("empty update batch")
	}
	r, err := New(tbl, WithLCs(4), WithDefaultCache(), WithEngineName(engine))
	if err != nil {
		t.Fatal(err)
	}
	return r, batch
}
