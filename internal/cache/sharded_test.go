package cache

import (
	"testing"

	"spal/internal/ip"
	"spal/internal/metrics"
	"spal/internal/rtable"
	"spal/internal/stats"
)

func TestShardedBasicFlow(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSharded(cfg, 4)
	if s.NumShards() != 4 {
		t.Fatalf("NumShards = %d", s.NumShards())
	}
	a := ip.Addr(0x0a000001)
	if got := s.Probe(a); got.Kind != Miss {
		t.Fatalf("cold probe: %v", got.Kind)
	}
	if !s.RecordMiss(a, LOC, 1) {
		t.Fatal("RecordMiss declined on an empty cache")
	}
	if got := s.Probe(a); got.Kind != HitWaiting {
		t.Fatalf("probe after RecordMiss: %v", got.Kind)
	}
	if w := s.Fill(a, 7, LOC); len(w) != 1 || w[0] != 1 {
		t.Fatalf("Fill returned waiters %v", w)
	}
	if got := s.Probe(a); got.Kind != Hit || got.NextHop != 7 || got.Origin != LOC {
		t.Fatalf("probe after Fill: %+v", got)
	}
	// The same address with different low bits must land in a different
	// shard yet stay independent.
	b := a ^ 1
	if got := s.Probe(b); got.Kind != Miss {
		t.Fatalf("sibling address hit unexpectedly: %v", got.Kind)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Fills != 1 {
		t.Fatalf("aggregate stats: %+v", st)
	}
	if orphans := s.Flush(); len(orphans) != 0 {
		t.Fatalf("Flush orphans: %v", orphans)
	}
	if got := s.Probe(a); got.Kind != Miss {
		t.Fatalf("probe after Flush: %v", got.Kind)
	}
}

// TestShardedMatchesSingleCache drives an identical miss/fill/probe
// workload through one Cache and through a Sharded with the same total
// capacity, checking every verdict agrees. The two layouts only behave
// identically while no set exceeds its class quota (eviction order then
// depends on the set mapping), so the addresses are consecutive: that
// puts at most one entry in any set of either layout.
func TestShardedMatchesSingleCache(t *testing.T) {
	cfg := Config{Blocks: 1024, Assoc: 4, VictimBlocks: 8, MixPercent: 50, Policy: LRU}
	single := New(cfg)
	shardedStore := NewSharded(cfg, 8)
	rng := stats.NewRNG(77)
	addrs := make([]ip.Addr, 200)
	for i := range addrs {
		addrs[i] = ip.Addr(i)
	}
	for i := len(addrs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		addrs[i], addrs[j] = addrs[j], addrs[i]
	}
	for _, st := range []Store{single, shardedStore} {
		for _, a := range addrs {
			if st.Probe(a).Kind == Miss {
				st.Reserve(a, REM)
				st.Fill(a, rtable.NextHop(a&0xff), REM)
			}
		}
	}
	for _, a := range addrs {
		got := shardedStore.Probe(a)
		want := single.Probe(a)
		if got.Kind != want.Kind || got.NextHop != want.NextHop {
			t.Fatalf("Probe(%#x): sharded %+v, single %+v", a, got, want)
		}
	}
	loc, rem, waiting := shardedStore.Occupancy()
	if loc != 0 || waiting != 0 || rem != len(dedup(addrs)) {
		t.Fatalf("occupancy loc=%d rem=%d waiting=%d, want rem=%d", loc, rem, waiting, len(dedup(addrs)))
	}
}

func dedup(addrs []ip.Addr) []ip.Addr {
	seen := map[ip.Addr]bool{}
	var out []ip.Addr
	for _, a := range addrs {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

func TestShardedMetricsAggregate(t *testing.T) {
	s := NewSharded(DefaultConfig(), 2)
	a := ip.Addr(42)
	s.Probe(a)
	s.RecordMiss(a, LOC, 0)
	s.Fill(a, 3, LOC)
	s.Probe(a)
	var sn metrics.Snapshot
	s.MetricsInto(&sn, metrics.L("lc", "0"))
	if v, ok := sn.Value(MetricProbes, metrics.L("lc", "0")); !ok || v != 2 {
		t.Fatalf("probes metric = %v ok=%v", v, ok)
	}
	if v, ok := sn.Value(MetricHits, metrics.L("lc", "0")); !ok || v != 1 {
		t.Fatalf("hits metric = %v ok=%v", v, ok)
	}
}

func TestShardedPanicsOnBadGeometry(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		blocks int
	}{
		{"not-power-of-two", 3, 4096},
		{"too-few", 1, 4096},
		{"indivisible", 8, 4100},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewSharded did not panic", tc.name)
				}
			}()
			cfg := DefaultConfig()
			cfg.Blocks = tc.blocks
			NewSharded(cfg, tc.shards)
		}()
	}
}
