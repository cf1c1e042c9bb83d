package rtable

import (
	"encoding/binary"
	"hash/fnv"
	"slices"
	"testing"

	"spal/internal/ip"
	"spal/internal/stats"
)

// mapGenerateUpdates is GenerateUpdates as it was before the live-set
// overlay: a copy of the route list and a map from prefix to position,
// both as large as the table. It is the reference the overlay is held to.
func mapGenerateUpdates(t *Table, cfg UpdateStreamConfig) []Update {
	if cfg.RatePerSecond <= 0 || cfg.Duration <= 0 {
		return nil
	}
	rng := stats.NewRNG(cfg.Seed)
	gap := 1e9 / cfg.RatePerSecond / cfg.CycleNS
	live := append([]Route(nil), t.Routes()...)
	idx := make(map[ip.Prefix]int, len(live))
	for i, r := range live {
		idx[r.Prefix] = i
	}
	has := func(p ip.Prefix) bool { _, ok := idx[p]; return ok }
	var out []Update
	at := int64(gap * (0.5 + rng.Float64()))
	for at < cfg.Duration {
		var u Update
		switch {
		case len(live) > 0 && rng.Bool(cfg.WithdrawProb):
			i := rng.Intn(len(live))
			r := live[i]
			last := len(live) - 1
			live[i] = live[last]
			idx[live[i].Prefix] = i
			live = live[:last]
			delete(idx, r.Prefix)
			u = Update{Kind: Withdraw, Route: r, AtCycle: at}
		case len(live) == 0 || rng.Bool(cfg.NewPrefixProb):
			p, _ := randomNewPrefix(rng, has)
			nh := NextHop(rng.Intn(64))
			if j, ok := idx[p]; ok {
				live[j].NextHop = nh
			} else {
				idx[p] = len(live)
				live = append(live, Route{Prefix: p, NextHop: nh})
			}
			u = Update{Kind: Announce, Route: Route{Prefix: p, NextHop: nh}, AtCycle: at}
		default:
			i := rng.Intn(len(live))
			live[i].NextHop = NextHop(rng.Intn(64))
			u = Update{Kind: Announce, Route: live[i], AtCycle: at}
		}
		out = append(out, u)
		at += int64(gap * (0.5 + rng.Float64()))
	}
	return out
}

// updatesHash is an FNV-64a hash of a stream's (kind, value, length, next
// hop, cycle) tuples in stream order.
func updatesHash(us []Update) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, u := range us {
		b[0] = byte(u.Kind)
		binary.BigEndian.PutUint32(b[1:5], u.Route.Prefix.Value)
		b[5] = u.Route.Prefix.Len
		binary.BigEndian.PutUint16(b[6:8], uint16(u.Route.NextHop))
		binary.BigEndian.PutUint64(b[8:], uint64(u.AtCycle))
		h.Write(b[:])
	}
	return h.Sum64()
}

// streamConfig is a 1000 events/s stream over span seconds, one cycle a
// nanosecond.
func streamConfig(span float64, withdraw, newPrefix float64, seed uint64) UpdateStreamConfig {
	return UpdateStreamConfig{RatePerSecond: 1000, CycleNS: 1, Duration: int64(span * 1e9), WithdrawProb: withdraw, NewPrefixProb: newPrefix, Seed: seed}
}

// shortPrefixes is a table holding every prefix from /8 to /12: 1.6 % of
// randomNewPrefix's draws land in it, so with a retry budget of one the
// announce-degrades-to-a-replace branch is taken ~150 times in 20,000 events.
func shortPrefixes() *Table {
	var routes []Route
	for l := uint8(8); l <= 12; l++ {
		for v := uint32(0); v < 1<<l; v++ {
			routes = append(routes, Route{Prefix: ip.Prefix{Value: v << (32 - l), Len: l}, NextHop: NextHop(v % 7)})
		}
	}
	return New(routes)
}

// exhaustRetries sets randomNewPrefix's retry budget to one for the rest
// of the test.
func exhaustRetries(t testing.TB) {
	old := newPrefixTries
	newPrefixTries = 1
	t.Cleanup(func() { newPrefixTries = old })
}

// TestGenerateUpdatesMatchesMap holds GenerateUpdates to the map
// reference, event for event, on RT2, two small tables and the empty one
// under three withdraw and three new-prefix probabilities, and on a table
// of every /8–/12 with the retry budget exhausted.
func TestGenerateUpdatesMatchesMap(t *testing.T) {
	tables := map[string]*Table{"RT2": RT2(), "Small(300,9)": Small(300, 9), "Small(5,1)": Small(5, 1), "empty": New(nil)}
	check := func(t *testing.T, name string, tbl *Table, cfg UpdateStreamConfig) {
		before := slices.Clone(tbl.Routes())
		got, want := GenerateUpdates(tbl, cfg), mapGenerateUpdates(tbl, cfg)
		if !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%s %+v: streams differ at event %d of %d (want %d)", name, cfg, i, len(got), len(want))
		}
		if !slices.Equal(tbl.Routes(), before) {
			t.Fatalf("%s: GenerateUpdates modified the table", name)
		}
	}
	for name, tbl := range tables {
		for _, w := range []float64{0.35, 0.9, 0.1} {
			for _, np := range []float64{0.2, 0.25, 1} {
				check(t, name, tbl, streamConfig(20, w, np, uint64(len(name))))
			}
		}
	}
	exhaustRetries(t)
	for _, w := range []float64{0.35, 0.1} {
		check(t, "shortPrefixes", shortPrefixes(), streamConfig(20, w, 1, 3))
	}
}

// TestUpdateStreamGolden pins whole streams by their hash, as the map
// generator drew them: churn_single's shape on RT2, one 50 ms
// spal-router tick on RT1, a table that withdraws down to empty and back,
// a five-route table growing by new prefixes, and the empty table.
func TestUpdateStreamGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		tbl  *Table
		cfg  UpdateStreamConfig
		n    int
		want uint64
	}{
		{"RT2", RT2(), streamConfig(20, 0.35, 0.2, 1), 20001, 0x11e8ed533b84dd3a},
		{"RT1/tick", RT1(), UpdateStreamConfig{RatePerSecond: 1000, CycleNS: 5, Duration: 1e7, WithdrawProb: 0.3, NewPrefixProb: 0.2, Seed: 0xc1124}, 51, 0x3984613f12e0d144},
		{"Small(300,9)", Small(300, 9), streamConfig(20, 0.9, 0.25, 7), 20044, 0x47397beb9c720767},
		{"Small(5,1)", Small(5, 1), streamConfig(20, 0.1, 1, 3), 19983, 0x8e8d1d0b8121205a},
		{"empty", New(nil), streamConfig(20, 0.35, 0.2, 5), 20009, 0xdfba10fc158dc21e},
	} {
		us := GenerateUpdates(tc.tbl, tc.cfg)
		if got := updatesHash(us); len(us) != tc.n || got != tc.want {
			t.Errorf("%s: %d events hashing %#016x, want %d hashing %#016x", tc.name, len(us), got, tc.n, tc.want)
		}
	}
}

// TestRandomMatchedAddrGolden pins 2^20 draws on RT2 and a small table by
// their hash, as the modulus drew them before the mask replaced it.
func TestRandomMatchedAddrGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		tbl  *Table
		want uint64
	}{
		{"RT2", RT2(), 0xfc65ac85d22b094e},
		{"Small(5000,1)", Small(5000, 1), 0xb096829da12bbf7f},
	} {
		rng := stats.NewRNG(1)
		h := fnv.New64a()
		var b [4]byte
		for i := 0; i < 1<<20; i++ {
			binary.BigEndian.PutUint32(b[:], tc.tbl.RandomMatchedAddr(rng))
			h.Write(b[:])
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: hash %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}

// FuzzGenerateUpdatesMatchesMap holds GenerateUpdates to the map
// reference on a small table of up to 400 routes (or the /8–/12 table
// with one retry), a withdraw and a new-prefix probability in 1/255 steps
// and up to 4,000 events.
func FuzzGenerateUpdatesMatchesMap(f *testing.F) {
	f.Add(uint16(300), uint8(90), uint8(64), uint16(2000), uint64(1), false)
	f.Add(uint16(0), uint8(255), uint8(0), uint16(500), uint64(2), false)
	f.Add(uint16(5), uint8(25), uint8(255), uint16(4000), uint64(3), false)
	f.Add(uint16(0), uint8(90), uint8(255), uint16(4000), uint64(4), true)
	short := shortPrefixes()
	f.Fuzz(func(t *testing.T, size uint16, w, np uint8, events uint16, seed uint64, exhaust bool) {
		tbl := New(nil)
		if size %= 401; size > 0 {
			tbl = Small(int(size), seed)
		}
		if exhaust {
			tbl = short
			exhaustRetries(t)
		}
		cfg := streamConfig(float64(events%4001)/1000, float64(w)/255, float64(np)/255, seed)
		if got, want := GenerateUpdates(tbl, cfg), mapGenerateUpdates(tbl, cfg); !slices.Equal(got, want) {
			t.Fatalf("%+v: %d events differ from the reference's %d", cfg, len(got), len(want))
		}
	})
}

// BenchmarkGenerateUpdates prices the two streams the callers draw:
// churn_single's 20 s on RT2 (~20,000 events) and one 50 ms spal-router
// tick on RT1 (~51 events).
func BenchmarkGenerateUpdates(b *testing.B) {
	for _, bc := range []struct {
		name string
		tbl  *Table
		cfg  UpdateStreamConfig
	}{
		{"table=RT2/span=20s", RT2(), streamConfig(20, 0.35, 0.2, 1)},
		{"table=RT1/span=50ms", RT1(), UpdateStreamConfig{RatePerSecond: 1000, CycleNS: 5, Duration: 1e7, WithdrawProb: 0.3, NewPrefixProb: 0.2, Seed: 0xc1124}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				GenerateUpdates(bc.tbl, bc.cfg)
			}
		})
	}
}
