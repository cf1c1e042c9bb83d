package rtable

import (
	"bytes"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"spal/internal/ip"
	"spal/internal/stats"
)

func TestNewDedupsAndSorts(t *testing.T) {
	routes := []Route{
		{Prefix: ip.MustPrefix("10.0.0.0/8"), NextHop: 1},
		{Prefix: ip.MustPrefix("10.0.0.0/8"), NextHop: 2}, // replaces
		{Prefix: ip.MustPrefix("9.0.0.0/8"), NextHop: 3},
	}
	tbl := New(routes)
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tbl.Len())
	}
	got := tbl.Routes()
	if got[0].Prefix != ip.MustPrefix("9.0.0.0/8") {
		t.Errorf("not sorted: %v first", got[0].Prefix)
	}
	if got[1].NextHop != 2 {
		t.Errorf("duplicate should keep last next hop, got %d", got[1].NextHop)
	}
}

func TestLookupLinearLongestWins(t *testing.T) {
	tbl := New([]Route{
		{Prefix: ip.MustPrefix("10.0.0.0/8"), NextHop: 1},
		{Prefix: ip.MustPrefix("10.1.0.0/16"), NextHop: 2},
		{Prefix: ip.MustPrefix("10.1.2.0/24"), NextHop: 3},
	})
	cases := []struct {
		addr string
		want NextHop
		ok   bool
	}{
		{"10.1.2.3", 3, true},
		{"10.1.9.9", 2, true},
		{"10.9.9.9", 1, true},
		{"11.0.0.1", NoNextHop, false},
	}
	for _, c := range cases {
		a, _ := ip.ParseAddr(c.addr)
		nh, ok := tbl.LookupLinear(a)
		if nh != c.want || ok != c.ok {
			t.Errorf("Lookup(%s) = (%d,%v), want (%d,%v)", c.addr, nh, ok, c.want, c.ok)
		}
	}
}

// TestLongestMatchAgainstLinear: the binary-search LongestMatch must
// agree with the O(N) linear scan on every address — random probes plus every prefix boundary, over
// synthesized tables with nested prefixes.
func TestLongestMatchAgainstLinear(t *testing.T) {
	rng := stats.NewRNG(0xa11d17)
	for _, n := range []int{1, 17, 500, 5000} {
		tbl := Synthesize(SynthConfig{N: n, NextHops: 16, NestProb: 0.5, Seed: uint64(n) + 9})
		check := func(a ip.Addr) {
			t.Helper()
			wantNH, wantOK := tbl.LookupLinear(a)
			rt, ok := tbl.LongestMatch(a)
			if ok != wantOK || (ok && rt.NextHop != wantNH) {
				t.Fatalf("n=%d LongestMatch(%s) = (%+v,%v), linear says (%d,%v)",
					n, ip.FormatAddr(a), rt, ok, wantNH, wantOK)
			}
			if ok && (a < rt.Prefix.FirstAddr() || a > rt.Prefix.LastAddr()) {
				t.Fatalf("n=%d LongestMatch(%s) returned non-containing prefix %v",
					n, ip.FormatAddr(a), rt.Prefix)
			}
		}
		for i := 0; i < 2000; i++ {
			check(ip.Addr(rng.Uint32()))
		}
		// Boundary addresses: first/last covered address of every prefix
		// and their outside neighbours, where off-by-one bugs live.
		for _, rt := range tbl.Routes() {
			lo, hi := rt.Prefix.FirstAddr(), rt.Prefix.LastAddr()
			check(lo)
			check(hi)
			if lo > 0 {
				check(lo - 1)
			}
			if hi < ^ip.Addr(0) {
				check(hi + 1)
			}
		}
	}
}

// TestLongestMatchNoMatch: an address outside every prefix yields the
// explicit no-route sentinel.
func TestLongestMatchNoMatch(t *testing.T) {
	tbl := New([]Route{{Prefix: ip.MustPrefix("10.0.0.0/8"), NextHop: 1}})
	a, _ := ip.ParseAddr("11.0.0.1")
	rt, ok := tbl.LongestMatch(a)
	if ok || rt.NextHop != NoNextHop {
		t.Fatalf("LongestMatch outside table = (%+v,%v), want (NoNextHop,false)", rt, ok)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	tbl := Small(500, 7)
	var buf bytes.Buffer
	if err := tbl.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tbl.Len() {
		t.Fatalf("round trip lost entries: %d != %d", back.Len(), tbl.Len())
	}
	for i, r := range back.Routes() {
		if r != tbl.Routes()[i] {
			t.Fatalf("entry %d differs: %v != %v", i, r, tbl.Routes()[i])
		}
	}
}

func TestReadSkipsCommentsAndErrors(t *testing.T) {
	in := "# comment\n\n10.0.0.0/8 3\n"
	tbl, err := Read(strings.NewReader(in))
	if err != nil || tbl.Len() != 1 {
		t.Fatalf("Read: %v len=%d", err, tbl.Len())
	}
	for _, bad := range []string{"10.0.0.0/8", "10.0.0.0/8 x", "zz 1", "10.0.0.0/8 70000"} {
		if _, err := Read(strings.NewReader(bad)); err == nil {
			t.Errorf("Read(%q): want error", bad)
		}
	}
}

func TestSynthesizeExactSizeAndDistribution(t *testing.T) {
	tbl := Small(10000, 11)
	if tbl.Len() != 10000 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	h := tbl.LengthHistogram()
	// /24 must dominate (roughly 46.5% by construction).
	if frac := float64(h[24]) / 10000; frac < 0.40 || frac > 0.55 {
		t.Errorf("/24 fraction = %.3f, want ~0.465", frac)
	}
	// >83% of prefixes at /24 or shorter, per the paper's cited statistic.
	le24 := 0
	for l := 0; l <= 24; l++ {
		le24 += h[l]
	}
	if frac := float64(le24) / 10000; frac < 0.83 {
		t.Errorf("<=24 fraction = %.3f, want >= 0.83", frac)
	}
	// Some host routes exist (minimum range granularity 1, per Sec 2.2).
	if h[32] == 0 {
		t.Error("want some /32 prefixes")
	}
}

// Regression: RT_2-scale tables demand more /8s than exist under the
// unicast filter; the quota must spill into /24 instead of spinning.
func TestSynthesizePaperSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 140k-prefix table")
	}
	t2 := RT2()
	if t2.Len() != 140838 {
		t.Fatalf("RT2 size = %d", t2.Len())
	}
	h := t2.LengthHistogram()
	if h[8] == 0 || h[8] > 192 {
		t.Errorf("/8 count = %d, want within generator capacity", h[8])
	}
	t1 := RT1()
	if t1.Len() != 41709 {
		t.Fatalf("RT1 size = %d", t1.Len())
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a, b := Small(1000, 5), Small(1000, 5)
	for i := range a.Routes() {
		if a.Routes()[i] != b.Routes()[i] {
			t.Fatal("same seed must give same table")
		}
	}
	c := Small(1000, 6)
	diff := false
	for i := range a.Routes() {
		if a.Routes()[i] != c.Routes()[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds should give different tables")
	}
}

func TestSynthesizeNesting(t *testing.T) {
	tbl := Small(5000, 13)
	routes := tbl.Routes()
	nested := 0
	for i, r := range routes {
		// Sorted order puts covering prefixes immediately before their
		// more-specifics; scan a small back-window.
		for j := i - 1; j >= 0 && j >= i-32; j-- {
			if routes[j].Prefix.Contains(r.Prefix) && routes[j].Prefix != r.Prefix {
				nested++
				break
			}
		}
	}
	if frac := float64(nested) / float64(len(routes)); frac < 0.10 {
		t.Errorf("nested fraction = %.3f, want >= 0.10 (prefix exceptions)", frac)
	}
}

func TestApplyUpdate(t *testing.T) {
	tbl := New([]Route{
		{Prefix: ip.MustPrefix("10.0.0.0/8"), NextHop: 1},
	})
	// Announce new.
	t2 := tbl.Apply(Update{Kind: Announce, Route: Route{Prefix: ip.MustPrefix("11.0.0.0/8"), NextHop: 2}})
	if t2.Len() != 2 {
		t.Fatalf("announce new: Len = %d", t2.Len())
	}
	// Re-announce existing changes next hop.
	t3 := t2.Apply(Update{Kind: Announce, Route: Route{Prefix: ip.MustPrefix("10.0.0.0/8"), NextHop: 9}})
	if nh, _ := t3.LookupLinear(0x0a000001); nh != 9 {
		t.Errorf("re-announce: nh = %d", nh)
	}
	if t3.Len() != 2 {
		t.Errorf("re-announce should not grow table")
	}
	// Withdraw.
	t4 := t3.Apply(Update{Kind: Withdraw, Route: Route{Prefix: ip.MustPrefix("10.0.0.0/8")}})
	if t4.Len() != 1 {
		t.Errorf("withdraw: Len = %d", t4.Len())
	}
	// Withdraw missing is a no-op.
	t5 := t4.Apply(Update{Kind: Withdraw, Route: Route{Prefix: ip.MustPrefix("12.0.0.0/8")}})
	if t5.Len() != 1 {
		t.Errorf("withdraw missing: Len = %d", t5.Len())
	}
}

func TestGenerateUpdates(t *testing.T) {
	tbl := Small(200, 3)
	ups := GenerateUpdates(tbl, UpdateStreamConfig{
		RatePerSecond: 20,
		CycleNS:       5,
		Duration:      12_000_000, // 60 ms at 5 ns/cycle
		WithdrawProb:  0.3,
		Seed:          1,
	})
	// ~20/s over 60 ms ≈ 1.2 events; run longer for a stable count.
	ups = GenerateUpdates(tbl, UpdateStreamConfig{
		RatePerSecond: 100,
		CycleNS:       5,
		Duration:      200_000_000, // 1 s
		WithdrawProb:  0.3,
		Seed:          1,
	})
	if len(ups) < 60 || len(ups) > 140 {
		t.Errorf("got %d updates for 100/s over 1 s", len(ups))
	}
	var last int64 = -1
	withdraws := 0
	for _, u := range ups {
		if u.AtCycle <= last {
			t.Fatal("updates must be time-ordered")
		}
		last = u.AtCycle
		if u.Kind == Withdraw {
			withdraws++
		}
	}
	if withdraws == 0 || withdraws == len(ups) {
		t.Errorf("withdraw mix wrong: %d/%d", withdraws, len(ups))
	}
	if got := GenerateUpdates(tbl, UpdateStreamConfig{}); got != nil {
		t.Error("zero config should produce no updates")
	}
}

func TestRandomMatchedAddr(t *testing.T) {
	tbl := Small(300, 9)
	rng := stats.NewRNG(4)
	for i := 0; i < 1000; i++ {
		a := tbl.RandomMatchedAddr(rng)
		if _, ok := tbl.LookupLinear(a); !ok {
			t.Fatalf("RandomMatchedAddr produced unmatched address %s", ip.FormatAddr(a))
		}
	}
}

// Property: Apply(Announce) then LookupLinear on an address inside the
// announced prefix and outside any longer match returns the announced hop.
func TestApplyAnnounceProperty(t *testing.T) {
	base := Small(100, 21)
	f := func(v uint32, lenSeed, nh uint8) bool {
		l := uint8(1 + int(lenSeed)%32)
		p := ip.Prefix{Value: v, Len: l}.Canon()
		t2 := base.Apply(Update{Kind: Announce, Route: Route{Prefix: p, NextHop: NextHop(nh)}})
		got, ok := t2.LookupLinear(p.FirstAddr())
		if !ok {
			return false
		}
		// The announced route wins unless a strictly longer existing prefix
		// matches the same address.
		for _, r := range t2.Routes() {
			if r.Prefix.Len > l && r.Prefix.Matches(p.FirstAddr()) {
				return true // longer match legitimately wins
			}
		}
		return got == NextHop(nh)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// applyAllRebuild is ApplyAll as it was before it became a sorted merge —
// every route into a map, the batch over it in order, the keys re-sorted —
// kept as the oracle the merge is compared with route for route.
func applyAllRebuild(t *Table, batch []Update) *Table {
	byPrefix := make(map[ip.Prefix]NextHop, len(t.routes)+len(batch))
	for _, r := range t.routes {
		byPrefix[r.Prefix] = r.NextHop
	}
	for _, u := range batch {
		p := u.Route.Prefix.Canon()
		if u.Kind == Withdraw {
			delete(byPrefix, p)
		} else {
			byPrefix[p] = u.Route.NextHop
		}
	}
	ps := make([]ip.Prefix, 0, len(byPrefix))
	for p := range byPrefix {
		ps = append(ps, p)
	}
	ip.Sort(ps)
	routes := make([]Route, len(ps))
	for i, p := range ps {
		routes[i] = Route{Prefix: p, NextHop: byPrefix[p]}
	}
	return &Table{routes: routes}
}

// checkApplyAll applies batch to base both ways and fails unless the merge
// equals the rebuild route for route and left the caller's slice alone.
func checkApplyAll(t *testing.T, base *Table, batch []Update) *Table {
	t.Helper()
	in := slices.Clone(batch)
	reported := map[ip.Prefix]int{}
	got := base.ApplyAllFunc(batch, func(p ip.Prefix, delta int) {
		if _, twice := reported[p]; twice {
			t.Fatalf("%v reported twice", p)
		}
		reported[p] = delta
	})
	want := applyAllRebuild(base, batch)
	if !slices.Equal(batch, in) {
		t.Fatal("ApplyAll reordered or rewrote the caller's batch")
	}
	if !slices.Equal(got.Routes(), want.Routes()) {
		t.Fatalf("merge over %d routes, %d events: %d routes, rebuild has %d (first difference at %d)",
			base.Len(), len(batch), got.Len(), want.Len(), firstDiff(got.Routes(), want.Routes()))
	}
	// The reports are the prefix sets' difference: +1 for each prefix only
	// the result holds, −1 for each only base held.
	diff := map[ip.Prefix]int{}
	for _, r := range want.Routes() {
		diff[r.Prefix]++
	}
	for _, r := range base.Routes() {
		if diff[r.Prefix]--; diff[r.Prefix] == 0 {
			delete(diff, r.Prefix)
		}
	}
	if !maps.Equal(reported, diff) {
		t.Fatalf("ApplyAllFunc reported %d prefix changes, the tables differ in %d", len(reported), len(diff))
	}
	return got
}

// checkLongestMatch holds the binary-search oracle to the linear scan at a.
func checkLongestMatch(t *testing.T, tbl *Table, a ip.Addr) {
	t.Helper()
	nh, ok := tbl.LookupLinear(a)
	if r, ok2 := tbl.LongestMatch(a); ok != ok2 || r.NextHop != nh {
		t.Fatalf("%s: LongestMatch %v/%d, LookupLinear %v/%d", ip.FormatAddr(a), ok2, r.NextHop, ok, nh)
	}
}

func firstDiff(a, b []Route) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestApplyAllMatchesRebuild chains seeded update streams, cut into batches
// of 1, 7 and 1000 events, through an evolving table, and checks every step
// against the map-rebuild oracle and the end state against the linear scan.
func TestApplyAllMatchesRebuild(t *testing.T) {
	tables := map[string]*Table{"RT1": RT1()}
	for _, s := range []uint64{1, 2, 3} {
		tables["Small/"+strconv.FormatUint(s, 10)] = Small(2000, s)
	}
	for name, tbl := range tables {
		t.Run(name, func(t *testing.T) {
			stream := GenerateUpdates(tbl, UpdateStreamConfig{
				RatePerSecond: 1000, CycleNS: 5, Duration: 450_000_000,
				WithdrawProb: 0.35, NewPrefixProb: 0.3, Seed: uint64(tbl.Len()),
			})
			cur := tbl
			for _, size := range []int{1, 7, 1000, 1, 7, 1000} {
				if len(stream) < size {
					t.Fatalf("stream ran out before a batch of %d", size)
				}
				cur = checkApplyAll(t, cur, stream[:size])
				stream = stream[size:]
			}
			rng := stats.NewRNG(uint64(tbl.Len()))
			for i := 0; i < 200; i++ {
				a := ip.Addr(rng.Uint64())
				if i%2 == 0 {
					a = cur.RandomMatchedAddr(rng)
				}
				checkLongestMatch(t, cur, a)
			}
		})
	}
}

// TestApplyAllHandBuilt covers the batch shapes a generated stream rarely
// produces.
func TestApplyAllHandBuilt(t *testing.T) {
	base := Small(2000, 11)
	first, last := base.Routes()[0], base.Routes()[base.Len()-1]
	ann := func(s string, nh NextHop) Update {
		return Update{Kind: Announce, Route: Route{Prefix: ip.MustPrefix(s), NextHop: nh}}
	}
	wd := func(p ip.Prefix) Update { return Update{Kind: Withdraw, Route: Route{Prefix: p}} }
	raw := ip.Prefix{Value: 0x0a010203, Len: 8} // 10.1.2.3/8, not canonical
	var all []Update
	for _, r := range base.Routes() {
		all = append(all, wd(r.Prefix))
	}
	for name, batch := range map[string][]Update{
		"announce-withdraw-announce": {ann("172.16.0.0/12", 1), wd(ip.MustPrefix("172.16.0.0/12")), ann("172.16.0.0/12", 3)},
		"withdraw-announce-withdraw": {wd(first.Prefix), {Kind: Announce, Route: first}, wd(first.Prefix)},
		"non-canonical":              {{Kind: Announce, Route: Route{Prefix: raw, NextHop: 5}}, wd(raw), {Kind: Announce, Route: Route{Prefix: raw, NextHop: 6}}},
		"withdraw-absent":            {wd(ip.MustPrefix("203.0.113.0/24")), wd(ip.MustPrefix("0.0.0.0/0"))},
		"re-announce-present":        {{Kind: Announce, Route: Route{Prefix: first.Prefix, NextHop: first.NextHop + 1}}},
		"before-first-after-last":    {ann("0.0.0.0/0", 7), ann("255.255.255.255/32", 8), wd(first.Prefix), wd(last.Prefix)},
		"same-value-other-lengths":   {ann("10.0.0.0/7", 1), ann("10.0.0.0/9", 2), ann("10.0.0.0/8", 3), wd(ip.MustPrefix("10.0.0.0/9"))},
		"empties-the-table":          all,
		"empties-then-one":           append(slices.Clone(all), ann("192.0.2.0/24", 9)),
	} {
		t.Run(name, func(t *testing.T) {
			got := checkApplyAll(t, base, batch)
			switch name {
			case "empties-the-table":
				if got.Len() != 0 {
					t.Fatalf("%d routes left", got.Len())
				}
			case "non-canonical":
				if r, ok := got.LongestMatch(0x0aff0000); !ok || r.Prefix != raw.Canon() || r.NextHop != 6 {
					t.Fatalf("10.255.0.0 matched %v/%d, want 10.0.0.0/8 with the last next hop 6", r.Prefix, r.NextHop)
				}
			}
			// A second batch over the result: an emptied table takes routes again.
			checkApplyAll(t, got, []Update{ann("198.51.100.0/24", 4), wd(last.Prefix)})
		})
	}
	if base.ApplyAll(nil) != base || base.ApplyAll([]Update{}) != base {
		t.Fatal("an empty batch must return the table itself")
	}
}

// FuzzApplyAll turns bytes into announce/withdraw events over a 64-route
// table — four bytes an event: kind and next hop, then either an index into
// the table's own prefixes or a length and two value bytes, deliberately not
// canonical — and holds the merge to the map-rebuild oracle.
func FuzzApplyAll(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0})       // announce, withdraw, announce of route 0
	f.Add([]byte{0, 8, 10, 1, 1, 8, 10, 2, 4, 8, 10, 3})    // 10.x/8 three times, non-canonical
	f.Add([]byte{1, 0, 0, 0, 0, 32, 255, 255, 0, 0, 0, 0})  // default route out, /32 at the top, /0 in
	f.Add([]byte{3, 63, 0, 0, 3, 0, 0, 0, 0, 24, 255, 255}) // withdraw last and first, announce past the end
	base := Small(64, 5)
	f.Fuzz(func(t *testing.T, data []byte) {
		var batch []Update
		for ; len(data) >= 4; data = data[4:] {
			u := Update{Kind: UpdateKind(data[0] & 1), Route: Route{NextHop: NextHop(data[0] >> 2)}}
			if data[0]&2 != 0 {
				u.Route.Prefix = base.Routes()[int(data[1])%base.Len()].Prefix
			} else {
				u.Route.Prefix = ip.Prefix{Value: uint32(data[2])<<24 | uint32(data[3])<<16 | uint32(data[3]), Len: data[1] % 33}
			}
			batch = append(batch, u)
		}
		got := checkApplyAll(t, base, batch)
		for _, u := range batch {
			checkLongestMatch(t, got, u.Route.Prefix.Canon().FirstAddr())
		}
	})
}

// TestNewSorted: input already in table order comes back as New would build
// it, in the caller's own slice rather than a copy; anything else — out of
// order, a duplicate, a prefix with bits set past its length — is handed to
// New.
func TestNewSorted(t *testing.T) {
	base := Small(500, 13)
	in := slices.Clone(base.Routes())
	got := NewSorted(in)
	if !slices.Equal(got.Routes(), base.Routes()) {
		t.Fatal("sorted input changed on the way through")
	}
	if &got.Routes()[0] != &in[0] {
		t.Fatal("NewSorted copied the caller's slice")
	}
	in = slices.Clone(in)
	if NewSorted(nil).Len() != 0 {
		t.Fatal("empty input")
	}
	for name, bad := range map[string][]Route{
		"swapped":       append([]Route{in[1], in[0]}, in[2:]...),
		"duplicate":     append([]Route{in[0], {Prefix: in[0].Prefix, NextHop: 99}}, in[1:]...),
		"non-canonical": {{Prefix: ip.Prefix{Value: 0x0a010203, Len: 8}, NextHop: 1}, {Prefix: ip.MustPrefix("11.0.0.0/8"), NextHop: 2}},
	} {
		if !slices.Equal(NewSorted(bad).Routes(), New(bad).Routes()) {
			t.Errorf("%s: NewSorted disagrees with New", name)
		}
	}
}

// mapNew is the map-based New that the one-sort New replaced, kept as its
// reference.
func mapNew(routes []Route) *Table {
	byPrefix := make(map[ip.Prefix]NextHop, len(routes))
	for _, r := range routes {
		byPrefix[r.Prefix.Canon()] = r.NextHop
	}
	ps := make([]ip.Prefix, 0, len(byPrefix))
	for p := range byPrefix {
		ps = append(ps, p)
	}
	ip.Sort(ps)
	out := make([]Route, len(ps))
	for i, p := range ps {
		out[i] = Route{Prefix: p, NextHop: byPrefix[p]}
	}
	return &Table{routes: out}
}

// shuffled returns the table's routes in a seeded random order.
func shuffled(t *Table, seed uint64) []Route {
	routes := slices.Clone(t.Routes())
	rng := stats.NewRNG(seed)
	for i := len(routes) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		routes[i], routes[j] = routes[j], routes[i]
	}
	return routes
}

// TestNewMatchesMapReference holds New to mapNew — the last of equal
// prefixes wins, non-canonical prefixes are cleared — and requires the
// routes slice to be exactly as long as the table, so no set-up slack is
// retained with it.
func TestNewMatchesMapReference(t *testing.T) {
	inputs := map[string][]Route{"empty": nil, "RT1": shuffled(RT1(), 1), "RT2": shuffled(RT2(), 2)}
	rng := stats.NewRNG(3)
	for k := 0; k < 20; k++ {
		routes := make([]Route, rng.Intn(2000))
		for i := range routes {
			// Few values and lengths: many duplicates, most of them
			// non-canonical.
			p := ip.Prefix{Value: 10<<24 | uint32(rng.Intn(64))<<16 | uint32(rng.Intn(4)), Len: uint8(8 + rng.Intn(25))}
			routes[i] = Route{Prefix: p, NextHop: NextHop(rng.Intn(1000))}
		}
		inputs["random/"+strconv.Itoa(k)] = routes
	}
	for name, routes := range inputs {
		in := slices.Clone(routes)
		got, want := New(routes), mapNew(routes)
		if !slices.Equal(got.Routes(), want.Routes()) {
			t.Errorf("%s: New differs from the map reference at route %d (%d routes, want %d)", name, firstDiff(got.Routes(), want.Routes()), got.Len(), want.Len())
		}
		if cap(got.Routes()) != got.Len() {
			t.Errorf("%s: routes slice keeps %d entries of slack", name, cap(got.Routes())-got.Len())
		}
		if !slices.Equal(in, routes) {
			t.Errorf("%s: New modified its input", name)
		}
	}
}

// BenchmarkTableNew prices New on RT2's routes in a shuffled order.
func BenchmarkTableNew(b *testing.B) {
	routes := shuffled(RT2(), 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(routes)
	}
}
