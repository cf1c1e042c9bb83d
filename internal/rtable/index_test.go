package rtable_test

import (
	"encoding/binary"
	"testing"

	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/rtable"
	"spal/internal/stats"
)

// edges returns, for every route of t, its first and last address and the
// addresses one below and one above: where a route's reach begins and ends.
func edges(t *rtable.Table) []ip.Addr {
	var out []ip.Addr
	for _, r := range t.Routes() {
		f, l := r.Prefix.FirstAddr(), r.Prefix.LastAddr()
		out = append(out, f, l, f-1, l+1)
	}
	return out
}

// checkIndex asks the index and lpm.Reference — a hash per length, sharing
// no code with it — about every address, and LookupLinear about every
// linearEvery-th one.
func checkIndex(t *testing.T, tbl *rtable.Table, addrs []ip.Addr, linearEvery int) (matched, unmatched int) {
	t.Helper()
	x, ref := rtable.NewIndex(tbl), lpm.NewReference(tbl)
	for i, a := range addrs {
		nh, ok := x.Lookup(a)
		want, _, wantOK := ref.Lookup(a)
		if !wantOK {
			want = rtable.NoNextHop
		}
		if nh != want || ok != wantOK {
			t.Fatalf("%s: index answers %d/%v, lpm.Reference %d/%v", ip.FormatAddr(a), nh, ok, want, wantOK)
		}
		if i%linearEvery == 0 {
			if lnh, lok := tbl.LookupLinear(a); lnh != nh || lok != ok {
				t.Fatalf("%s: index answers %d/%v, LookupLinear %d/%v", ip.FormatAddr(a), nh, ok, lnh, lok)
			}
		}
		if ok {
			matched++
		} else {
			unmatched++
		}
	}
	return matched, unmatched
}

// TestIndexRT2: a million matched and unmatched addresses, and every
// route's edges, answered alike by the index and lpm.Reference on RT2;
// every 500th also by LookupLinear, which is a scan of the whole table.
func TestIndexRT2(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 140k-prefix table")
	}
	tbl := rtable.RT2()
	rng := stats.NewRNG(11)
	addrs := edges(tbl)
	for i := 0; i < 1_000_000; i++ {
		if i%2 == 0 {
			addrs = append(addrs, tbl.RandomMatchedAddr(rng))
		} else {
			addrs = append(addrs, rng.Uint32())
		}
	}
	matched, unmatched := checkIndex(t, tbl, addrs, 500)
	if matched < 500_000 || unmatched < 10_000 {
		t.Fatalf("%d matched and %d unmatched addresses: the sample does not exercise both outcomes", matched, unmatched)
	}
}

// TestIndexShapes: small tables with what a trie's edge cases are made of —
// a /0 default, /32 host routes, a chain of routes nested seven deep with
// siblings inside it, and the same table without its default, where
// addresses outside every route must come back unmatched.
func TestIndexShapes(t *testing.T) {
	chain := []string{
		"10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.1.2.0/26",
		"10.1.2.0/28", "10.1.2.0/30", "10.1.2.1/32",
		"10.1.2.2/31", "10.1.2.16/28", "10.1.2.64/26", "10.1.3.0/24", "10.2.0.0/16",
	}
	hosts := []string{"0.0.0.0/32", "255.255.255.255/32", "10.1.2.3/32", "192.168.1.1/32"}
	for _, seed := range []uint64{1, 2, 3, 4} {
		base := rtable.Small(600, seed).Routes()
		extra := func(ss []string, nh rtable.NextHop) []rtable.Route {
			var out []rtable.Route
			for i, s := range ss {
				out = append(out, rtable.Route{Prefix: ip.MustPrefix(s), NextHop: nh + rtable.NextHop(i)})
			}
			return out
		}
		routes := append(append(append([]rtable.Route{}, base...), extra(chain, 100)...), extra(hosts, 200)...)
		for _, withDefault := range []bool{true, false} {
			rs := routes
			if withDefault {
				rs = append(rs, rtable.Route{Prefix: ip.MustPrefix("0.0.0.0/0"), NextHop: 99})
			}
			tbl := rtable.New(rs)
			rng := stats.NewRNG(seed)
			addrs := edges(tbl)
			for i := 0; i < 20_000; i++ {
				addrs = append(addrs, rng.Uint32(), tbl.RandomMatchedAddr(rng))
			}
			matched, unmatched := checkIndex(t, tbl, addrs, 1)
			if withDefault && unmatched != 0 {
				t.Fatalf("seed %d: %d addresses unmatched under a default route", seed, unmatched)
			}
			if !withDefault && (matched == 0 || unmatched == 0) {
				t.Fatalf("seed %d: %d matched, %d unmatched: want both", seed, matched, unmatched)
			}
		}
	}
}

// FuzzIndex: any table and any address, the index agrees with LookupLinear.
// Each 5 bytes of routes is one route (4 bytes of value, a length mod 33);
// each 4 bytes of addrs one address, asked beside every route's edges.
func FuzzIndex(f *testing.F) {
	f.Add([]byte{10, 0, 0, 0, 8, 10, 1, 0, 0, 16, 0, 0, 0, 0, 0}, []byte{10, 1, 2, 3, 11, 0, 0, 0})
	f.Add([]byte{192, 168, 1, 1, 32, 192, 168, 0, 0, 16, 192, 168, 1, 0, 24}, []byte{192, 168, 1, 1, 192, 168, 2, 2})
	f.Fuzz(func(t *testing.T, routes, addrs []byte) {
		var rs []rtable.Route
		for i := 0; i+5 <= len(routes); i += 5 {
			p := ip.Prefix{Value: binary.BigEndian.Uint32(routes[i:]), Len: routes[i+4] % 33}
			rs = append(rs, rtable.Route{Prefix: p.Canon(), NextHop: rtable.NextHop(i / 5)})
		}
		tbl := rtable.New(rs)
		as := edges(tbl)
		for i := 0; i+4 <= len(addrs); i += 4 {
			as = append(as, binary.BigEndian.Uint32(addrs[i:]))
		}
		x := rtable.NewIndex(tbl)
		for _, a := range as {
			nh, ok := x.Lookup(a)
			if want, wantOK := tbl.LookupLinear(a); nh != want || ok != wantOK {
				t.Fatalf("%s: index answers %d/%v, LookupLinear %d/%v", ip.FormatAddr(a), nh, ok, want, wantOK)
			}
		}
	})
}
