package lpm_test

import (
	"encoding/binary"
	"testing"

	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/rtable"
)

// decodeTable derives a routing table and probe addresses from raw fuzz
// bytes: 5 bytes per route (4 value + 1 length), the tail as addresses.
func decodeTable(data []byte) (*rtable.Table, []ip.Addr) {
	var routes []rtable.Route
	i := 0
	for ; i+5 <= len(data) && len(routes) < 64; i += 5 {
		v := binary.BigEndian.Uint32(data[i:])
		l := uint8(data[i+4]) % 33
		routes = append(routes, rtable.Route{
			Prefix:  ip.Prefix{Value: v, Len: l}.Canon(),
			NextHop: rtable.NextHop(i),
		})
	}
	var addrs []ip.Addr
	for ; i+4 <= len(data) && len(addrs) < 64; i += 4 {
		addrs = append(addrs, binary.BigEndian.Uint32(data[i:]))
	}
	return rtable.New(routes), addrs
}

// FuzzEnginesAgree cross-checks every engine against the oracle on
// fuzz-derived tables — the deepest correctness net in the repository.
func FuzzEnginesAgree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{10, 0, 0, 0, 8, 10, 1, 0, 0, 16, 10, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 255, 255, 255, 255, 32, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, addrs := decodeTable(data)
		for _, r := range tbl.Routes() {
			addrs = append(addrs, r.Prefix.FirstAddr(), r.Prefix.LastAddr())
		}
		// Where the batch pass cuts the list in two, so the engines' group
		// edges move with the input.
		split := 0
		if len(data) > 0 {
			split = int(data[len(data)-1]) % (len(addrs) + 1)
		}
		want, single, batch := make([]lpm.Result, len(addrs)), make([]lpm.Result, len(addrs)), make([]lpm.Result, len(addrs))
		lpm.LookupAll(lpm.NewReference(tbl), addrs, want)
		differ := func(got lpm.Result, i int) bool {
			return got.OK != want[i].OK || (got.OK && got.NextHop != want[i].NextHop)
		}
		for _, build := range builders {
			e := build(tbl)
			for i, a := range addrs {
				nh, acc, ok := e.Lookup(a)
				single[i] = lpm.Result{NextHop: nh, Accesses: int32(acc), OK: ok}
				if differ(single[i], i) {
					t.Fatalf("%s: Lookup(%s) = (%d,%v), want (%d,%v)",
						e.Name(), ip.FormatAddr(a), nh, ok, want[i].NextHop, want[i].OK)
				}
			}
			if _, ok := e.(lpm.BatchEngine); !ok {
				continue
			}
			lpm.LookupAll(e, addrs[:split], batch)
			lpm.LookupAll(e, addrs[split:], batch[split:])
			for i, a := range addrs {
				if differ(batch[i], i) || batch[i].Accesses != single[i].Accesses {
					t.Fatalf("%s: LookupAll[%d] for %s, split at %d = %+v, want (%d,%v) in %d accesses",
						e.Name(), i, ip.FormatAddr(a), split, batch[i], want[i].NextHop, want[i].OK, single[i].Accesses)
				}
			}
		}
	})
}

// decodeHistory derives an update history from raw fuzz bytes: a count of
// initial routes and a count of updates, the routes at 5 bytes each as in
// decodeTable, the updates at 6 (kind, value, length), the tail as probe
// addresses. An odd kind withdraws, and what it withdraws is the route its
// value indexes in the table as it stands — a withdrawal drawn blind almost
// never names a present prefix; an even kind announces its prefix with the
// kind for a next hop. It returns the table to build from, the updates, and
// the table they leave.
func decodeHistory(data []byte) (initial *rtable.Table, ops []rtable.Update, final *rtable.Table, addrs []ip.Addr) {
	var nRoutes, nOps int
	if len(data) >= 2 {
		nRoutes, nOps, data = int(data[0])%65, int(data[1]), data[2:]
	}
	nRoutes = min(nRoutes, len(data)/5)
	initial, _ = decodeTable(data[:5*nRoutes])
	data = data[5*nRoutes:]
	final = initial
	for ; len(ops) < nOps && len(data) >= 6; data = data[6:] {
		v := binary.BigEndian.Uint32(data[1:])
		u := rtable.Update{Kind: rtable.Announce, Route: rtable.Route{
			Prefix:  ip.Prefix{Value: v, Len: data[5] % 33}.Canon(),
			NextHop: rtable.NextHop(data[0]),
		}}
		if data[0]%2 == 1 && final.Len() > 0 {
			u = rtable.Update{Kind: rtable.Withdraw, Route: final.Routes()[int(v%uint32(final.Len()))]}
		}
		ops = append(ops, u)
		final = final.Apply(u)
	}
	for ; len(data) >= 4 && len(addrs) < 64; data = data[4:] {
		addrs = append(addrs, binary.BigEndian.Uint32(data))
	}
	return initial, ops, final, addrs
}

// FuzzDynamicAgree is FuzzEnginesAgree for update histories: every engine
// that takes updates in place is built from a table, streamed a sequence of
// announcements and withdrawals, and compared with the oracle on the table
// they leave — and, identical to the byte and to the count, with a fresh
// build of itself on that table: an in-place engine's modelled footprint and
// the accesses it charges an address may not depend on the route it took.
func FuzzDynamicAgree(f *testing.F) {
	route := func(cidr string) []byte { // decodeTable's five bytes
		p := ip.MustPrefix(cidr)
		return append(binary.BigEndian.AppendUint32(nil, p.Value), p.Len)
	}
	announce := func(cidr string) []byte { return append([]byte{2 * ip.MustPrefix(cidr).Len}, route(cidr)...) }
	withdraw := func(i byte) []byte { return []byte{1, 0, 0, 0, i, 0} }
	// seed adds a history and each of its beginnings: the comparison is
	// made where a history ends, and a later update can undo what an earlier
	// one left wrong.
	seed := func(initial []string, ops ...[]byte) {
		for n := 1; n <= len(ops); n++ {
			data := []byte{byte(len(initial)), byte(n)}
			for _, cidr := range initial {
				data = append(data, route(cidr)...)
			}
			for _, op := range ops[:n] {
				data = append(data, op...)
			}
			f.Add(append(data, 10, 1, 2, 200, 10, 1, 3, 4)) // two probe addresses
		}
	}
	// A /24 under a /16 splits into its /25s and joins again. Routes are
	// indexed in table order: value, then length.
	seed([]string{"10.1.0.0/16", "10.1.2.0/24"},
		withdraw(1), announce("10.1.2.0/25"), announce("10.1.2.128/25"),
		withdraw(1), withdraw(1), announce("10.1.2.0/24"))
	// Down to the empty root, and back.
	seed([]string{"10.0.0.0/8", "10.1.0.0/16", "192.168.1.0/24"},
		withdraw(0), withdraw(0), withdraw(0),
		announce("192.168.1.0/24"), announce("10.1.0.0/16"), announce("10.0.0.0/8"))
	// The two ends of the length range, the /0 on the root itself.
	seed([]string{"0.0.0.0/0"},
		announce("1.2.3.4/32"), withdraw(0), announce("0.0.0.0/0"), withdraw(1))
	f.Fuzz(func(t *testing.T, data []byte) {
		initial, ops, final, addrs := decodeHistory(data)
		for _, r := range final.Routes() {
			addrs = append(addrs, r.Prefix.FirstAddr(), r.Prefix.LastAddr())
		}
		for _, u := range ops { // a withdrawn prefix's addresses included
			addrs = append(addrs, u.Route.Prefix.FirstAddr(), u.Route.Prefix.LastAddr())
		}
		oracle := lpm.NewReference(final)
		for _, build := range builders {
			e, ok := build(initial).(lpm.DynamicEngine)
			if !ok {
				continue
			}
			for i, u := range ops {
				if u.Kind == rtable.Announce {
					e.Insert(u.Route.Prefix, u.Route.NextHop)
				} else if !e.Delete(u.Route.Prefix) {
					t.Fatalf("%s: update %d: Delete(%s) reports a present route absent", e.Name(), i, u.Route.Prefix)
				}
			}
			fresh := build(final)
			if got, want := e.MemoryBytes(), fresh.MemoryBytes(); got != want {
				t.Fatalf("%s: %d modelled bytes after %d updates, %d when built from the table they leave", e.Name(), got, len(ops), want)
			}
			for _, a := range addrs {
				wantNH, _, wantOK := oracle.Lookup(a)
				_, wantAcc, _ := fresh.Lookup(a)
				nh, acc, ok := e.Lookup(a)
				if ok != wantOK || (ok && nh != wantNH) || acc != wantAcc {
					t.Fatalf("%s: after %d updates Lookup(%s) = (%d,%v) in %d accesses, want (%d,%v) in %d",
						e.Name(), len(ops), ip.FormatAddr(a), nh, ok, acc, wantNH, wantOK, wantAcc)
				}
			}
		}
	})
}
