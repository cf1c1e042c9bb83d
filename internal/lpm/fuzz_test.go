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
