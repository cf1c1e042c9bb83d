package partition

import (
	"encoding/binary"
	"testing"

	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/rtable"
)

// FuzzHomeInvariant fuzzes the core SPAL guarantee: for any table, any ψ
// and any address, longest-prefix matching over the home partition equals
// matching over the whole table.
func FuzzHomeInvariant(f *testing.F) {
	f.Add([]byte{}, uint8(4))
	f.Add([]byte{10, 0, 0, 0, 8, 10, 1, 0, 0, 16, 1, 2, 3, 4}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, psiSeed uint8) {
		psi := 1 + int(psiSeed)%16
		var routes []rtable.Route
		i := 0
		for ; i+5 <= len(data) && len(routes) < 48; i += 5 {
			v := binary.BigEndian.Uint32(data[i:])
			routes = append(routes, rtable.Route{
				Prefix:  ip.Prefix{Value: v, Len: uint8(data[i+4]) % 33}.Canon(),
				NextHop: rtable.NextHop(i),
			})
		}
		var addrs []ip.Addr
		for ; i+4 <= len(data) && len(addrs) < 48; i += 4 {
			addrs = append(addrs, binary.BigEndian.Uint32(data[i:]))
		}
		tbl := rtable.New(routes)
		p := Partition(tbl, psi)
		oracle := lpm.NewReference(tbl)
		for _, r := range tbl.Routes() {
			addrs = append(addrs, r.Prefix.FirstAddr(), r.Prefix.LastAddr())
		}
		for _, a := range addrs {
			home := p.HomeLC(a)
			if home < 0 || home >= psi {
				t.Fatalf("HomeLC(%s) = %d out of range", ip.FormatAddr(a), home)
			}
			wNH, _, wOK := oracle.Lookup(a)
			gNH, gOK := p.Table(home).LookupLinear(a)
			if wOK != gOK || (wOK && wNH != gNH) {
				t.Fatalf("psi=%d addr=%s: home (%d,%v) != full (%d,%v)",
					psi, ip.FormatAddr(a), gNH, gOK, wNH, wOK)
			}
		}
		// One batch of churn: a generated stream, then a withdrawal of every
		// other fuzzed route, with its host bits set (not canonical) and
		// repeats kept. The sizes the partitioning keeps must still be its
		// tables' lengths.
		batch := rtable.GenerateUpdates(tbl, rtable.UpdateStreamConfig{
			RatePerSecond: 1000, CycleNS: 5, Duration: 40_000_000,
			WithdrawProb: 0.4, NewPrefixProb: 0.3,
			Seed: uint64(len(data))<<8 | uint64(psiSeed),
		})
		for j := 0; j < len(routes); j += 2 {
			r := routes[j]
			r.Prefix.Value |= ^ip.Mask(r.Prefix.Len)
			batch = append(batch, rtable.Update{Kind: rtable.Withdraw, Route: r})
		}
		np, _ := p.ApplyUpdates(batch)
		tables := np.Tables()
		for lc, n := range np.Stats().Sizes {
			if n != tables[lc].Len() {
				t.Fatalf("psi=%d lc=%d: kept size %d after updates, table holds %d", psi, lc, n, tables[lc].Len())
			}
		}
	})
}
