package lulea

import (
	"testing"

	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/partition"
	"spal/internal/rtable"
	"spal/internal/stats"
)

// BenchmarkLuleaCold prices a miss-path engine sweep in the unit the
// router pays it: bursts of 16 matched addresses (cold_batch's 64/ψ) that
// do not repeat, rotating over the ψ = 4 partition tries of RT2 ("part")
// or resolved by the one full-table trie ("full"), one key at a time
// ("Lookup") or through lpm.LookupAll. One iteration is one burst; the
// figure to read is ns/addr.
func BenchmarkLuleaCold(b *testing.B) {
	const (
		burst = 16
		pool  = 1 << 16 // bursts per trie before the stream repeats
	)
	full := rtable.RT2()
	parts := partition.Partition(full, 4)
	tables := map[string][]*rtable.Table{"full": {full}, "part": parts.Tables()}
	for _, which := range []string{"part", "full"} {
		var tries []*Trie
		var addrs [][]ip.Addr
		for i, tbl := range tables[which] {
			tries = append(tries, New(tbl))
			rng := stats.NewRNG(uint64(61 + i))
			as := make([]ip.Addr, pool*burst/len(tables[which]))
			for j := range as {
				as[j] = tbl.RandomMatchedAddr(rng)
			}
			addrs = append(addrs, as)
		}
		run := func(name string, sweep func(tr *Trie, as []ip.Addr)) {
			b.Run(which+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					t := i % len(tries)
					at := i / len(tries) * burst % len(addrs[t])
					sweep(tries[t], addrs[t][at:at+burst])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/addr")
			})
		}
		run("Lookup", func(tr *Trie, as []ip.Addr) {
			for _, a := range as {
				_, acc, _ := tr.Lookup(a)
				benchSink += acc
			}
		})
		out := make([]lpm.Result, burst)
		run("LookupAll", func(tr *Trie, as []ip.Addr) {
			lpm.LookupAll(tr, as, out)
			benchSink += int(out[0].Accesses)
		})
	}
}

var benchSink int
