// Quickstart: partition a routing table for a 4-line-card router, build a
// Lulea forwarding table for each LC, and look up a few destinations the
// way a SPAL home line card would.
package main

import (
	"fmt"
	"log"

	"spal"
)

func main() {
	// A synthetic BGP-like table (use spal.RT2() for the paper-sized one).
	table := spal.SynthesizeTable(20000, 1)
	fmt.Printf("routing table: %d prefixes\n", table.Len())

	// Fragment it for 4 line cards per the paper's two criteria.
	const numLCs = 4
	part := spal.Partition(table, numLCs)
	fmt.Printf("control bits:  %v\n", part.Bits)
	st := part.Stats()
	fmt.Printf("partitions:    %v (replication %.2f)\n", st.Sizes, st.Replication)

	// Build one Lulea trie per line card — each a fraction of the full
	// table's size.
	// The partitioning keeps one copy of the routes; Tables derives each
	// LC's route list from it, for the build.
	build := spal.Engines()["lulea"]
	engines := make([]spal.Engine, numLCs)
	for lc, lt := range part.Tables() {
		engines[lc] = build(lt)
		fmt.Printf("LC %d: %d prefixes, %d KB Lulea trie\n",
			lc, lt.Len(), engines[lc].MemoryBytes()/1024)
	}
	whole := build(table)
	fmt.Printf("unpartitioned Lulea trie: %d KB\n", whole.MemoryBytes()/1024)

	// Route a few packets: find the home LC, run LPM there.
	for _, s := range []string{"10.1.2.3", "192.168.7.9", "4.4.4.4"} {
		addr, err := spal.ParseAddr(s)
		if err != nil {
			log.Fatal(err)
		}
		home := part.HomeLC(addr)
		nh, accesses, ok := engines[home].Lookup(addr)
		if !ok {
			fmt.Printf("%-14s home=LC%d  no route\n", s, home)
			continue
		}
		fmt.Printf("%-14s home=LC%d  next hop %d (%d memory accesses)\n",
			s, home, nh, accesses)
	}
}
