// Command spal-partition fragments a routing table per SPAL's criteria and
// reports the chosen control bits, partition sizes, replication, and the
// per-LC trie storage for each matching structure (the Sec. 4 analysis).
//
// Examples:
//
//	spal-partition -n 140838 -psi 16
//	spal-partition -table routes.txt -psi 4 -tries
package main

import (
	"flag"
	"fmt"
	"os"

	"spal/internal/lpm"
	"spal/internal/lpm/bintrie"
	"spal/internal/lpm/dptrie"
	"spal/internal/lpm/lctrie"
	"spal/internal/lpm/lulea"
	"spal/internal/partition"
	"spal/internal/rtable"
)

func main() {
	psi := flag.Int("psi", 4, "number of line cards (any integer >= 1)")
	n := flag.Int("n", 41709, "synthetic table size when -table is not given")
	seed := flag.Uint64("seed", 0x5e3d0001, "synthetic table seed")
	tablePath := flag.String("table", "", "routing table file (prefix nexthop per line)")
	format := flag.String("format", "plain", "table file format: plain or showbgp (Cisco 'show ip bgp' dump)")
	tries := flag.Bool("tries", true, "report per-trie storage sizes")
	flag.Parse()

	var tbl *rtable.Table
	if *tablePath != "" {
		f, err := os.Open(*tablePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		switch *format {
		case "plain":
			tbl, err = rtable.Read(f)
		case "showbgp":
			tbl, err = rtable.ReadShowBGP(f, 16)
		default:
			err = fmt.Errorf("unknown format %q", *format)
		}
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		tbl = rtable.Synthesize(rtable.SynthConfig{N: *n, NextHops: 16, NestProb: 0.35, Seed: *seed})
	}

	p := partition.Partition(tbl, *psi)
	st := p.Stats()
	fmt.Printf("table: %d prefixes, psi=%d\n", tbl.Len(), *psi)
	fmt.Printf("control bits: %v\n", p.Bits)
	fmt.Printf("partition sizes: %v\n", st.Sizes)
	fmt.Printf("min=%d max=%d replication=%.3f\n", st.Min, st.Max, st.Replication)

	if *tries {
		builders := []struct {
			name  string
			build lpm.Builder
		}{
			{"lulea", lulea.NewEngine},
			{"dptrie", dptrie.NewEngine},
			{"lctrie", lctrie.NewEngine},
			{"bintrie", bintrie.NewEngine},
		}
		fmt.Println("\ntrie storage (KB):")
		fmt.Printf("%-8s  %10s  %12s  %12s\n", "trie", "whole", "max per-LC", "saving/LC")
		tables := p.Tables()
		for _, b := range builders {
			whole := b.build(tbl).MemoryBytes()
			maxLC := 0
			for _, lt := range tables {
				if m := b.build(lt).MemoryBytes(); m > maxLC {
					maxLC = m
				}
			}
			fmt.Printf("%-8s  %10.0f  %12.0f  %12.0f\n",
				b.name, float64(whole)/1024, float64(maxLC)/1024, float64(whole-maxLC)/1024)
		}
	}
}
