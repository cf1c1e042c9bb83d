// Command spalsim runs one trace-driven cycle simulation of a SPAL router
// and prints the result, mirroring the paper's Sec. 5 methodology.
//
// Examples:
//
//	spalsim -psi 16 -beta 4096 -packets 300000 -trace D_75
//	spalsim -psi 1 -no-partition -no-cache          # conventional router
//	spalsim -speed 10 -lookup 62                    # 10 Gbps, DP-trie FE
//	spalsim -stages -packets 50000                  # per-stage latency breakdown
//	spalsim -updates-per-sec 20000                  # route churn, targeted cache invalidation
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"spal/internal/cache"
	"spal/internal/lpm/engines"
	"spal/internal/rtable"
	"spal/internal/sim"
	"spal/internal/trace"
)

func main() {
	psi := flag.Int("psi", 16, "number of line cards")
	beta := flag.Int("beta", 4096, "LR-cache blocks")
	gamma := flag.Int("gamma", 50, "mix value: % of blocks for REM results")
	assoc := flag.Int("assoc", 4, "cache set associativity")
	victim := flag.Int("victim", 8, "victim cache blocks")
	lookup := flag.Int("lookup", 40, "FE lookup time in cycles (40=Lulea, 62=DP)")
	engineName := flag.String("engine", "", "matching engine for the simulated FEs ("+strings.Join(engines.Names(), "|")+"; empty = reference)")
	packets := flag.Int("packets", 300000, "packets per LC")
	speed := flag.Int("speed", 40, "LC speed in Gbps (10 or 40)")
	traceName := flag.String("trace", "D_75", "trace preset: D_75 D_81 L_92-0 L_92-1 B_L")
	tableN := flag.Int("table", 140838, "synthetic routing table size (prefixes)")
	seed := flag.Uint64("seed", 42, "random seed")
	noCache := flag.Bool("no-cache", false, "disable LR-caches")
	noPart := flag.Bool("no-partition", false, "keep the full table at every LC")
	flushMS := flag.Float64("flush-ms", 0, "flush caches every N milliseconds (0 = never)")
	updatesPS := flag.Float64("updates-per-sec", 0, "stream BGP-style route updates at this rate, applied incrementally with targeted cache invalidation (0 = no churn)")
	updateFlush := flag.Bool("update-full-flush", false, "flush every cache on each update batch instead of targeted range invalidation")
	perLC := flag.Bool("per-lc", false, "print per-LC statistics")
	stages := flag.Bool("stages", false, "print the per-stage lookup latency breakdown")
	configPath := flag.String("config", "", "JSON config file (flags for table size still apply)")
	promPath := flag.String("prom", "", "write the run's metrics in Prometheus text format to this file (\"-\" for stdout)")
	jsonPath := flag.String("json", "", "write the full machine-readable Result as JSON to this file (\"-\" for stdout, replacing the human report)")
	flag.Parse()

	tbl := rtable.Synthesize(rtable.SynthConfig{N: *tableN, NextHops: 16, NestProb: 0.35, Seed: 0x5e3d_0002})
	var cfg sim.Config
	if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg, err = sim.LoadConfig(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.Table = tbl
	} else {
		cfg = sim.DefaultConfig(tbl)
		cfg.NumLCs = *psi
		cfg.LookupCycles = *lookup
		cfg.Cache = cache.Config{Blocks: *beta, Assoc: *assoc, VictimBlocks: *victim, MixPercent: *gamma, Policy: cache.LRU}
		cfg.CacheEnabled = !*noCache
		cfg.PartitionEnabled = !*noPart
		cfg.PacketsPerLC = *packets
		cfg.Trace = trace.Preset(*traceName)
		cfg.Seed = *seed
		switch *speed {
		case 40:
			cfg.GapMin, cfg.GapMax = sim.Gaps40Gbps()
		case 10:
			cfg.GapMin, cfg.GapMax = sim.Gaps10Gbps()
		default:
			fmt.Fprintln(os.Stderr, "speed must be 10 or 40")
			os.Exit(2)
		}
		if *flushMS > 0 {
			cfg.FlushEveryCycles = int64(*flushMS * 1e6 / sim.CycleNS)
		}
		cfg.UpdatesPerSecond = *updatesPS
		cfg.UpdateFullFlush = *updateFlush
	}

	if *engineName != "" {
		b, err := engines.Lookup(*engineName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.Engine = b
	}

	cfg.StageAccounting = cfg.StageAccounting || *stages
	r, err := sim.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res, err := r.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *jsonPath != "-" {
		fmt.Print(res.String())
	}
	if *jsonPath != "" {
		out := os.Stdout
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := res.WriteJSON(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *promPath != "" {
		out := os.Stdout
		if *promPath != "-" {
			f, err := os.Create(*promPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := res.Snapshot().WritePrometheus(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *stages {
		fmt.Print(res.StageTable())
	}
	if *perLC {
		fmt.Println("per-LC:")
		for i, l := range res.PerLC {
			fmt.Printf("  LC%-2d gen=%d hitLOC=%d hitREM=%d miss=%d reqSent=%d feLookups=%d feUtil=%.3f part=%d\n",
				i, l.Generated, l.HitLoc, l.HitRem, l.MissLocal, l.RequestsSent,
				l.FELookups, l.FEUtilization, l.PartitionSize)
		}
	}
}
