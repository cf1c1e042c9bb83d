// Package experiments regenerates every table and figure of the paper's
// evaluation (Secs. 4-5). Each experiment returns a Table of printable
// rows; cmd/spal-bench renders them to stdout and the root benchmark suite
// drives the same functions under testing.B.
//
// The experiment index lives in DESIGN.md; EXPERIMENTS.md records
// paper-versus-measured values for each figure.
package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"spal/internal/cache"
	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/lpm/bintrie"
	"spal/internal/lpm/dptrie"
	"spal/internal/lpm/engines"
	"spal/internal/lpm/lctrie"
	"spal/internal/lpm/lulea"
	"spal/internal/partition"
	"spal/internal/rtable"
	"spal/internal/sim"
	"spal/internal/stats"
	"spal/internal/trace"
)

// Table is a printable experiment result.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header row first,
// notes as trailing '#' comment lines) for plotting pipelines.
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// CSVFile is the table as spal-bench -o writes it and figures/*.csv hold
// it: the title as a leading '#' comment line, then CSV.
func (t *Table) CSVFile() string { return "# " + t.Title + "\n" + t.CSV() }

// Scale selects experiment fidelity: Full matches the paper's parameters
// (RT_1/RT_2-sized tables, 300k packets per LC); Quick shrinks both for CI
// and unit tests while preserving every qualitative shape.
type Scale struct {
	TableN       int // prefixes in the synthetic table (0 = paper size)
	PacketsPerLC int
	Name         string
}

// Quick is the test/CI scale.
var Quick = Scale{TableN: 20000, PacketsPerLC: 20000, Name: "quick"}

// Full is the paper scale.
var Full = Scale{TableN: 0, PacketsPerLC: 300000, Name: "full"}

// tableRT1 returns the RT_1 stand-in at the given scale.
func tableRT1(s Scale) *rtable.Table {
	if s.TableN == 0 {
		return rtable.RT1()
	}
	return rtable.Synthesize(rtable.SynthConfig{N: s.TableN, NextHops: 16, NestProb: 0.35, Seed: 0x5e3d_0001})
}

// tableRT2 returns the RT_2 stand-in at the given scale.
func tableRT2(s Scale) *rtable.Table {
	if s.TableN == 0 {
		return rtable.RT2()
	}
	n := s.TableN * 3 // keep RT_2 ~3.4x RT_1, as in the paper
	return rtable.Synthesize(rtable.SynthConfig{N: n, NextHops: 16, NestProb: 0.35, Seed: 0x5e3d_0002})
}

// PartitionBits reproduces the Sec. 4 bit-selection table: the control
// bits chosen for RT_1 and RT_2 at ψ = 4 and ψ = 16, with the resulting
// partition size ranges and replication factors.
func PartitionBits(s Scale) *Table {
	out := &Table{
		Title:   "Sec. 4: partitioning bit positions and ROT-partition quality",
		Headers: []string{"table", "psi", "bits", "min", "max", "replication"},
		Notes: []string{
			"paper (real RT_1): psi=4 -> bits 12,14; psi=16 -> 12,14,15,16",
			"paper (real RT_2): psi=4 -> bits 8,14; psi=16 -> 11,13,14,16",
			"synthetic tables reproduce the criteria scores, not the exact positions",
		},
	}
	for _, tc := range []struct {
		name string
		tbl  *rtable.Table
	}{{"RT_1", tableRT1(s)}, {"RT_2", tableRT2(s)}} {
		for _, psi := range []int{4, 16} {
			p := partition.Partition(tc.tbl, psi)
			st := p.Stats()
			out.Rows = append(out.Rows, []string{
				tc.name, fmt.Sprint(psi), fmt.Sprint(p.Bits),
				fmt.Sprint(st.Min), fmt.Sprint(st.Max),
				fmt.Sprintf("%.3f", st.Replication),
			})
		}
	}
	return out
}

// engineSpecs lists the three paper tries plus the binary-trie reference.
var engineSpecs = []struct {
	label string
	build lpm.Builder
}{
	{"DP", dptrie.NewEngine},
	{"LL", lulea.NewEngine},
	{"LC", lctrie.NewEngine},
	{"BIN", bintrie.NewEngine},
}

// Fig3Storage reproduces Fig. 3: total SRAM (KB) required per trie, with
// partitioning (_S: the largest per-LC partition trie, and the sum over
// LCs) and without (_W: the full-table trie per LC).
func Fig3Storage(s Scale) *Table {
	out := &Table{
		Title:   "Fig. 3: total SRAM (KB) per trie, partitioned (S) vs whole (W)",
		Headers: []string{"config", "trie", "W per-LC KB", "S max-LC KB", "S total KB", "saving/LC KB"},
		Notes: []string{
			"paper, Lulea RT_2 psi=4: ~822 KB whole vs 342-361 KB per LC",
			"paper, DP RT_1 psi=4: 859 KB whole vs 209-220 KB per LC",
		},
	}
	for _, tc := range []struct {
		name string
		tbl  *rtable.Table
	}{{"RT_1", tableRT1(s)}, {"RT_2", tableRT2(s)}} {
		for _, psi := range []int{4, 16} {
			tables := partition.Partition(tc.tbl, psi).Tables()
			for _, es := range engineSpecs {
				whole := es.build(tc.tbl).MemoryBytes()
				maxLC, total := 0, 0
				for _, lt := range tables {
					m := es.build(lt).MemoryBytes()
					total += m
					if m > maxLC {
						maxLC = m
					}
				}
				out.Rows = append(out.Rows, []string{
					fmt.Sprintf("psi=%d,%s", psi, tc.name), es.label,
					fmt.Sprintf("%.0f", float64(whole)/1024),
					fmt.Sprintf("%.0f", float64(maxLC)/1024),
					fmt.Sprintf("%.0f", float64(total)/1024),
					fmt.Sprintf("%.0f", float64(whole-maxLC)/1024),
				})
			}
		}
	}
	return out
}

// MemoryAccesses reproduces the Sec. 5.1 measurement: mean memory accesses
// per lookup for the Lulea trie (paper: 6.2 / 6.6) and the DP trie
// (paper: ~16), measured over addresses drawn from the tables.
func MemoryAccesses(s Scale) *Table {
	out := &Table{
		Title:   "Sec. 5.1: mean memory accesses per lookup",
		Headers: []string{"table", "lulea", "dptrie", "lctrie", "bintrie"},
		Notes:   []string{"paper: Lulea 6.2 (RT_1) / 6.6 (RT_2); DP ~16 for both"},
	}
	for _, tc := range []struct {
		name string
		tbl  *rtable.Table
	}{{"RT_1", tableRT1(s)}, {"RT_2", tableRT2(s)}} {
		rng := stats.NewRNG(7)
		addrs := make([]ip.Addr, 20000)
		for i := range addrs {
			addrs[i] = tc.tbl.RandomMatchedAddr(rng)
		}
		row := []string{tc.name}
		for _, b := range []lpm.Builder{lulea.NewEngine, dptrie.NewEngine, lctrie.NewEngine, bintrie.NewEngine} {
			row = append(row, fmt.Sprintf("%.1f", lpm.MeanAccesses(b(tc.tbl), addrs)))
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// simBase is the shared Fig. 4-6 configuration: 40 Gbps LCs, 40-cycle
// lookups, RT_2 (the paper presents RT_2 results).
func simBase(s Scale, preset trace.Preset) sim.Config {
	cfg := sim.DefaultConfig(tableRT2(s))
	cfg.PacketsPerLC = s.PacketsPerLC
	cfg.Trace = preset
	cfg.Seed = 42
	return cfg
}

// meanCell extracts the figure metric (mean lookup cycles) from a run.
func meanCell(r *sim.Result) string { return fmt.Sprintf("%.2f", r.MeanLookupCycles) }

// sweep runs one simulation per (trace, column) cell concurrently and
// fills a table whose rows are the five paper traces. mutate configures
// the cell's simulation from its column index; cell extracts the value
// to print (nil = mean lookup cycles).
func sweep(s Scale, title string, colNames []string, notes []string,
	mutate func(cfg *sim.Config, col int), cell func(*sim.Result) string) (*Table, error) {
	if cell == nil {
		cell = meanCell
	}
	out := &Table{Title: title, Headers: append([]string{"trace"}, colNames...), Notes: notes}
	var cfgs []sim.Config
	for _, preset := range trace.Presets {
		for col := range colNames {
			cfg := simBase(s, preset)
			mutate(&cfg, col)
			cfgs = append(cfgs, cfg)
		}
	}
	results, errs := sim.RunMany(cfgs)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	i := 0
	for _, preset := range trace.Presets {
		row := []string{string(preset)}
		for range colNames {
			row = append(row, cell(results[i]))
			i++
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Fig4Mix reproduces Fig. 4: mean lookup time (cycles) versus the mix
// value γ for ψ = 4 and β = 4K, across the five traces.
func Fig4Mix(s Scale) (*Table, error) {
	gammas := []int{0, 25, 50, 75}
	cols := make([]string, len(gammas))
	for i, g := range gammas {
		cols[i] = fmt.Sprintf("gamma=%d%%", g)
	}
	return sweep(s,
		"Fig. 4: mean lookup time (cycles) vs mix value, psi=4, beta=4K",
		cols,
		[]string{"paper: gamma=50% is best or nearly best for every trace"},
		func(cfg *sim.Config, col int) {
			cfg.NumLCs = 4
			cfg.Cache.MixPercent = gammas[col]
		}, nil)
}

// Fig5CacheSize reproduces Fig. 5: mean lookup time versus LR-cache size
// β for ψ = 16 (γ = 50%, or 25% at β = 1K, as the paper prescribes).
func Fig5CacheSize(s Scale) (*Table, error) {
	sizes := []int{1024, 2048, 4096, 8192}
	return sweep(s,
		"Fig. 5: mean lookup time (cycles) vs LR-cache size, psi=16",
		[]string{"1K", "2K", "4K", "8K"},
		[]string{
			"paper: all traces below 9.2 cycles at beta=4K (>21 Mpps per LC)",
			"gamma = 25% at beta=1K, 50% otherwise (Sec. 5.2)",
		},
		func(cfg *sim.Config, col int) {
			cfg.NumLCs = 16
			cfg.Cache.Blocks = sizes[col]
			if sizes[col] == 1024 {
				cfg.Cache.MixPercent = 25
			}
		}, nil)
}

// Fig6NumLCs reproduces Fig. 6: mean lookup time versus ψ with β = 4K and
// γ = 50%, plus the cache-without-partitioning baseline the paper
// discusses (whose mean is ψ-independent and equals the ψ=1 point).
func Fig6NumLCs(s Scale) (*Table, error) {
	psis := []int{1, 2, 3, 4, 8, 16}
	cols := make([]string, len(psis))
	for i, psi := range psis {
		cols[i] = fmt.Sprintf("psi=%d", psi)
	}
	return sweep(s,
		"Fig. 6: mean lookup time (cycles) vs number of LCs, beta=4K, gamma=50%",
		cols,
		[]string{
			"paper: larger psi consistently lowers the mean (L_92-0: >6 at psi=1 to <3 at psi=16)",
			"a cache without partitioning is psi-independent: equal to the psi=1 column",
		},
		func(cfg *sim.Config, col int) {
			cfg.NumLCs = psis[col]
		}, nil)
}

// Headline reproduces the paper's headline comparison: a ψ=16 SPAL router
// versus a conventional router (full table per LC, no LR-caches) under
// 40-cycle lookups, reporting derived throughput and the speedup factor.
func Headline(s Scale) (*Table, error) {
	out := &Table{
		Title:   "Headline: SPAL psi=16 beta=4K vs conventional router",
		Headers: []string{"trace", "spal cycles", "conv cycles", "spal Mpps/router", "conv Mpps/router", "speedup"},
		Notes: []string{
			"paper: >336 Mpps vs 5 Mpps/LC x 16 = 80 Mpps -> 4.2x",
			"conventional throughput uses the paper's optimistic no-queueing 40-cycle figure",
		},
	}
	const convCycles = 40.0
	for _, preset := range trace.Presets {
		cfg := simBase(s, preset)
		cfg.NumLCs = 16
		r, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		res, err := r.Run()
		if err != nil {
			return nil, err
		}
		convMpps := 1e3 / (convCycles * sim.CycleNS) * 16 // 5 Mpps/LC x 16
		out.Rows = append(out.Rows, []string{
			string(preset),
			fmt.Sprintf("%.2f", res.MeanLookupCycles),
			fmt.Sprintf("%.0f", convCycles),
			fmt.Sprintf("%.0f", res.DerivedMppsRouter),
			fmt.Sprintf("%.0f", convMpps),
			fmt.Sprintf("%.1fx", convCycles/res.MeanLookupCycles),
		})
	}
	return out, nil
}

// Ablation evaluates the design choices DESIGN.md calls out, on one trace
// at the Fig. 5 configuration: victim cache on/off, replacement policy,
// associativity, and early W-recording is exercised implicitly by every
// run (disabling it is not a cache-config knob; coalescing is structural).
func Ablation(s Scale) (*Table, error) {
	out := &Table{
		Title:   "Ablations: psi=16, beta=4K, trace D_75",
		Headers: []string{"variant", "mean cycles", "hit rate"},
	}
	type variant struct {
		name   string
		mutate func(*sim.Config)
	}
	variants := []variant{
		{"baseline (4-way, LRU, victim=8, gamma=50)", func(*sim.Config) {}},
		{"no victim cache", func(c *sim.Config) { c.Cache.VictimBlocks = 0 }},
		{"no early W-recording", func(c *sim.Config) { c.DisableEarlyRecording = true }},
		{"fabric output contention", func(c *sim.Config) { c.FabricContention = true }},
		{"FIFO replacement", func(c *sim.Config) { c.Cache.Policy = cache.FIFO }},
		{"random replacement", func(c *sim.Config) { c.Cache.Policy = cache.Random }},
		// A direct-mapped set cannot hold a LOC/REM mix at all (the hard
		// γ allocation needs >= 2 blocks); γ=0 keeps it LOC-only, which
		// is the best a 1-way LR-cache can do.
		{"direct-mapped (assoc=1, LOC-only)", func(c *sim.Config) { c.Cache.Assoc = 1; c.Cache.MixPercent = 0 }},
		{"2-way", func(c *sim.Config) { c.Cache.Assoc = 2 }},
		{"8-way", func(c *sim.Config) { c.Cache.Assoc = 8 }},
		{"no partitioning (cache only)", func(c *sim.Config) { c.PartitionEnabled = false }},
		{"no cache (partition only)", func(c *sim.Config) { c.CacheEnabled = false }},
	}
	for _, v := range variants {
		cfg := simBase(s, trace.D75)
		cfg.NumLCs = 16
		v.mutate(&cfg)
		r, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		res, err := r.Run()
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, []string{
			v.name,
			fmt.Sprintf("%.2f", res.MeanLookupCycles),
			fmt.Sprintf("%.4f", res.HitRate),
		})
	}
	return out, nil
}

// UpdateFlush evaluates the route-update model (Sec. 3.2): mean lookup
// time as the cache-flush interval shrinks from none to every ~1 ms.
func UpdateFlush(s Scale) (*Table, error) {
	out := &Table{
		Title:   "Route updates: mean lookup time vs cache-flush interval (psi=16, D_75)",
		Headers: []string{"flush interval", "mean cycles", "hit rate"},
		Notes:   []string{"paper models ~20 updates/s (50 ms apart); each flushes all LR-caches"},
	}
	for _, iv := range []struct {
		label  string
		cycles int64
	}{
		{"none", 0},
		{"50 ms (20/s)", 10_000_000},
		{"10 ms (100/s)", 2_000_000},
		{"1 ms", 200_000},
	} {
		cfg := simBase(s, trace.D75)
		cfg.NumLCs = 16
		cfg.FlushEveryCycles = iv.cycles
		r, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		res, err := r.Run()
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, []string{
			iv.label,
			fmt.Sprintf("%.2f", res.MeanLookupCycles),
			fmt.Sprintf("%.4f", res.HitRate),
		})
	}
	return out, nil
}

// Speeds reproduces the Sec. 5.2 case matrix: the paper simulated
// {10, 40 Gbps} x {40-cycle (Lulea), 62-cycle (DP)} and reports that all
// cases follow the same trend; this regenerates all four on one trace at
// the Fig. 5 configuration.
func Speeds(s Scale) (*Table, error) {
	out := &Table{
		Title:   "Sec. 5.2 cases: LC speed x FE lookup time (psi=16, beta=4K, D_75)",
		Headers: []string{"case", "mean cycles", "hit rate", "Mpps/LC"},
		Notes:   []string{"paper: all four cases follow a similar trend; 40 Gbps & 40 cycles shown in its figures"},
	}
	for _, cs := range []struct {
		label  string
		gbps   int
		cycles int
	}{
		{"10 Gbps, 40-cycle lookup", 10, 40},
		{"10 Gbps, 62-cycle lookup", 10, 62},
		{"40 Gbps, 40-cycle lookup", 40, 40},
		{"40 Gbps, 62-cycle lookup", 40, 62},
	} {
		cfg := simBase(s, trace.D75)
		cfg.NumLCs = 16
		cfg.LookupCycles = cs.cycles
		if cs.gbps == 10 {
			cfg.GapMin, cfg.GapMax = sim.Gaps10Gbps()
		}
		r, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		res, err := r.Run()
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, []string{
			cs.label,
			fmt.Sprintf("%.2f", res.MeanLookupCycles),
			fmt.Sprintf("%.4f", res.HitRate),
			fmt.Sprintf("%.1f", res.DerivedMppsPerLC),
		})
	}
	return out, nil
}

// WorstCase supports the paper's "possibly shortens the worst-case lookup
// time" claim: the maximum memory accesses observed per engine on the
// whole table versus the worst per-LC partition at ψ=16.
func WorstCase(s Scale) *Table {
	out := &Table{
		Title:   "Worst-case lookup accesses: whole table vs psi=16 partitions (RT_2)",
		Headers: []string{"trie", "whole max", "partition max", "mean whole", "mean partition"},
		Notes: []string{
			"fewer prefixes per partition -> shallower single-bit searches, hence the paper's claim",
			"level-compressed tries can go the other way: LC-trie branches wider on bigger tables",
		},
	}
	tbl := tableRT2(s)
	p := partition.Partition(tbl, 16)
	tables := p.Tables()
	rng := stats.NewRNG(11)
	addrs := make([]ip.Addr, 20000)
	for i := range addrs {
		addrs[i] = tbl.RandomMatchedAddr(rng)
	}
	for _, es := range engineSpecs {
		whole := es.build(tbl)
		var lcs []lpm.Engine
		for _, lt := range tables {
			lcs = append(lcs, es.build(lt))
		}
		wMax, wSum, pMax, pSum := 0, 0, 0, 0
		for _, a := range addrs {
			_, acc, _ := whole.Lookup(a)
			wSum += acc
			if acc > wMax {
				wMax = acc
			}
			_, acc, _ = lcs[p.HomeLC(a)].Lookup(a)
			pSum += acc
			if acc > pMax {
				pMax = acc
			}
		}
		n := float64(len(addrs))
		out.Rows = append(out.Rows, []string{
			es.label,
			fmt.Sprint(wMax), fmt.Sprint(pMax),
			fmt.Sprintf("%.1f", float64(wSum)/n),
			fmt.Sprintf("%.1f", float64(pSum)/n),
		})
	}
	return out
}

// Coverage quantifies the paper's address-space-coverage argument ("for a
// given cache size, the larger a SPAL-based router is, the higher lookup
// performance"): aggregate LR-cache hit rate versus ψ at β=4K.
func Coverage(s Scale) (*Table, error) {
	psis := []int{1, 2, 4, 8, 16}
	cols := make([]string, len(psis))
	for i, psi := range psis {
		cols[i] = fmt.Sprintf("psi=%d", psi)
	}
	return sweep(s,
		"LR-cache hit rate vs psi (beta=4K, gamma=50%)",
		cols,
		[]string{"finer fragmentation -> each cache covers a smaller address fraction -> higher hit rate"},
		func(cfg *sim.Config, col int) { cfg.NumLCs = psis[col] },
		func(r *sim.Result) string { return fmt.Sprintf("%.4f", r.HitRate) })
}

// Rebuild measures forwarding-table construction time per engine — the
// cost a route update pays under SPAL's rebuild-and-flush model, and the
// motivation for the incremental Insert/Delete the binary and DP tries
// also support.
func Rebuild(s Scale) *Table {
	out := &Table{
		Title:   "Engine build time (route-update rebuild cost)",
		Headers: []string{"table", "trie", "build ms", "prefixes"},
	}
	for _, tc := range []struct {
		name string
		tbl  *rtable.Table
	}{{"RT_1", tableRT1(s)}, {"RT_2", tableRT2(s)}} {
		for _, es := range engineSpecs {
			start := time.Now()
			es.build(tc.tbl)
			ms := float64(time.Since(start).Microseconds()) / 1000
			out.Rows = append(out.Rows, []string{
				tc.name, es.label, fmt.Sprintf("%.1f", ms), fmt.Sprint(tc.tbl.Len()),
			})
		}
	}
	return out
}

// surveyPasses is how many timed passes a Survey ns cell is the median of.
const surveyPasses = 5

// surveySink keeps the Survey's timed lookups observable to the compiler.
var surveySink rtable.NextHop

// Survey is the engine table: every registered engine on RT_2, partitioned
// for ψ = 1, 4 and 16, its LCs' engines built and measured one at a time
// (an LC's FE has its own memory). Modelled and real KB are the largest
// LC's engine — real KB is the heap its build retains, the HeapAlloc delta
// across forced collections. Accesses are over the matched stream. Each ns
// column is the median of five passes with every address looked up at its
// home LC's engine: single keys on the matched-uniform and D_75 streams,
// and lpm.LookupAll in bursts of 64 on the matched stream. The ψ = 1 row is
// the whole-table build, so a partition engine beats it where its ψ > 1
// ns is lower.
func Survey(s Scale) *Table {
	out := &Table{
		Title:   "Survey: every registered engine on RT_2, per LC at psi = 1, 4, 16",
		Headers: []string{"psi", "engine", "model KB", "real KB", "mean acc", "worst acc", "ns matched", "ns D_75", "LookupAll ns"},
		Notes: []string{
			"KB columns are the largest LC's engine; real KB is the heap one build retains",
			"ns per address, median of 5 passes, each address at its home LC's engine; LookupAll in bursts of 64 on the matched stream",
		},
	}
	tbl := tableRT2(s)
	rng := stats.NewRNG(13)
	matched := make([]ip.Addr, 20000)
	for i := range matched {
		matched[i] = tbl.RandomMatchedAddr(rng)
	}
	cfg := trace.PresetConfig(trace.D75)
	d75 := trace.Slice(trace.NewSynthetic(trace.NewPool(tbl, cfg), cfg, 13), len(matched))
	builders := engines.Builders()
	for _, psi := range []int{1, 4, 16} {
		p := partition.Partition(tbl, psi)
		tables := p.Tables()
		largest := 0
		for lc, lt := range tables {
			if lt.Len() > tables[largest].Len() {
				largest = lc
			}
		}
		mHome, dHome := byHome(p, matched), byHome(p, d75)
		for _, name := range engines.Names() {
			var c surveyCell
			for lc, lt := range tables {
				c.add(builders[name], lt, lc == largest, mHome[lc], dHome[lc])
			}
			n := float64(len(matched))
			out.Rows = append(out.Rows, []string{
				fmt.Sprint(psi), name,
				fmt.Sprintf("%.0f", float64(c.modelB)/1024),
				fmt.Sprintf("%.0f", float64(c.realB)/1024),
				fmt.Sprintf("%.1f", float64(c.accSum)/n),
				fmt.Sprint(c.worst),
				fmt.Sprintf("%.1f", medianNS(c.single)/n),
				fmt.Sprintf("%.1f", medianNS(c.d75)/n),
				fmt.Sprintf("%.1f", medianNS(c.all)/n),
			})
		}
	}
	return out
}

// byHome splits addrs by home LC, each LC's share in stream order.
func byHome(p *partition.Partitioning, addrs []ip.Addr) [][]ip.Addr {
	out := make([][]ip.Addr, p.NumLCs)
	for _, a := range addrs {
		h := p.HomeLC(a)
		out[h] = append(out[h], a)
	}
	return out
}

// surveyCell accumulates one Survey row over a partitioning's LCs: each
// pass's time is the sum of its LCs' times for that pass.
type surveyCell struct {
	modelB, realB    int
	accSum, worst    int
	single, d75, all [surveyPasses]time.Duration
}

// add builds one LC's engine and measures it on the addresses it is home
// to; for the largest LC it also reads the heap the build retains.
func (c *surveyCell) add(build lpm.Builder, t *rtable.Table, largest bool, matched, d75 []ip.Addr) {
	var e lpm.Engine
	if largest {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		e = build(t)
		runtime.GC()
		runtime.ReadMemStats(&after)
		c.modelB, c.realB = e.MemoryBytes(), int(after.HeapAlloc)-int(before.HeapAlloc)
	} else {
		e = build(t)
	}
	for _, a := range matched {
		_, acc, _ := e.Lookup(a)
		c.accSum += acc
		c.worst = max(c.worst, acc)
	}
	res := make([]lpm.Result, 64)
	for i := range surveyPasses {
		c.single[i] += timeLookups(e, matched)
		c.d75[i] += timeLookups(e, d75)
		start := time.Now()
		for as := matched; len(as) > 0; {
			n := min(len(res), len(as))
			lpm.LookupAll(e, as[:n], res)
			as = as[n:]
		}
		c.all[i] += time.Since(start)
	}
}

// timeLookups times one single-key pass of addrs through e.
func timeLookups(e lpm.Engine, addrs []ip.Addr) time.Duration {
	start := time.Now()
	for _, a := range addrs {
		nh, _, _ := e.Lookup(a)
		surveySink += nh
	}
	return time.Since(start)
}

// medianNS is the median of a cell's pass times, in nanoseconds.
func medianNS(passes [surveyPasses]time.Duration) float64 {
	slices.Sort(passes[:])
	return float64(passes[surveyPasses/2].Nanoseconds())
}

// Drift stresses the paper's locality premise: the popularity ranking
// rotates every N packets (flows die, new flows arrive), and the table
// reports how the LR-caches degrade as drift accelerates.
func Drift(s Scale) (*Table, error) {
	out := &Table{
		Title:   "Locality drift: mean lookup time vs popularity-rotation interval (psi=16, beta=4K)",
		Headers: []string{"drift interval (packets)", "mean cycles", "hit rate"},
		Notes: []string{
			"the paper argues Internet locality persisted 1996-2002; this quantifies how much drift the design tolerates",
		},
	}
	// Intervals scale with the run length so the drift count per run is
	// comparable across scales (at full scale: 75k/15k/3.75k packets).
	intervals := []struct {
		label   string
		divisor int
	}{
		{"none", 0},
		{"slow (budget/4)", 4},
		{"medium (budget/20)", 20},
		{"fast (budget/80)", 80},
	}
	for _, iv := range intervals {
		cfg := simBase(s, trace.D75)
		cfg.NumLCs = 16
		// Populate the trace config explicitly: normalize() only fills it
		// from the preset when PoolSize is zero, which would discard the
		// drift fields set below.
		cfg.TraceConfig = trace.PresetConfig(trace.D75)
		if iv.divisor > 0 {
			cfg.TraceConfig.DriftEvery = int64(s.PacketsPerLC / iv.divisor)
			if cfg.TraceConfig.DriftEvery < 1 {
				cfg.TraceConfig.DriftEvery = 1
			}
		}
		cfg.TraceConfig.DriftFraction = 0.3
		r, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		res, err := r.Run()
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, []string{
			iv.label,
			fmt.Sprintf("%.2f", res.MeanLookupCycles),
			fmt.Sprintf("%.4f", res.HitRate),
		})
	}
	return out, nil
}

// LatencyDistribution reports the full lookup-latency shape — not just the
// mean the paper plots — for SPAL and its two baselines.
func LatencyDistribution(s Scale) (*Table, error) {
	out := &Table{
		Title:   "Lookup-latency distribution (cycles), psi=16, beta=4K, D_75",
		Headers: []string{"router", "mean", "p50", "p90", "p99", "worst"},
	}
	for _, v := range []struct {
		label           string
		cacheOn, partOn bool
		packetsDivisor  int
	}{
		{"SPAL", true, true, 1},
		{"cache only", true, false, 1},
		{"conventional (saturates)", false, false, 4},
	} {
		cfg := simBase(s, trace.D75)
		cfg.NumLCs = 16
		cfg.CacheEnabled = v.cacheOn
		cfg.PartitionEnabled = v.partOn
		cfg.PacketsPerLC /= v.packetsDivisor
		r, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		res, err := r.Run()
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, []string{
			v.label,
			fmt.Sprintf("%.2f", res.MeanLookupCycles),
			fmt.Sprint(res.LatencyPercentile(0.50)),
			fmt.Sprint(res.LatencyPercentile(0.90)),
			fmt.Sprint(res.LatencyPercentile(0.99)),
			fmt.Sprint(res.WorstLookupCycles),
		})
	}
	return out, nil
}

// Warmup plots the cold-start curve the flush policy implies: per-window
// mean lookup time right after all caches start empty (Sec. 3.3 walks
// through exactly this scenario).
func Warmup(s Scale) (*Table, error) {
	cfg := simBase(s, trace.D75)
	cfg.NumLCs = 16
	// ~10 windows across the run (mean inter-arrival is 10 cycles).
	cfg.SampleWindowCycles = int64(s.PacketsPerLC * 10 / 10)
	if cfg.SampleWindowCycles < 1000 {
		cfg.SampleWindowCycles = 1000
	}
	r, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := r.Run()
	if err != nil {
		return nil, err
	}
	out := &Table{
		Title:   "Cold-start warmup: per-window mean lookup time (psi=16, beta=4K, D_75)",
		Headers: []string{"window end (cycles)", "packets", "mean cycles"},
		Notes:   []string{"every route update restarts this curve (flush-everything policy)"},
	}
	limit := 8
	for i, w := range res.Samples {
		if i >= limit {
			break
		}
		out.Rows = append(out.Rows, []string{
			fmt.Sprint(w.EndCycle), fmt.Sprint(w.Completed), fmt.Sprintf("%.2f", w.MeanCy),
		})
	}
	return out, nil
}

// Hotspot examines a question the paper leaves open: SPAL concentrates
// the lookups for each address at its home LC, so how balanced is the FE
// and request load across LCs — both under uniform ingress and when half
// the line cards carry 3x the traffic?
func Hotspot(s Scale) (*Table, error) {
	out := &Table{
		Title:   "Home-LC load balance (psi=16, beta=4K, D_75)",
		Headers: []string{"ingress", "FE lookups min/max", "FE util max", "requests recv min/max"},
		Notes: []string{
			"partitioning spreads homes by address bits, so FE load stays balanced even under skewed ingress",
			"skewed = LCs 0-7 at 3x the packet rate of LCs 8-15",
		},
	}
	for _, v := range []struct {
		label string
		skew  bool
	}{{"uniform", false}, {"skewed 3:1", true}} {
		cfg := simBase(s, trace.D75)
		cfg.NumLCs = 16
		if v.skew {
			lf := make([]float64, 16)
			for i := range lf {
				if i < 8 {
					lf[i] = 1.5
				} else {
					lf[i] = 0.5
				}
			}
			cfg.LoadFactors = lf
		}
		r, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		res, err := r.Run()
		if err != nil {
			return nil, err
		}
		minFE, maxFE := int64(-1), int64(0)
		minRq, maxRq := int64(-1), int64(0)
		maxUtil := 0.0
		for _, l := range res.PerLC {
			if minFE < 0 || l.FELookups < minFE {
				minFE = l.FELookups
			}
			if l.FELookups > maxFE {
				maxFE = l.FELookups
			}
			if minRq < 0 || l.RequestsReceived < minRq {
				minRq = l.RequestsReceived
			}
			if l.RequestsReceived > maxRq {
				maxRq = l.RequestsReceived
			}
			if l.FEUtilization > maxUtil {
				maxUtil = l.FEUtilization
			}
		}
		out.Rows = append(out.Rows, []string{
			v.label,
			fmt.Sprintf("%d / %d", minFE, maxFE),
			fmt.Sprintf("%.3f", maxUtil),
			fmt.Sprintf("%d / %d", minRq, maxRq),
		})
	}
	return out, nil
}

// LengthPartitionComparison contrasts SPAL's criteria-driven partitions
// with the per-length partitioning of the Sec. 2.3 comparator [1]: the
// comparator's largest partition stays ~half the table regardless of how
// many partitions exist, while SPAL's shrink with ψ.
func LengthPartitionComparison(s Scale) *Table {
	tbl := tableRT2(s)
	out := &Table{
		Title:   "Sec. 2.3 comparator: per-length partitioning vs SPAL (RT_2)",
		Headers: []string{"scheme", "partitions", "largest", "largest/table"},
		Notes:   []string{"the comparator searches all partitions at every FE; sizes do not shrink with psi"},
	}
	parts := partition.LengthPartition(tbl)
	maxLen := 0
	for _, p := range parts {
		if p.Len() > maxLen {
			maxLen = p.Len()
		}
	}
	out.Rows = append(out.Rows, []string{
		"per-length [1]", fmt.Sprint(len(parts)), fmt.Sprint(maxLen),
		fmt.Sprintf("%.2f", float64(maxLen)/float64(tbl.Len())),
	})
	for _, psi := range []int{4, 16} {
		st := partition.Partition(tbl, psi).Stats()
		out.Rows = append(out.Rows, []string{
			fmt.Sprintf("SPAL psi=%d", psi), fmt.Sprint(psi), fmt.Sprint(st.Max),
			fmt.Sprintf("%.2f", float64(st.Max)/float64(tbl.Len())),
		})
	}
	return out
}
