// Command spal-bench regenerates the paper's tables and figures, runs
// declarative experiment grids, and compares BENCH_*.json snapshots.
//
// Usage:
//
//	spal-bench -exp all -scale quick                     # paper tables
//	spal-bench -exp fig5 -scale full
//	spal-bench -grid scripts/paper/grid_quick.json \
//	           -grid-out bench-grid -profiles \
//	           -snapshot BENCH_9.json -pr 9              # experiment grid
//	spal-bench -compare BENCH_7.json BENCH_9.json        # regression gate
//	spal-bench -compare -fields BENCH_9.json fresh.json  # freshness gate
//
// The grid runner executes every cell of the JSON spec (router and
// simulator experiments across engine/ψ/batch/churn/corruption
// axes, with warmup and measured repeats), writes records.csv,
// summary.csv, cells.json, per-cell pprof profiles, and regenerated
// figure CSVs under -grid-out, and optionally emits a BENCH snapshot.
// Compare mode exits 1 when any shared benchmark's latency metric
// regresses beyond the ratio ceiling (or, with -fields, when the two
// snapshots' benchmark names or field sets disagree).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"spal/internal/bench"
	"spal/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: "+strings.Join(experiments.Names(), "|")+"|all")
	scaleName := flag.String("scale", "quick", "quick or full")
	format := flag.String("format", "table", "table or csv")
	outDir := flag.String("o", "", "also write each experiment as <dir>/<name>.csv")

	gridPath := flag.String("grid", "", "run the experiment grid described by this JSON spec instead of -exp")
	gridOut := flag.String("grid-out", "bench-grid", "output directory for grid records, figures, and profiles")
	profiles := flag.Bool("profiles", false, "capture per-cell CPU and heap pprof profiles under <grid-out>/profiles")
	slowdownNS := flag.Int64("slowdown-ns", 0, "inject this many ns of sleep into every timed router op (synthetic regression for gate testing)")
	snapshotPath := flag.String("snapshot", "", "write the grid results as a BENCH snapshot to this file")
	pr := flag.Int("pr", 0, "pr number recorded in the snapshot")
	title := flag.String("title", "", "snapshot title")
	desc := flag.String("desc", "", "snapshot description")

	compare := flag.Bool("compare", false, "compare two snapshots: spal-bench -compare OLD.json NEW.json")
	fields := flag.Bool("fields", false, "with -compare: check names and field sets instead of values (machine-independent freshness gate)")
	ceiling := flag.Float64("ceiling", 2.0, "with -compare: fail when new/old exceeds this ratio on any latency metric")
	metricCeilings := flag.String("metric-ceilings", "", "with -compare: per-metric overrides, e.g. p99_ns=3.0,ns_per_op=2.5")
	flag.Parse()

	switch {
	case *compare:
		runCompare(flag.Args(), *fields, *ceiling, *metricCeilings)
	case *gridPath != "":
		runGrid(*gridPath, *gridOut, *profiles, *slowdownNS, *snapshotPath, *pr, *title, *desc)
	default:
		runTables(*exp, *scaleName, *format, *outDir)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func runCompare(args []string, fields bool, ceiling float64, metricCeilings string) {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: spal-bench -compare [-fields] [-ceiling R] OLD.json NEW.json")
		os.Exit(2)
	}
	oldS, err := bench.LoadSnapshot(args[0])
	if err != nil {
		fatal(err)
	}
	newS, err := bench.LoadSnapshot(args[1])
	if err != nil {
		fatal(err)
	}

	if fields {
		problems := bench.CompareFields(oldS, newS)
		if len(problems) > 0 {
			fmt.Fprintf(os.Stderr, "snapshot schemas disagree (%s vs %s):\n", args[0], args[1])
			for _, p := range problems {
				fmt.Fprintln(os.Stderr, "  "+p)
			}
			os.Exit(1)
		}
		fmt.Printf("%s and %s agree on benchmark names and fields\n", args[0], args[1])
		return
	}

	perMetric := map[string]float64{}
	if metricCeilings != "" {
		for _, kv := range strings.Split(metricCeilings, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				fatal(fmt.Errorf("bad -metric-ceilings entry %q (want metric=ratio)", kv))
			}
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				fatal(fmt.Errorf("bad -metric-ceilings entry %q: %w", kv, err))
			}
			perMetric[k] = f
		}
	}
	rep, err := bench.Compare(oldS, newS, ceiling, perMetric)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("comparing %s (pr %d) -> %s (pr %d), default ceiling %.2f\n",
		args[0], oldS.PR, args[1], newS.PR, ceiling)
	fmt.Print(rep.String())
	if len(rep.Regressions) > 0 {
		os.Exit(1)
	}
}

func runGrid(specPath, outDir string, profiles bool, slowdownNS int64, snapshotPath string, pr int, title, desc string) {
	spec, err := bench.LoadSpecFile(specPath)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	res, err := bench.Run(bench.Options{
		Spec:       spec,
		OutDir:     outDir,
		Profiles:   profiles,
		SlowdownNS: slowdownNS,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("grid %s: %d cells in %.1fs -> %s\n", spec.Name, len(res.Cells), time.Since(start).Seconds(), outDir)

	if snapshotPath != "" {
		if title == "" {
			title = "Perf grid snapshot: " + spec.Name
		}
		cmd := fmt.Sprintf("spal-bench -grid %s -grid-out %s -snapshot %s -pr %d", specPath, outDir, snapshotPath, pr)
		snap := bench.BuildSnapshot(res, pr, title, desc, cmd, time.Now().UTC().Format("2006-01-02"))
		if err := snap.Write(snapshotPath); err != nil {
			fatal(err)
		}
		fmt.Printf("snapshot -> %s\n", snapshotPath)
	}
}

func runTables(exp, scaleName, format, outDir string) {
	if format != "table" && format != "csv" {
		fmt.Fprintf(os.Stderr, "unknown format %q\n", format)
		os.Exit(2)
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fatal(err)
		}
	}

	var scale experiments.Scale
	switch scaleName {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", scaleName)
		os.Exit(2)
	}

	selected := experiments.Names()
	if exp != "all" {
		if _, ok := experiments.Get(exp); !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", exp)
			os.Exit(2)
		}
		selected = []string{exp}
	}

	fmt.Printf("spal-bench: scale=%s\n\n", scale.Name)
	for _, name := range selected {
		run, _ := experiments.Get(name)
		start := time.Now()
		tbl, err := run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		if format == "csv" {
			fmt.Printf("# %s\n%s\n", tbl.Title, tbl.CSV())
		} else {
			fmt.Print(tbl.String())
			fmt.Printf("(%s in %.1fs)\n\n", name, time.Since(start).Seconds())
		}
		if outDir != "" {
			path := filepath.Join(outDir, name+".csv")
			if err := os.WriteFile(path, []byte("# "+tbl.Title+"\n"+tbl.CSV()), 0o644); err != nil {
				fatal(err)
			}
		}
	}
}
