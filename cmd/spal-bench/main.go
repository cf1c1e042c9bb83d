// Command spal-bench regenerates the paper's tables and figures through
// internal/experiments.
//
// Usage:
//
//	spal-bench -exp all -scale quick
//	spal-bench -exp fig5 -scale full
//	spal-bench -exp fig4 -o figures    # refresh the committed figures/fig4.csv
//
// Everything else the repo measures is measured by benchmark/ (see
// BENCHMARK.json and scripts/bench/pair.sh).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"spal/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: "+strings.Join(experiments.Names(), "|")+"|all")
	scaleName := flag.String("scale", "quick", "quick or full")
	format := flag.String("format", "table", "table or csv")
	outDir := flag.String("o", "", "also write each experiment as <dir>/<name>.csv")
	flag.Parse()

	runTables(*exp, *scaleName, *format, *outDir)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
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
			fmt.Println(tbl.CSVFile())
		} else {
			fmt.Print(tbl.String())
			fmt.Printf("(%s in %.1fs)\n\n", name, time.Since(start).Seconds())
		}
		if outDir != "" {
			path := filepath.Join(outDir, name+".csv")
			if err := os.WriteFile(path, []byte(tbl.CSVFile()), 0o644); err != nil {
				fatal(err)
			}
		}
	}
}
