package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRecords loads an -out file: one record per line, untraced runs only
// (end-to-end metrics are never taken from a traced run).
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			recs = append(recs, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no untraced records", path)
	}
	return recs, nil
}

// values gathers one workload's metric across a file's records, one
// value per run of the workload.
func values(recs []record, workload, metric string) []float64 {
	var xs []float64
	for _, r := range recs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// compareFiles prints one row per workload × end-to-end metric: the median
// over each file's runs of the workload, b÷a (base a), the bound, and a
// verdict. "regressed" is b worse than a by more than the bound; a row
// whose runs spread (between quartiles) wider than the bound while the two
// files' quartile ranges overlap cannot tell a regression from noise and
// reads "unresolved". It reports whether any row is not ok.
func compareFiles(w io.Writer, pathA, pathB string) (notOK bool, err error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	// Every record of a file comes from one invocation or one script, so
	// the first stands for the file.
	type conditions struct {
		GOMAXPROCS int
		Seed       uint64
		Seconds    float64
		Scale      string
	}
	ca := conditions{a[0].GOMAXPROCS, a[0].Seed, a[0].Seconds, a[0].Scale}
	cb := conditions{b[0].GOMAXPROCS, b[0].Seed, b[0].Seconds, b[0].Scale}
	if ca != cb {
		return false, fmt.Errorf("not comparable: %s ran at %+v, %s at %+v", pathA, ca, pathB, cb)
	}
	fmt.Fprintf(w, "%-13s %-14s %14s %14s %8s %7s  %s\n", "workload", "metric", "a (base)", "b", "b/a", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xa, xb := values(a, wl.Name, d.Name), values(b, wl.Name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			a1, a3 := quartiles(xa)
			b1, b3 := quartiles(xb)
			verdict := "ok"
			switch {
			case max(spread(xa), spread(xb)) > d.Bound && a1 <= b3 && b1 <= a3:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
			}
			if verdict != "ok" {
				notOK = true
			}
			fmt.Fprintf(w, "%-13s %-14s %14.6g %14.6g %8.3f %6.0f%%  %s\n", wl.Name, d.Name, ma, mb, mb/ma, 100*d.Bound, verdict)
		}
	}
	return notOK, nil
}
