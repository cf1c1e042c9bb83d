// Command summarize turns the two result files of scripts/bench/pair.sh
// into the committed form of a perf claim, BENCH_<pr>.json: for each
// workload and end-to-end metric of BENCHMARK.json, each side's median,
// quartiles, run count and seeds, with the median host probe and the
// failure counts behind them, and how many seed-matched pairs the change
// won (ties count for neither side).
//
//	go run ./scripts/bench/summarize base.jsonl head.jsonl > BENCH_29.json
//
// With -anchor REV it takes a second pair, the change against the last
// re-anchor's HEAD REV (a second pair.sh run; pair.sh empties
// .bench_build/pair, so copy the first run's files aside before it), and
// writes that pair's workloads under an "anchor" key beside the parent
// pair's:
//
//	go run ./scripts/bench/summarize -anchor 44bcff8 base.jsonl head.jsonl anchor_base.jsonl anchor_head.jsonl
//
// Every run of both pairs must be at the same conditions.
//
// It reads BENCHMARK.json from the working directory, so run it from the
// repository root. Traced runs are skipped, as benchmark's -compare skips
// them: end-to-end metrics are never taken from a traced run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
)

// record is the part of one benchmark/run.sh -out line the summary reads.
type record struct {
	Workload   string           `json:"workload"`
	Correct    bool             `json:"correct"`
	Attempted  int64            `json:"attempted"`
	Failed     int64            `json:"failed"`
	Host       float64          `json:"host"`
	Metrics    map[string]value `json:"metrics"`
	Seed       uint64           `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Trace      bool             `json:"trace"`
	Scale      string           `json:"scale"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"nproc"`
	GoVersion  string           `json:"go"`
	CPU        string           `json:"cpu"`
}

type value struct {
	Value float64 `json:"value"`
}

// spec is the part of BENCHMARK.json the summary reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

type side struct {
	N          int             `json:"n"`
	Seeds      []uint64        `json:"seeds"`
	Host       float64         `json:"host_probe_median"`
	AllCorrect bool            `json:"all_correct"`
	Attempted  int64           `json:"attempted"`
	Failed     int64           `json:"failed"`
	Metrics    map[string]stat `json:"metrics"`
}

type pairs struct {
	HeadBetter int `json:"head_better"`
	Of         int `json:"of"`
}

type workload struct {
	Name  string           `json:"name"`
	Base  side             `json:"base"`
	Head  side             `json:"head"`
	Pairs map[string]pairs `json:"pairs"`
}

type conditions struct {
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	GoVersion  string  `json:"go"`
	CPU        string  `json:"cpu"`
}

// anchor is the pair against the last re-anchor's HEAD.
type anchor struct {
	Rev       string     `json:"rev"`
	Workloads []workload `json:"workloads"`
}

func main() {
	anchorRev := flag.String("anchor", "", "the last re-anchor's HEAD: two more files, that pair's base and head runs, follow the parent pair's")
	flag.Parse()
	files := flag.Args()
	want := 2
	if *anchorRev != "" {
		want = 4
	}
	if len(files) != want {
		fatal("usage: summarize [-anchor REV] base.jsonl head.jsonl [anchor_base.jsonl anchor_head.jsonl]")
	}
	var sp spec
	if err := readJSON("BENCHMARK.json", &sp); err != nil {
		fatal(err)
	}
	runs := make([][]record, len(files))
	for i, f := range files {
		var err error
		if runs[i], err = readRecords(f); err != nil {
			fatal(err)
		}
	}
	cond := conditionsOf(runs[0][0])
	for _, r := range slices.Concat(runs...) {
		if c := conditionsOf(r); c != cond {
			fatal(fmt.Sprintf("not comparable: runs at %+v and at %+v", cond, c))
		}
	}
	out := struct {
		Conditions conditions  `json:"conditions"`
		Metrics    []metricDef `json:"metrics"`
		Workloads  []workload  `json:"workloads"`
		Anchor     *anchor     `json:"anchor,omitempty"`
	}{Conditions: cond, Metrics: sp.EndToEnd, Workloads: compare(sp, runs[0], runs[1])}
	if *anchorRev != "" {
		out.Anchor = &anchor{Rev: *anchorRev, Workloads: compare(sp, runs[2], runs[3])}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

// compare summarizes one pair, workload by workload.
func compare(sp spec, base, head []record) []workload {
	var out []workload
	for _, w := range sp.Workloads {
		b, h := of(base, w.Name), of(head, w.Name)
		if len(b) == 0 || len(h) == 0 {
			continue
		}
		wl := workload{Name: w.Name, Base: summarize(b, sp.EndToEnd), Head: summarize(h, sp.EndToEnd), Pairs: map[string]pairs{}}
		for _, d := range sp.EndToEnd {
			wl.Pairs[d.Name] = won(b, h, d)
		}
		out = append(out, wl)
	}
	return out
}

func conditionsOf(r record) conditions {
	return conditions{r.Seconds, r.Scale, r.GOMAXPROCS, r.NumCPU, r.GoVersion, r.CPU}
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// readRecords loads an -out file's untraced records.
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

func of(recs []record, workload string) []record {
	var out []record
	for _, r := range recs {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

func summarize(runs []record, metrics []metricDef) side {
	s := side{N: len(runs), AllCorrect: true, Metrics: map[string]stat{}}
	var hosts []float64
	for _, r := range runs {
		s.Seeds = append(s.Seeds, r.Seed)
		s.AllCorrect = s.AllCorrect && r.Correct
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		hosts = append(hosts, r.Host)
	}
	slices.Sort(s.Seeds)
	s.Host = median(hosts)
	for _, d := range metrics {
		var xs []float64
		for _, r := range runs {
			if m, ok := r.Metrics[d.Name]; ok {
				xs = append(xs, m.Value)
			}
		}
		q1, q3 := quartiles(xs)
		s.Metrics[d.Name] = stat{median(xs), q1, q3}
	}
	return s
}

// won counts the seeds both sides ran at which the change's run reads
// better than the parent's.
func won(base, head []record, d metricDef) pairs {
	var p pairs
	for _, b := range base {
		for _, h := range head {
			if h.Seed != b.Seed {
				continue
			}
			vb, vh := b.Metrics[d.Name].Value, h.Metrics[d.Name].Value
			p.Of++
			if (d.Better == "lower" && vh < vb) || (d.Better == "higher" && vh > vb) {
				p.HeadBetter++
			}
		}
	}
	return p
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles are Python's statistics.quantiles(xs, n=4), the exclusive
// method, as benchmark's -compare computes them.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return median(xs), median(xs)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "summarize:", v)
	os.Exit(1)
}
