// Command benchmark is the SPAL benchmark BENCHMARK.json describes: five
// named workloads, end-to-end metrics measured with tracing off, and a
// per-layer ladder measured from outside in a separate traced run. See
// README.md in this directory.
//
//	bash benchmark/run.sh --workload hot_single --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh                       # every workload, tracing off
//	bash benchmark/run.sh --trace 1             # every workload, per-layer ladder
//	bash benchmark/run.sh -compare a.jsonl b.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
)

// record is one line of an -out file: a result plus what -compare needs to
// refuse comparing runs that are not comparable.
type record struct {
	result
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Scale      string  `json:"scale"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	GoVersion  string  `json:"go"`
	CPU        string  `json:"cpu"`
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload name from BENCHMARK.json, or all")
		seed     = flag.Uint64("seed", defaultSeed, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", runSeconds, "seconds of timed measurement per workload")
		traceOn  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		quickOn  = flag.Bool("quick", false, "smoke scale: 5,000-prefix table, short streams, one small sim run")
		out      = flag.String("out", "", "append one JSON record per workload to this file (input of -compare)")
		outDir   = flag.String("outdir", "out", "directory a traced run writes trace_<workload>.json to")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments and exit")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	switch {
	case *spec:
		os.Stdout.Write(benchmarkJSON())
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal("-compare takes two result files")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fatal("--seconds must be positive and --trace 0 or 1")
	}
	o := options{seed: *seed, seconds: *seconds, trace: *traceOn == 1, sc: full, outDir: *outDir}
	if *quickOn {
		o.sc = quick
	}

	ok := true
	ran := false
	for _, w := range workloads {
		if *workload != "all" && *workload != w.Name {
			continue
		}
		ran = true
		res, err := run(w.Name, o)
		if err != nil {
			fatal(err)
		}
		if err := report(res, o, *out); err != nil {
			fatal(err)
		}
		ok = ok && res.Correct
	}
	if !ran {
		fatal(fmt.Sprintf("unknown workload %q", *workload))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "benchmark:", v)
	os.Exit(2)
}

func run(name string, o options) (*result, error) {
	for _, w := range routerWorkloads {
		if w.name == name {
			return runRouter(w, o)
		}
	}
	return runSim(o)
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// line checks that the run measured what BENCHMARK.json promises for its
// mode — every end-to-end metric untraced, every per-layer metric traced —
// and builds the result line. The driver wants every per-layer name on
// every workload, so a traced run fills the ones it does not exercise with
// 0 (sim.* on a router workload, say).
func (res *result) line(traced bool) (resultLine, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	l := resultLine{res.Correct, res.Attempted, res.Failed, make(map[string]measured)}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok && !traced:
			return l, fmt.Errorf("%s did not measure %s", res.Workload, d.Name)
		case !ok:
			m = measured{Unit: d.Unit}
			res.Metrics[d.Name] = m
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return l, fmt.Errorf("%s measured %s as %v", res.Workload, d.Name, m.Value)
		}
		l.Metrics[d.Name] = measured{Value: m.Value, Unit: m.Unit}
	}
	return l, nil
}

// report prints the run for people, appends the full record to outPath,
// and ends with the result line.
func report(res *result, o options, outPath string) error {
	line, err := res.line(o.trace)
	if err != nil {
		return err
	}
	fmt.Printf("%s  seed=%d seconds=%g trace=%v scale=%s GOMAXPROCS=%d nproc=%d %s\n",
		res.Workload, o.seed, o.seconds, o.trace, o.sc.name, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := res.Metrics[d.Name]
		note := ""
		if len(m.Samples) > 1 {
			q1, q3 := quartiles(m.Samples)
			note = fmt.Sprintf("  quartiles %.6g..%.6g (spread %.1f%%, n=%d)", q1, q3, 100*spread(m.Samples), len(m.Samples))
		}
		fmt.Printf("  %-40s %14.6g %-6s%s\n", d.Name, m.Value, d.Unit, note)
	}
	fmt.Printf("  %-40s %14.6g %-6s (%d failed of %d attempted, %d unchecked)\n",
		"failed_share", ratio(res.Failed, res.Attempted), "ratio", res.Failed, res.Attempted, res.Unchecked)
	fmt.Printf("  host probe at %.2f of the reference: the run's own clock read rates ÷ %.2f and times × %.2f\n", res.Host, res.Host, res.Host)

	if outPath != "" {
		rec := record{
			result: *res, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Scale: o.sc.name,
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), CPU: cpuModel(),
		}
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(outPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(b, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// cpuModel reads the CPU model string, best effort.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, model, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(model)
		}
	}
	return runtime.GOARCH
}
