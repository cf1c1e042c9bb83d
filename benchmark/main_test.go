package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"spal/internal/sim"
)

// TestSpecMatchesBenchmarkJSON fails if BENCHMARK.json and the harness
// disagree on any workload or metric, and re-checks the limits the driver
// refuses a benchmark for.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json is not what `-spec` prints; regenerate it with: bash benchmark/run.sh -spec > BENCHMARK.json")
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(onDisk))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		use(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		hasSetup = hasSetup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range perLayer {
		use(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", d.Name)
		}
	}
	if runSeconds*(4+22*len(workloads)) > 3420/2 {
		t.Errorf("run_seconds %d leaves the driver's runs no room for set-up inside 3420 s", runSeconds)
	}
}

// TestSmoke runs every workload, untraced and traced, at the quick scale:
// each mode must report exactly the metrics BENCHMARK.json names for it,
// all finite, with no failed lookup.
func TestSmoke(t *testing.T) {
	for _, traced := range []bool{false, true} {
		o := options{seed: defaultSeed, seconds: 0.6, trace: traced, sc: quick, outDir: t.TempDir()}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for _, w := range workloads {
			res, err := run(w.Name, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d failed of %d", w.Name, traced, res.Failed, res.Attempted)
			}
			line, err := res.line(traced)
			if err != nil {
				t.Errorf("%s traced=%v: %v", w.Name, traced, err)
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: %s = %+v (present %v)", w.Name, traced, d.Name, m, ok)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(o.outDir, "trace_"+w.Name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
			}
		}
	}
}

// TestSeedDeterminism: the same seed gives byte-identical inputs and
// identical exact counts; another seed gives other inputs.
func TestSeedDeterminism(t *testing.T) {
	tbl := quick.table()
	inputs := func(seed uint64) []any {
		return []any{
			hotStreams(tbl, seed, 2, 1<<12),
			coldStreams(tbl, seed, 1, 1<<12),
			updateBatches(tbl, seed, quick.tick, 20*quick.tick),
			seeded(seed, saltArrival),
		}
	}
	a, b, c := inputs(7), inputs(7), inputs(8)
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("input %d differs between two generations from one seed", i)
		}
		if reflect.DeepEqual(a[i], c[i]) {
			t.Errorf("input %d is the same for seeds 7 and 8", i)
		}
	}

	counts := func(seed uint64) (hit, accesses, cycles float64) {
		p, err := buildParts(newTracer("test"), quick, "lulea", numLCs)
		if err != nil {
			t.Fatal(err)
		}
		ld := p.replay(newTracer("test"), hotStreams(p.tbl, seed, 1, quick.ladderLen)[0], 0)
		cfg, err := simConfig(tbl, options{seed: seed, sc: quick})
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return ld.hitRatio, ld.accesses, out.MeanLookupCycles
	}
	h1, a1, c1 := counts(7)
	h2, a2, c2 := counts(7)
	h3, _, c3 := counts(8)
	if h1 != h2 || a1 != a2 || c1 != c2 {
		t.Errorf("same seed: cache.hit_ratio %v/%v lpm.accesses_per_lookup %v/%v sim.mean_lookup_cycles %v/%v", h1, h2, a1, a2, c1, c2)
	}
	if h1 == h3 && c1 == c3 {
		t.Error("seeds 7 and 8 give identical counts")
	}
	if h1 < 0.5 || a1 < 1 {
		t.Errorf("replay of the hot stream: hit ratio %v, %v accesses per lookup", h1, a1)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	// write records one run of hot_single per rate given.
	write := func(name string, seed uint64, rates ...float64) string {
		var buf bytes.Buffer
		for _, rate := range rates {
			rec := record{Seed: seed, Seconds: 12, Scale: "full", GOMAXPROCS: 1}
			rec.Workload = "hot_single"
			rec.Metrics = map[string]measured{
				"lookups_per_s": {Value: rate, Unit: "1/s"},
				"call_p50_ns":   {Value: 10, Unit: "ns"},
			}
			b, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(b, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a", 1, 100, 101, 99)
	slow := write("b", 1, 70, 71, 69)
	noisy := write("c", 1, 60, 130, 95)
	other := write("d", 2, 100, 101, 99)

	verdicts := func(a, b string) (string, bool) {
		var buf bytes.Buffer
		notOK, err := compareFiles(&buf, a, b)
		if err != nil {
			t.Fatal(err)
		}
		return buf.String(), notOK
	}
	if out, notOK := verdicts(base, base); notOK || strings.Count(out, " ok\n") != 2 {
		t.Errorf("a run against itself:\n%s", out)
	}
	if out, notOK := verdicts(base, slow); !notOK || !strings.Contains(out, "regressed") {
		t.Errorf("30%% fewer lookups/s must read regressed:\n%s", out)
	}
	if out, notOK := verdicts(base, noisy); !notOK || !strings.Contains(out, "unresolved") {
		t.Errorf("a spread wider than the bound over overlapping runs must read unresolved:\n%s", out)
	}
	if _, err := compareFiles(&bytes.Buffer{}, base, other); err == nil {
		t.Error("runs recorded at different seeds were compared")
	}
}
