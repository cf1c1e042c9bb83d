package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"spal/internal/fabric"
	"spal/internal/lpm/engines"
	"spal/internal/rtable"
	"spal/internal/trace"
)

var updateMatrix = flag.Bool("update", false, "rewrite testdata/run_matrix.golden and testdata/run_wide.golden")

// matrixCell is one configuration of the run matrix.
type matrixCell struct {
	name string
	cfg  Config
}

// matrixCells spans every Config switch internal/experiments and spalsim
// set (TestMatrixSpansConfig holds it to that) — each variant × {D_75,
// B_L} × ψ ∈ {3, 16} — with VerifyNextHops on throughout.
func matrixCells(t *testing.T, tbl *rtable.Table, packets int) []matrixCell {
	t.Helper()
	engine := func(name string) func(*Config) {
		build, err := engines.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		return func(c *Config) { c.Engine = build }
	}
	dptrie, lulea := engine("dptrie"), engine("lulea")
	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"base", func(c *Config) {}},
		{"flush-5000", func(c *Config) { c.FlushEveryCycles = 5000 }},
		{"flush-3000", func(c *Config) { c.FlushEveryCycles = 3000 }},
		{"churn-ranges", func(c *Config) { dptrie(c); c.UpdatesPerSecond = 100_000 }},
		{"churn-full-flush", func(c *Config) { dptrie(c); c.UpdatesPerSecond = 100_000; c.UpdateFullFlush = true }},
		{"stages", func(c *Config) { c.StageAccounting = true }},
		{"stages-flush", func(c *Config) { c.StageAccounting = true; c.FlushEveryCycles = 3000 }},
		{"fabric-contention", func(c *Config) { c.FabricContention = true }},
		{"bus-fabric", func(c *Config) { c.FabricKind = fabric.Bus }},
		{"no-cache-10gbps", func(c *Config) { c.CacheEnabled = false; c.GapMin, c.GapMax = Gaps10Gbps() }},
		{"no-partition", func(c *Config) { c.PartitionEnabled = false }},
		{"no-early-recording", func(c *Config) { c.DisableEarlyRecording = true }},
		{"lookup-62", func(c *Config) { c.LookupCycles = 62 }},
		{"dynamic-fe", func(c *Config) { lulea(c); c.DynamicLookup = true }},
		{"cache-64", func(c *Config) { c.Cache.Blocks = 64 }},
		{"time-series", func(c *Config) { c.SampleWindowCycles = 2000 }},
		{"trace-drift", func(c *Config) {
			c.TraceConfig = trace.PresetConfig(c.Trace)
			c.TraceConfig.DriftEvery = 500
			c.TraceConfig.DriftFraction = 0.3
		}},
		{"skewed-ingress", func(c *Config) {
			c.LoadFactors = make([]float64, c.NumLCs)
			for i := range c.LoadFactors {
				c.LoadFactors[i] = 0.5 + 0.75*float64(i%3)
			}
		}},
	}
	var cells []matrixCell
	for _, v := range variants {
		for _, tr := range []trace.Preset{trace.D75, trace.BL} {
			for _, psi := range []int{3, 16} {
				cfg := DefaultConfig(tbl)
				cfg.NumLCs = psi
				cfg.PacketsPerLC = packets
				cfg.Trace = tr
				cfg.VerifyNextHops = true
				v.mutate(&cfg)
				cells = append(cells, matrixCell{fmt.Sprintf("%s/%s/psi=%d", v.name, tr, psi), cfg})
			}
		}
	}
	return cells
}

// fingerprint is the SHA-256 of everything a run reports: the JSON report
// (the per-LC breakdown with FE utilisation and mean queue depths, churn
// counters, time series and stage rows) re-encoded with its keys sorted,
// then the stage table, the latency percentiles and the time series.
func fingerprint(t *testing.T, res *Result) string {
	t.Helper()
	var js bytes.Buffer
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&js)
	dec.UseNumber() // numbers keep their exact encoding
	var report map[string]any
	if err := dec.Decode(&report); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(report) // map keys marshal sorted
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.NewBuffer(b)
	fmt.Fprintf(buf, "\n%s%d %d %d %d\n%+v\n", res.StageTable(),
		res.P50, res.P95, res.LatencyPercentile(0.99), res.WorstLookupCycles, res.Samples)
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

// TestRunMatrixGolden is the simulator's exactness oracle: a change to how
// Run steps, stores or counts must leave every cell's fingerprint where
// testdata/run_matrix.golden has it. -update rewrites the file, which only
// a PR that means to move a result does.
func TestRunMatrixGolden(t *testing.T) {
	const path = "testdata/run_matrix.golden"
	var got strings.Builder
	for _, c := range matrixCells(t, rtable.Small(12000, 26), 4000) {
		fmt.Fprintf(&got, "%s %s\n", c.name, fingerprint(t, run(t, c.cfg)))
	}
	if *updateMatrix {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%d cells, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("cell moved:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}

// TestRunWideGolden holds the ψ the matrix does not reach to
// testdata/run_wide.golden as TestRunMatrixGolden holds its cells: ψ = 1,
// where every lookup is local, and ψ = 65, whose last LC is the first of a
// second 64-LC word — each under stage accounting, a flush every 3,000
// cycles, fabric contention, and all three at once — and a 10 Gbps run
// sampled every 16 cycles, alone and with all three, where most cycles
// have nothing due and many windows close empty. -update rewrites it.
func TestRunWideGolden(t *testing.T) {
	const path = "testdata/run_wide.golden"
	tbl := rtable.Small(12000, 26)
	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"stages", func(c *Config) { c.StageAccounting = true }},
		{"flush-3000", func(c *Config) { c.FlushEveryCycles = 3000 }},
		{"fabric-contention", func(c *Config) { c.FabricContention = true }},
		{"all-three", func(c *Config) { c.StageAccounting, c.FlushEveryCycles, c.FabricContention = true, 3000, true }},
		{"10gbps-windows-16", func(c *Config) { c.GapMin, c.GapMax = Gaps10Gbps(); c.SampleWindowCycles = 16 }},
		{"10gbps-windows-16-all-three", func(c *Config) {
			c.GapMin, c.GapMax = Gaps10Gbps()
			c.SampleWindowCycles = 16
			c.StageAccounting, c.FlushEveryCycles, c.FabricContention = true, 3000, true
		}},
	}
	var got strings.Builder
	for _, psi := range []int{1, 65} {
		for _, v := range variants {
			cfg := DefaultConfig(tbl)
			cfg.NumLCs = psi
			cfg.PacketsPerLC = 4000
			cfg.VerifyNextHops = true
			v.mutate(&cfg)
			fmt.Fprintf(&got, "%s/psi=%d %s\n", v.name, psi, fingerprint(t, run(t, cfg)))
		}
	}
	if *updateMatrix {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got.String() != string(want) {
		t.Errorf("a cell moved:\n got\n%s want\n%s", got.String(), want)
	}
}

// matrixExempt names the Config fields no matrix cell changes from
// DefaultConfig, each with why a cell would add nothing.
var matrixExempt = map[string]string{
	"FabricLatency": "an explicit latency reaches the same fabric.NewPipeOf the bus-fabric cells derive theirs for",
	"Table":         "every cell runs one synthetic table; the table is the input, not a switch",
	"Seed":          "every random stream derives from it; the cells hold it fixed so a fingerprint moves only with the code",
}

// TestMatrixSpansConfig holds matrixCells to its claim: every exported
// Config field is changed from DefaultConfig by some cell, or is named in
// matrixExempt. A new field fails here until a variant covers it or its
// exemption says why none should.
func TestMatrixSpansConfig(t *testing.T) {
	tbl := rtable.Small(500, 1)
	def := reflect.ValueOf(DefaultConfig(tbl))
	typ := def.Type()
	changed := map[string]bool{}
	for _, c := range matrixCells(t, tbl, 1) {
		v := reflect.ValueOf(c.cfg)
		for i := 0; i < typ.NumField(); i++ {
			// DeepEqual holds for funcs only when both are nil: any Engine is a change.
			if typ.Field(i).IsExported() && !reflect.DeepEqual(v.Field(i).Interface(), def.Field(i).Interface()) {
				changed[typ.Field(i).Name] = true
			}
		}
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		_, exempt := matrixExempt[name]
		switch {
		case !typ.Field(i).IsExported():
		case changed[name] && exempt:
			t.Errorf("Config.%s is changed by a cell and exempt; drop the exemption", name)
		case !changed[name] && !exempt:
			t.Errorf("Config.%s is changed by no matrix cell: add a variant, or exempt it with a reason", name)
		}
	}
	for name := range matrixExempt {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("matrixExempt names Config.%s, which does not exist", name)
		}
	}
}
