package sim

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"spal/internal/lpm/engines"
	"spal/internal/rtable"
	"spal/internal/trace"
)

var updateMatrix = flag.Bool("update", false, "rewrite testdata/run_matrix.golden")

// matrixCell is one configuration of the run matrix.
type matrixCell struct {
	name string
	cfg  Config
}

// matrixCells spans every Config switch internal/experiments and spalsim
// set — eighteen variants × {D_75, B_L} × ψ ∈ {3, 16} — with VerifyNextHops
// on throughout. Flush intervals stay at or above 3,000 cycles: at 2,000
// and below at ψ = 3 reissued copies multiply and a run never finishes
// (see EXPERIMENTS.md, "Flush faster than a lookup drains").
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
		{"corrupt-scrub", func(c *Config) { c.CorruptRate = 0.01; c.ScrubEveryCycles = 1000 }},
		{"brownout", func(c *Config) { c.SlowLC = 1; c.SlowFactor = 8 }},
		{"stages", func(c *Config) { c.StageAccounting = true }},
		{"stages-flush-brownout", func(c *Config) {
			c.StageAccounting = true
			c.FlushEveryCycles = 3000
			c.SlowLC = 2
			c.SlowFactor = 5
		}},
		{"fabric-contention", func(c *Config) { c.FabricContention = true }},
		{"no-cache-10gbps", func(c *Config) { c.CacheEnabled = false; c.GapMin, c.GapMax = Gaps10Gbps() }},
		{"no-partition", func(c *Config) { c.PartitionEnabled = false }},
		{"no-early-recording", func(c *Config) { c.DisableEarlyRecording = true }},
		{"overload-3x-cap-1", func(c *Config) { c.OfferedLoad = 3; c.AdmissionCap = 1 }},
		{"dynamic-fe", func(c *Config) { lulea(c); c.DynamicLookup = true }},
		{"cache-64", func(c *Config) { c.Cache.Blocks = 64 }},
		{"time-series", func(c *Config) { c.SampleWindowCycles = 2000 }},
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

// fingerprint is the SHA-256 of everything a run reports: the JSON report,
// the per-LC breakdown (FE utilisation and mean queue depths included), the
// stage table, the latency percentiles and the time series.
func fingerprint(t *testing.T, res *Result) string {
	t.Helper()
	var b bytes.Buffer
	if err := res.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "%+v\n%s%d %d %d %d\n%+v\n", res.PerLC, res.StageTable(),
		res.P50, res.P95, res.LatencyPercentile(0.99), res.WorstLookupCycles, res.Samples)
	return fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))
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
