package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"spal/internal/rtable"
)

// TestResultJSON runs a small churned simulation and checks the JSON
// report is complete and self-consistent — the contract a script reading
// spalsim -json relies on instead of parsing the human report.
func TestResultJSON(t *testing.T) {
	tbl := rtable.Synthesize(rtable.SynthConfig{N: 3000, NextHops: 8, NestProb: 0.3, Seed: 5})
	cfg := DefaultConfig(tbl)
	cfg.NumLCs = 4
	cfg.PacketsPerLC = 4000
	cfg.UpdatesPerSecond = 5000
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}

	j := res.JSONReport()
	if j.MeanLookupCycles != res.MeanLookupCycles {
		t.Errorf("mean mismatch: %v vs %v", j.MeanLookupCycles, res.MeanLookupCycles)
	}
	if j.P50Cycles != res.P50 || j.P95Cycles != res.P95 || j.WorstCycles != res.WorstLookupCycles {
		t.Errorf("percentile fields disagree with Result: %+v", j)
	}
	if j.P99Cycles != res.LatencyPercentile(0.99) {
		t.Errorf("p99 = %d, want %d", j.P99Cycles, res.LatencyPercentile(0.99))
	}
	if j.P50Cycles > j.P90Cycles || j.P90Cycles > j.P95Cycles || j.P95Cycles > j.P99Cycles || j.P99Cycles > j.WorstCycles {
		t.Errorf("percentiles not monotone: %+v", j)
	}
	if j.Config.NumLCs != 4 || j.Config.Trace == "" || j.Config.UpdatesPerSecond != 5000 {
		t.Errorf("config echo incomplete: %+v", j.Config)
	}
	if len(j.PerLC) != 4 {
		t.Errorf("per-LC breakdown has %d entries, want 4", len(j.PerLC))
	}
	if j.ChurnEvents == 0 {
		t.Errorf("churned run reported zero churn events")
	}
	if j.PacketsCompleted != res.PacketsCompleted || j.PacketsCompleted == 0 {
		t.Errorf("packets completed %d vs %d", j.PacketsCompleted, res.PacketsCompleted)
	}

	// Key fields must exist under their wire names.
	for _, key := range []string{
		"config", "mean_lookup_cycles", "p50_cycles", "p99_cycles",
		"worst_cycles", "hit_rate", "derived_mpps_router", "per_lc",
		"churn_events", "packets_completed",
	} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("JSON report missing key %q", key)
		}
	}
}

// TestResultJSONDeterministic pins the reproducibility contract: equal
// seeds produce byte-identical reports.
func TestResultJSONDeterministic(t *testing.T) {
	run := func() []byte {
		tbl := rtable.Synthesize(rtable.SynthConfig{N: 2000, NextHops: 8, NestProb: 0.3, Seed: 5})
		cfg := DefaultConfig(tbl)
		cfg.NumLCs = 2
		cfg.PacketsPerLC = 2000
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(), run()) {
		t.Errorf("equal seeds produced different JSON reports")
	}
}
