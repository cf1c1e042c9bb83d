package bench

import (
	"strings"
	"testing"
)

func TestLoadSpecDefaultsAndNaming(t *testing.T) {
	spec, err := LoadSpec(strings.NewReader(`{
		"name": "t",
		"router": [{"name": "LookupUnderChurn", "update_rates": [0, 20, 1000]}],
		"sim": [{"name": "SimPsi", "psi": [4, 16]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Repeats != 3 || spec.WarmupRepeats != 0 || spec.VarianceWarnRelStd != 0.25 {
		t.Errorf("defaults not applied: %+v", spec)
	}
	if spec.Scale != "quick" {
		t.Errorf("scale default = %q", spec.Scale)
	}
	cells := spec.Cells()
	var names []string
	for _, c := range cells {
		names = append(names, c.Name)
	}
	// Only the multi-valued axes appear in names, so grid cells line up
	// with the hand-recorded BENCH_7 benchmark names.
	want := []string{
		"LookupUnderChurn/rate=0", "LookupUnderChurn/rate=20", "LookupUnderChurn/rate=1000",
		"SimPsi/psi=4", "SimPsi/psi=16",
	}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("cell names = %v, want %v", names, want)
	}
	r := cells[0].Router
	if r == nil || r.Engine != "bintrie" || r.LCs != 4 || r.TablePrefixes != 20000 || r.Lookups != 50000 {
		t.Errorf("router cell defaults wrong: %+v", r)
	}
	s := cells[3].Sim
	if s == nil || s.Trace != "D_75" || s.PacketsPerLC != 20000 || s.Seed != 42 || s.LookupCycles != 40 {
		t.Errorf("sim cell defaults wrong: %+v", s)
	}
}

func TestLoadSpecMultiAxisNaming(t *testing.T) {
	spec, err := LoadSpec(strings.NewReader(`{
		"name": "t",
		"router": [{"name": "X", "engines": ["bintrie", "lctrie"], "batch": [32, 256]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cells := spec.Cells()
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	if cells[0].Name != "X/engine=bintrie/batch=32" || cells[3].Name != "X/engine=lctrie/batch=256" {
		t.Errorf("axis naming wrong: %q ... %q", cells[0].Name, cells[3].Name)
	}
	if cells[1].Params["batch"] != "256" || cells[1].Params["engine"] != "bintrie" {
		t.Errorf("params wrong: %v", cells[1].Params)
	}
}

func TestLoadSpecRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"no name":           `{"router": [{"name": "x"}]}`,
		"empty grid":        `{"name": "t"}`,
		"bad scale":         `{"name": "t", "scale": "huge", "router": [{"name": "x"}]}`,
		"unknown engine":    `{"name": "t", "router": [{"name": "x", "engines": ["nope"]}]}`,
		"unknown sim eng":   `{"name": "t", "sim": [{"name": "x", "engines": ["nope"]}]}`,
		"unknown trace":     `{"name": "t", "sim": [{"name": "x", "trace": "Z_9"}]}`,
		"unknown figure":    `{"name": "t", "figures": ["fig99"]}`,
		"duplicate name":    `{"name": "t", "router": [{"name": "x"}], "sim": [{"name": "x"}]}`,
		"negative rate":     `{"name": "t", "router": [{"name": "x", "update_rates": [-1]}]}`,
		"zero psi":          `{"name": "t", "sim": [{"name": "x", "psi": [0]}]}`,
		"unknown field":     `{"name": "t", "router": [{"name": "x", "bogus": 1}]}`,
		"experiment noname": `{"name": "t", "router": [{"engines": ["bintrie"]}]}`,
	}
	for label, in := range cases {
		if _, err := LoadSpec(strings.NewReader(in)); err == nil {
			t.Errorf("%s: spec accepted, want error", label)
		}
	}
}

// TestLoadSpecRefusesCacheShards: a grid written before PR 25 that still
// sweeps the deleted sharded cache layout fails loudly, with the field
// named, instead of silently measuring the one layout twice.
func TestLoadSpecRefusesCacheShards(t *testing.T) {
	_, err := LoadSpec(strings.NewReader(`{
		"name": "t",
		"router": [{"name": "ShardedCache", "cache_shards": [1, 8], "lookups": 20000}]
	}`))
	if err == nil || !strings.Contains(err.Error(), "cache_shards") {
		t.Fatalf("stale grid: err = %v, want an unknown-field error naming cache_shards", err)
	}
}

func TestLoadSpecFigures(t *testing.T) {
	spec, err := LoadSpec(strings.NewReader(`{"name": "t", "figures": ["fig4", "fig5", "fig6"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Figures) != 3 || len(spec.Cells()) != 0 {
		t.Errorf("figures-only spec mishandled: %+v", spec)
	}
}
