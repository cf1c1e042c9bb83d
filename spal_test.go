package spal

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestFacadePartitionAndLookup(t *testing.T) {
	tbl := SynthesizeTable(2000, 3)
	p := Partition(tbl, 4)
	if got := len(p.Bits); got != 2 {
		t.Fatalf("bits = %v", p.Bits)
	}
	engines := Engines()
	if len(engines) != 6 {
		t.Fatalf("Engines() has %d entries", len(engines))
	}
	if names := EngineNames(); len(names) != len(engines) {
		t.Fatalf("EngineNames() has %d entries, Engines() %d", len(names), len(engines))
	}
	build := engines["lulea"]
	e := build(p.Table(p.HomeLC(0x0a000001)))
	if e.Name() != "lulea" {
		t.Errorf("engine name = %s", e.Name())
	}
}

func TestFacadeSimulate(t *testing.T) {
	tbl := SynthesizeTable(2000, 5)
	cfg := DefaultSimConfig(tbl)
	cfg.NumLCs = 2
	cfg.PacketsPerLC = 500
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketsCompleted != 1000 {
		t.Fatalf("completed = %d", res.PacketsCompleted)
	}
}

func TestFacadeRouter(t *testing.T) {
	tbl := SynthesizeTable(1000, 7)
	r, err := NewRouter(tbl, WithLCs(2), WithRouterCache(DefaultCacheConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	a, err := ParseAddr("10.1.2.3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lookup(0, a); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeBatchLookup(t *testing.T) {
	tbl := SynthesizeTable(1000, 7)
	r, err := NewRouter(tbl, WithLCs(2), WithDefaultRouterCache(),
		WithRouterEngineName("lulea"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	addrs := make([]Addr, 32)
	for i := range addrs {
		addrs[i] = Addr(0x0a000000 + uint32(i)*9973)
	}
	out, err := r.LookupBatch(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v.Addr != addrs[i] {
			t.Fatalf("out[%d].Addr = %v, want %v", i, v.Addr, addrs[i])
		}
	}
	if _, err := NewRouter(tbl, WithRouterEngineName("no-such-engine")); err == nil {
		t.Fatal("unknown engine name accepted")
	}
}

func TestFacadeParsersAndPresets(t *testing.T) {
	p, err := ParsePrefix("10.0.0.0/8")
	if err != nil || p.Len != 8 {
		t.Fatalf("ParsePrefix: %v %v", p, err)
	}
	if len(TracePresets()) != 5 {
		t.Errorf("presets = %v", TracePresets())
	}
	tbl := NewTable([]Route{{Prefix: p, NextHop: 3}})
	if tbl.Len() != 1 {
		t.Error("NewTable lost the route")
	}
	if got := len(SelectBits(tbl, 2)); got != 2 {
		t.Errorf("SelectBits returned %d bits", got)
	}
}

func TestFacadeFaultInjection(t *testing.T) {
	tbl := SynthesizeTable(1000, 9)
	r, err := NewRouter(tbl, WithLCs(2), WithDefaultRouterCache(),
		WithRouterFaultInjector(NewFaults(7, LinkFaultConfig{DropRate: 0.2}).Decide),
		WithRouterRequestTimeout(2*time.Millisecond),
		WithRouterMaxRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	for i := 0; i < 50; i++ {
		a := Addr(0x0a000000 + uint32(i)*9973)
		if _, err := r.Lookup(i%2, a); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := r.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"spal_router_retries_total", "spal_router_fallbacks_total", "spal_router_deadline_expired_total"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("metrics text missing %s", name)
		}
	}
}
