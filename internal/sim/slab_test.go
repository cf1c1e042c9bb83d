package sim

import (
	"strings"
	"testing"
	"unsafe"

	"spal/internal/lpm/engines"
	"spal/internal/rtable"
)

// fig6Config is the paper's default point (ψ=16, RT2, D_75, lulea at 40
// cycles) — the one benchmark/'s sim_fig6 times — at a test's run length.
func fig6Config(t *testing.T, packets int) Config {
	t.Helper()
	lulea, err := engines.Lookup("lulea")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(rtable.RT2())
	cfg.Engine = lulea
	cfg.PacketsPerLC = packets
	return cfg
}

// runSlab runs cfg to the end, checks what must hold of the packet slab
// then, and returns its high-water mark in records. It turns on stage
// accounting, which moves no packet: every packet is probed, so fold's
// arrival→probe count is then the number of packets folded.
func runSlab(t *testing.T, cfg Config) int {
	t.Helper()
	cfg.StageAccounting = true
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	free := 0
	for i := range r.packets {
		switch p := &r.packets[i]; {
		case p.refs == 0:
			free++
		case p.completeCycle < 0:
			t.Errorf("record %d is still named (refs=%d) and never completed", i, p.refs)
		}
	}
	if free != len(r.free) {
		t.Errorf("%d records have no name, the free list holds %d", free, len(r.free))
	}
	// Every packet was folded exactly once: by its last drop, or by
	// result() when the run ended with something still naming it.
	total := int64(cfg.NumLCs * cfg.PacketsPerLC)
	if folded := r.stagePacket[0]; folded != total {
		t.Errorf("folded %d packets of %d", folded, total)
	}
	return len(r.packets)
}

// TestPacketSlabBounded: the slab holds the in-flight population, not the
// run. Its high-water mark is bounded at the Fig. 6 point and does not
// follow the run length; on the duplicate-heavy cells — where flush
// reissues, unrecorded misses and bypassed reservations leave stragglers
// that outlive their packet's completion — every name is still counted (a
// miscounted site panics "used after release" or "lost before completion"
// inside the run).
func TestPacketSlabBounded(t *testing.T) {
	const bound = 4096
	short := runSlab(t, fig6Config(t, 20000))
	long := runSlab(t, fig6Config(t, 80000))
	t.Logf("Fig. 6 point: %d records at 20,000 packets an LC, %d at 80,000", short, long)
	if short > bound || long > bound {
		t.Errorf("slab grew to %d / %d records, want <= %d", short, long, bound)
	}
	if long > short {
		t.Errorf("slab follows the run length: %d records at 20,000 packets an LC, %d at 80,000", short, long)
	}
	for _, c := range matrixCells(t, rtable.Small(12000, 26), 20000) {
		switch {
		case c.name == "flush-3000/D_75/psi=3",
			strings.HasPrefix(c.name, "no-early-recording/D_75/"),
			strings.HasPrefix(c.name, "cache-64/D_75/"):
			t.Logf("%s: %d records", c.name, runSlab(t, c.cfg))
		}
	}
}

// TestPacketRecordSize: a record holds what every packet uses — no home
// (a miss computes it) and no stage stamps (their own slab, under
// accounting only) — in 32 bytes, down from 88 with both.
func TestPacketRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(packet{}); got > 32 {
		t.Errorf("a packet record is %d bytes, want <= 32", got)
	}
}

// TestSimMessageSize: a fabric message names its packet (id, destination,
// a reply's next hop) in 16 bytes; a fabric.Message copy of the packet was
// 40, copied into outQ, out of it, into the pipe, out of it and, for a
// reply, into replyQ.
func TestSimMessageSize(t *testing.T) {
	if got := unsafe.Sizeof(msg{}); got > 16 {
		t.Errorf("a sim message is %d bytes, want <= 16", got)
	}
}

// TestRunAllocsPerPacket: what Run allocates is a waiting list a miss and
// queue growth — 0.228 a packet over a run this short, which is mostly cold
// misses. The slab adds none (a record a packet would add 1.0), and
// draining the fabric adds none: a slice of each cycle's arrivals made it
// 0.422. The ceiling sits just above the 0.228.
func TestRunAllocsPerPacket(t *testing.T) {
	cfg := fig6Config(t, 5000)
	const runs = 2
	routers := make([]*Router, runs+1) // AllocsPerRun warms up with one extra call
	for i := range routers {
		var err error
		if routers[i], err = New(cfg); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	perRun := testing.AllocsPerRun(runs, func() {
		if _, err := routers[next].Run(); err != nil {
			t.Fatal(err)
		}
		next++
	})
	perPacket := perRun / float64(cfg.NumLCs*cfg.PacketsPerLC)
	t.Logf("%.0f allocations a run, %.3f a packet", perRun, perPacket)
	if perPacket > 0.25 {
		t.Errorf("Run allocates %.3f times a packet, want <= 0.25", perPacket)
	}
}
