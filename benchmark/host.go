package main

import (
	"slices"
	"time"
)

// The benchmark runs on a few vCPUs of a shared host, and what the
// neighbours do changes how fast this VM executes the same instructions:
// a dependent multiply-add chain always takes the same time here (the
// clock frequency is steady), but a loop of random loads from a 512 KiB
// table takes anything from 1.3 to 3 ns a step, drifting over seconds and
// minutes, as something else competes for the core's caches. The lookup
// path is about half arithmetic and half such loads, and its raw timings
// drift with it: cold_batch read 880 k and 480 k lookups/s five minutes
// apart with nothing changed (README, "Steadiness").
//
// So every timed segment is bracketed by probes: a fixed kernel made of
// those two parts, each taking half of probeRefNS when the host is
// undisturbed. A segment's timings are scaled by probe time ÷ probeRefNS
// to what they would have read on the undisturbed host. The kernel is
// frozen: changing it or probeRefNS moves every timing metric.
const (
	probeSteps  = 1 << 17
	probeRounds = 8
	probeRefNS  = 330e3 // one round on an undisturbed Xeon @ 2.10 GHz vCPU
)

var probeTable = func() []uint32 {
	t := make([]uint32, 1<<17) // 512 KiB: inside the L2 cache, outside L1
	for i := range t {
		t[i] = uint32(i) * 2654435761
	}
	return t
}()

// probe returns how much slower than the reference the host runs the
// kernel: 1 on the undisturbed host, 1.5 to 1.8 when the neighbours are
// busy. It is the mean of the six fastest of eight rounds: a round that
// the Go scheduler or the collector interrupted (churn_single's writer
// allocates all the time), or that found the table evicted by the segment
// before it, reads several times too long and is dropped; what the
// neighbours do shows in every round.
func probe() float64 {
	const mul, inc = 6364136223846793005, 1442695040888963407
	var rounds [probeRounds]float64
	for r := range rounds {
		t0 := time.Now()
		x := uint64(r)
		for i := 0; i < probeSteps; i++ { // arithmetic: one dependent chain
			x = x*mul + inc
		}
		a, b, c, d := x, x+1, uint64(0), uint64(0)
		for i := 0; i < probeSteps; i++ { // loads: two independent streams
			a = a*mul + 1
			b = b*mul + 3
			c += uint64(probeTable[a>>47])
			d += uint64(probeTable[b>>47])
		}
		sink += int(c + d)
		rounds[r] = float64(time.Since(t0))
	}
	slices.Sort(rounds[:])
	kept := rounds[:probeRounds-2]
	total := 0.0
	for _, ns := range kept {
		total += ns
	}
	return total / float64(len(kept)) / probeRefNS
}
