package metrics

import (
	"math"
	"runtime"
	rm "runtime/metrics"
)

// Process-gauge families. They describe the Go process hosting the
// router, not the data plane itself, so they are opt-in: nothing in the
// default Router.Metrics snapshot emits them (golden-file tests pin
// that).
const (
	MetricProcGoroutines  = "spal_process_goroutines"
	MetricProcHeapBytes   = "spal_process_heap_bytes"
	MetricProcGCPauseNS   = "spal_process_gc_pause_ns_total"
	MetricProcGCCycles    = "spal_process_gc_cycles_total"
	MetricProcTotalAlloc  = "spal_process_allocated_bytes_total"
	MetricProcLiveObjects = "spal_process_live_objects"
)

// procSamples is the fixed runtime/metrics read set. Reading a batch is
// a single runtime call; the slice is rebuilt per read because
// AppendProcess must be safe for concurrent HTTP scrapes.
var procNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/gc/pauses:seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/objects:objects",
}

// ProcessUsage is one point-in-time reading of the process gauges.
type ProcessUsage struct {
	Goroutines  int
	HeapBytes   uint64
	GCPauseNS   float64
	GCCycles    uint64
	AllocBytes  uint64
	LiveObjects uint64
}

// ReadProcess samples the runtime: goroutine count, live heap bytes and
// objects, cumulative GC pause time and cycle count, and cumulative
// allocated bytes.
func ReadProcess() ProcessUsage {
	samples := make([]rm.Sample, len(procNames))
	for i, n := range procNames {
		samples[i].Name = n
	}
	rm.Read(samples)
	u := ProcessUsage{Goroutines: runtime.NumGoroutine()}
	for _, s := range samples {
		switch s.Name {
		case "/memory/classes/heap/objects:bytes":
			u.HeapBytes = kindUint64(s)
		case "/gc/pauses:seconds":
			if s.Value.Kind() == rm.KindFloat64Histogram {
				if h := s.Value.Float64Histogram(); h != nil {
					u.GCPauseNS = histSumNS(h)
				}
			}
		case "/gc/cycles/total:gc-cycles":
			u.GCCycles = kindUint64(s)
		case "/gc/heap/allocs:bytes":
			u.AllocBytes = kindUint64(s)
		case "/gc/heap/objects:objects":
			u.LiveObjects = kindUint64(s)
		}
	}
	return u
}

func kindUint64(s rm.Sample) uint64 {
	if s.Value.Kind() == rm.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}

// histSumNS estimates the cumulative pause time from the runtime's pause
// histogram: count x bucket midpoint, in nanoseconds. The runtime only
// exposes the distribution, so this is a lower-noise stand-in for the
// old MemStats.PauseTotalNs with the same monotone-counter semantics.
func histSumNS(h *rm.Float64Histogram) float64 {
	var total float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		// The outermost buckets are unbounded; fall back to the finite
		// edge rather than inventing a midpoint with an infinity.
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		}
		total += float64(c) * mid * 1e9
	}
	return total
}

// AppendProcess appends the process gauges to s. Callers opt in
// explicitly — typically by wrapping a snapshot source before handing it
// to Handler/NewMux — because these gauges describe the whole process
// and would pollute per-router golden snapshots.
func AppendProcess(s *Snapshot) {
	u := ReadProcess()
	s.Gauge(MetricProcGoroutines, "Goroutines currently live in the process.", float64(u.Goroutines))
	s.Gauge(MetricProcHeapBytes, "Bytes of live heap objects (runtime/metrics).", float64(u.HeapBytes))
	s.Counter(MetricProcGCPauseNS, "Cumulative stop-the-world GC pause time (ns, from the pause histogram).", u.GCPauseNS)
	s.Counter(MetricProcGCCycles, "Completed GC cycles.", float64(u.GCCycles))
	s.Counter(MetricProcTotalAlloc, "Cumulative bytes allocated on the heap.", float64(u.AllocBytes))
	s.Gauge(MetricProcLiveObjects, "Live heap objects (runtime/metrics).", float64(u.LiveObjects))
}

// WithProcess wraps a snapshot source so every produced snapshot also
// carries the process gauges — the opt-in hook the CLIs expose as
// -process-metrics. A nil source stays nil-safe: the wrapper returns a
// process-only snapshot.
func WithProcess(src func() *Snapshot) func() *Snapshot {
	return func() *Snapshot {
		var s *Snapshot
		if src != nil {
			s = src()
		}
		if s == nil {
			s = NewSnapshot()
		} else {
			// Copy-on-write: the source may hand out a shared snapshot.
			c := &Snapshot{At: s.At}
			c.Samples = append([]Sample(nil), s.Samples...)
			c.Hists = append([]HistSample(nil), s.Hists...)
			s = c
		}
		AppendProcess(s)
		return s
	}
}
