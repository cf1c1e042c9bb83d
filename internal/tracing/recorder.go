package tracing

import (
	"context"
	"log/slog"
	"math"
	"sync/atomic"
	"time"

	"spal/internal/ip"
)

// Config parameterizes a Recorder.
type Config struct {
	// SampleRate is the head-sampling probability in [0, 1]: the fraction
	// of lookups that get a trace allocated at arrival. 0 disables head
	// sampling (interesting lookups are still captured late); >= 1 traces
	// everything.
	SampleRate float64
	// JournalSize bounds the completed-trace ring; <= 0 selects the
	// default (1024). Sizing it above the expected lookup volume of a
	// debugging window makes Snapshot lossless for that window.
	JournalSize int
	// Logger, when non-nil, receives one structured record per completed
	// trace.
	Logger *slog.Logger
}

const defaultJournalSize = 1024

// Recorder owns trace-id allocation, head sampling, the completed-trace
// journal, and the structured-log sink. All methods are safe for
// concurrent use by every LC's owner; a nil *Recorder is a valid
// receiver that records nothing (the tracing-disabled fast path).
type Recorder struct {
	threshold uint64 // sampling cut on a splitmix64 hash; 0 = head sampling off
	seq       atomic.Uint64
	ids       atomic.Uint64
	logger    *slog.Logger
	journal   journal
}

// New builds a Recorder from cfg.
func New(cfg Config) *Recorder {
	r := &Recorder{logger: cfg.Logger}
	switch {
	case cfg.SampleRate >= 1:
		r.threshold = math.MaxUint64
	case cfg.SampleRate <= 0:
		r.threshold = 0
	default:
		r.threshold = uint64(cfg.SampleRate * float64(math.MaxUint64))
	}
	size := cfg.JournalSize
	if size <= 0 {
		size = defaultJournalSize
	}
	r.journal.slots = make([]atomic.Pointer[LookupTrace], size)
	return r
}

// splitmix64 is the finalizer of the splitmix64 generator: a cheap
// counter-keyed hash whose output is uniform over uint64, matching the
// fabric fault model's (fabric.Faults), so sampled runs stay deterministic
// per seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Sample decides head sampling for one arriving lookup, returning a new
// trace or nil. The decision is one atomic increment plus one hash — no
// allocation and no clock on the unsampled path: the caller sets Start, the
// lookup's submission time, on the trace it gets, before it records on it.
func (r *Recorder) Sample(lc int, addr ip.Addr) *LookupTrace {
	if r == nil || r.threshold == 0 || (r.threshold != math.MaxUint64 && splitmix64(r.seq.Add(1)) > r.threshold) {
		return nil
	}
	return &LookupTrace{
		ID:        r.ids.Add(1),
		Addr:      addr,
		ArrivalLC: lc,
		Flags:     FlagSampled,
	}
}

// Late allocates a trace mid-flight for a lookup that just turned
// interesting (first retry, deadline expiry, re-homing) without having
// been head-sampled. It runs off the hot path by construction — only
// deadline and lifecycle machinery call it.
func (r *Recorder) Late(lc int, addr ip.Addr) *LookupTrace {
	if r == nil {
		return nil
	}
	return &LookupTrace{
		ID:        r.ids.Add(1),
		Addr:      addr,
		ArrivalLC: lc,
		Start:     time.Now(),
		Flags:     FlagLate,
	}
}

// Finish seals a trace — verdict, latency, the closing EvVerdict event —
// publishes it to the journal and emits the structured log record. The
// trace must not be touched after Finish; Snapshot readers copy it
// concurrently.
func (r *Recorder) Finish(t *LookupTrace, servedBy string, ok bool) {
	if r == nil || t == nil {
		return
	}
	okA := int64(0)
	if ok {
		okA = 1
	}
	t.Record(EvVerdict, okA, 0)
	t.LatencyNS = time.Since(t.Start).Nanoseconds()
	t.ServedBy = servedBy
	t.OK = ok
	r.journal.put(t)
	if r.logger != nil {
		r.logger.LogAttrs(context.Background(), slog.LevelInfo, "lookup trace",
			slog.Uint64("trace_id", t.ID),
			slog.String("addr", ip.FormatAddr(t.Addr)),
			slog.Int("arrival_lc", t.ArrivalLC),
			slog.String("served_by", servedBy),
			slog.Bool("ok", ok),
			slog.Int64("latency_ns", t.LatencyNS),
			slog.Int("events", t.EventCount),
			slog.Int("dropped_events", t.Dropped),
			slog.Any("flags", t.Flags.Strings()),
		)
	}
}

// Snapshot copies the journal's completed traces, oldest first. The copy
// is near-consistent: a writer lapping the ring mid-read can surface a
// newer trace out of order, never a torn one (traces are immutable after
// publication).
func (r *Recorder) Snapshot() []LookupTrace {
	if r == nil {
		return nil
	}
	return r.journal.snapshot()
}

// journal is a bounded lock-free ring of completed traces: writers claim
// slots with one atomic add and publish with one atomic store.
type journal struct {
	slots []atomic.Pointer[LookupTrace]
	next  atomic.Uint64
}

func (j *journal) put(t *LookupTrace) {
	idx := j.next.Add(1) - 1
	j.slots[idx%uint64(len(j.slots))].Store(t)
}

func (j *journal) snapshot() []LookupTrace {
	n := j.next.Load()
	size := uint64(len(j.slots))
	start := uint64(0)
	if n > size {
		start = n - size
	}
	out := make([]LookupTrace, 0, n-start)
	for i := start; i < n; i++ {
		if p := j.slots[i%size].Load(); p != nil {
			out = append(out, *p)
		}
	}
	return out
}
