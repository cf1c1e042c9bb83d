// Package tracing is the per-lookup distributed-tracing substrate of the
// concurrent router: a low-overhead span recorder that follows one lookup
// end-to-end — arrival, LR-cache probe, waiter coalescing, fabric
// send/receive, home-FE execution, retry/fallback/deadline, cache fill,
// verdict — as a single flat LookupTrace of fixed-size SpanEvents.
//
// The design constraints come from the router's concurrency model (one
// owner per line card at a time, no shared mutable state on the hot path):
//
//   - A trace is owned by exactly one goroutine at a time. It is created
//     at the arrival LC, rides the lookup message to that LC's goroutine,
//     and every Record happens on the current owner. Home-LC detail
//     (forward-hop count, FE execution time) travels back inside the
//     reply message as plain integers, never as a shared pointer.
//   - No allocation when tracing is disabled: a nil *Recorder and a nil
//     *LookupTrace are both valid receivers for every method, so the hot
//     path pays one pointer test and nothing else.
//   - Events append into a fixed array (MaxEvents); overflow increments
//     Dropped but per-kind Counts stay exact, so metric reconciliation
//     survives event loss.
//   - Finish publishes the trace into a bounded lock-free ring journal
//     and optionally emits one structured log record. After Finish a
//     trace is immutable; Snapshot copies it by value.
package tracing

import (
	"fmt"
	"time"

	"spal/internal/ip"
)

// EventKind identifies one lifecycle point inside a lookup. The A and B
// arguments of a SpanEvent are kind-specific; DESIGN.md §10 holds the
// full schema table.
type EventKind uint8

// Span event kinds, in rough lifecycle order.
const (
	// EvArrival: lookup submitted. A = arrival LC.
	EvArrival EventKind = iota
	// EvProbe: LR-cache probe at the arrival LC. A = probe outcome
	// (cache.ProbeKind numbering: 0 miss, 1 hit, 2 hit-waiting, 3
	// victim hit), B = origin class of the entry hit (0 LOC, 1 REM).
	EvProbe
	// EvCoalesce: this lookup parked onto an in-flight miss for the same
	// address. A = waiters already parked.
	EvCoalesce
	// EvBypass: the miss could not reserve a W block (set fully waiting);
	// the lookup rides the pending waitlist without early recording.
	EvBypass
	// EvFabricSend: request sent toward the home LC. A = home LC,
	// B = attempt number (1 = first send).
	EvFabricSend
	// EvFabricRecv: reply received from the home LC. A = replying LC,
	// B = forward hops the request survived (see router.maxForwardHops).
	EvFabricRecv
	// EvFEExec: a forwarding-engine execution resolved this address.
	// A = execution time in nanoseconds, B = executing LC.
	EvFEExec
	// EvRetry: the fabric request deadline expired and the request was
	// re-sent. A = attempt that expired, B = next backoff in nanoseconds.
	EvRetry
	// EvDeadline: the fabric retries ran out. A = attempts spent.
	EvDeadline
	// EvFallback: the verdict came from the router-wide full-table
	// fallback. A = arrival LC.
	EvFallback
	// EvRehome: the lookup was parked at a crashed LC and replayed at the
	// reborn slot. A = the dead LC.
	EvRehome
	// EvRedrive: a table swap re-drove this parked lookup against the new
	// partitioning. A = the LC re-driving.
	EvRedrive
	// EvFill: the result entered the arrival LC's cache and released the
	// waitlist. A = origin class filled (0 LOC, 1 REM), B = ServedBy code.
	EvFill
	// EvVerdict: the verdict was delivered. A = 1 when a route matched.
	EvVerdict
	// EvShed: overload control refused or abandoned this lookup. A = shed
	// reason code (router shed-reason numbering), B = the LC that shed.
	EvShed
	// EvStreak: the lookup's home LC was untrusted for a streak of deadline
	// expiries toward it, and the verdict came from the full-table fallback
	// without waiting for the home. A = the home LC, B = the streak.
	EvStreak
	// EvEject: the lookup's home LC was ejected (browned out) and the
	// verdict came from the full-table fallback: at dispatch time, with the
	// fabric request still sent to keep round-trip samples flowing, or at a
	// deadline expiry, which is then not retried. A = the ejected home LC.
	EvEject
)

// NumEventKinds sizes per-kind count arrays.
const NumEventKinds = int(EvEject) + 1

var kindNames = [NumEventKinds]string{
	"arrival", "probe", "coalesce", "bypass", "fabric_send", "fabric_recv",
	"fe_exec", "retry", "deadline", "fallback", "rehome", "redrive",
	"fill", "verdict", "shed", "streak_fallback", "eject",
}

// String returns the stable wire name used by logs and the JSON export.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Flag is a bit in a trace's summary bitmask. Flags are set by Record as
// a side effect of the matching event kind, so filtering "interesting"
// traces never needs to walk the event array.
type Flag uint16

// Trace flags.
const (
	// FlagSampled: the trace was head-sampled at arrival.
	FlagSampled Flag = 1 << iota
	// FlagLate: allocated mid-flight when the lookup turned interesting
	// (retry, deadline, re-home) without having been head-sampled. Late
	// traces miss the arrival-side events that preceded their creation.
	FlagLate
	// FlagCoalesced through FlagRedriven mirror the matching EventKind.
	FlagCoalesced
	FlagRetried
	FlagDeadline
	FlagFallback
	FlagRehomed
	FlagRedriven
	// FlagShed and FlagStreak mirror EvShed and EvStreak (overload
	// control; see the router's overload.go).
	FlagShed
	FlagStreak
	// FlagEjected mirrors EvEject (gray-failure mitigation; see the
	// router's gray.go).
	FlagEjected
)

// kindFlag maps an event kind to the flag Record sets for it.
var kindFlag = [NumEventKinds]Flag{
	EvCoalesce: FlagCoalesced,
	EvRetry:    FlagRetried,
	EvDeadline: FlagDeadline,
	EvFallback: FlagFallback,
	EvRehome:   FlagRehomed,
	EvRedrive:  FlagRedriven,
	EvShed:     FlagShed,
	EvStreak:   FlagStreak,
	EvEject:    FlagEjected,
}

var flagNames = []struct {
	f    Flag
	name string
}{
	{FlagSampled, "sampled"},
	{FlagLate, "late"},
	{FlagCoalesced, "coalesced"},
	{FlagRetried, "retried"},
	{FlagDeadline, "deadline"},
	{FlagFallback, "fallback"},
	{FlagRehomed, "rehomed"},
	{FlagRedriven, "redriven"},
	{FlagShed, "shed"},
	{FlagStreak, "streak"},
	{FlagEjected, "ejected"},
}

// Strings returns the set flag names in declaration order.
func (f Flag) Strings() []string {
	var out []string
	for _, fn := range flagNames {
		if f&fn.f != 0 {
			out = append(out, fn.name)
		}
	}
	return out
}

// Interesting reports whether the trace hit the always-capture criteria:
// retried, deadline-expired, fallback-served, re-homed, shed,
// streak-served, or eject-served.
func (f Flag) Interesting() bool {
	return f&(FlagRetried|FlagDeadline|FlagFallback|FlagRehomed|FlagShed|FlagStreak|FlagEjected) != 0
}

// SpanEvent is one fixed-size lifecycle event. At is the offset from the
// trace's Start in nanoseconds; A and B are kind-specific arguments (see
// the EventKind constants).
type SpanEvent struct {
	Kind EventKind
	At   int64
	A, B int64
}

// MaxEvents bounds the per-trace event array. A worst-case lookup —
// probe, coalesce, several retries across a re-homing, fallback — fits;
// pathological retry storms overflow into Dropped while Counts stay
// exact.
const MaxEvents = 24

// LookupTrace is the flat, fixed-size record of one lookup. It is built
// by exactly one goroutine at a time (see the package comment) and
// becomes immutable once Finish publishes it.
type LookupTrace struct {
	// ID is the router-unique trace id (also the histogram exemplar key).
	ID uint64
	// Addr is the destination looked up; ArrivalLC the submitting LC.
	Addr      ip.Addr
	ArrivalLC int
	// Start anchors every event's At offset.
	Start time.Time
	// LatencyNS, ServedBy and OK are set by Finish.
	LatencyNS int64
	ServedBy  string
	OK        bool
	Flags     Flag
	// Counts holds exact per-kind event totals, maintained even when the
	// event array overflows — the reconciliation contract with the
	// router's retry/fallback/re-home counters depends on this.
	Counts [NumEventKinds]uint16
	// Dropped counts events lost to the MaxEvents cap.
	Dropped int
	// Events[:EventCount] are the recorded events in append order.
	EventCount int
	Events     [MaxEvents]SpanEvent
}

// Record appends an event. Nil receivers are no-ops, so call sites stay
// branchless beyond the pointer test the compiler inserts anyway.
func (t *LookupTrace) Record(k EventKind, a, b int64) {
	if t == nil {
		return
	}
	t.Counts[k]++
	t.Flags |= kindFlag[k]
	if t.EventCount >= MaxEvents {
		t.Dropped++
		return
	}
	t.Events[t.EventCount] = SpanEvent{Kind: k, At: time.Since(t.Start).Nanoseconds(), A: a, B: b}
	t.EventCount++
}

// EventSlice returns the recorded events.
func (t *LookupTrace) EventSlice() []SpanEvent { return t.Events[:t.EventCount] }

// CountKind returns the exact number of times kind k was recorded,
// including events dropped by the MaxEvents cap.
func (t *LookupTrace) CountKind(k EventKind) int { return int(t.Counts[k]) }
