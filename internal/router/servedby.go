package router

import "fmt"

// ServedBy identifies where a lookup result came from. It replaces the
// earlier stringly-typed field; the string forms ("cache", "fe",
// "remote") are unchanged, so text output and JSON encodings of Verdict
// are stable across the migration.
type ServedBy uint8

// ServedBy values.
const (
	// ServedByUnknown is the zero value: the verdict carries no origin
	// (e.g. a zero Verdict).
	ServedByUnknown ServedBy = iota
	// ServedByCache: LR-cache hit at the arrival LC.
	ServedByCache
	// ServedByFE: local forwarding-engine execution at the home LC.
	ServedByFE
	// ServedByRemote: reply from the home LC over the fabric.
	ServedByRemote
	// ServedByFallback: the address was resolved against the router-wide
	// full-table snapshot (an rtable.Index over it) instead of its home
	// LC, for one of three causes: fabric retries (or the retry budget)
	// exhausted, the home untrusted — a streak of deadline expiries toward
	// it (overload.go) or ejected as browned out (gray.go) — or the
	// forward-hop cap reached. The verdict is still correct — the snapshot
	// is the complete current table. Only the first cause pays the
	// deadline/retry latency to get there.
	ServedByFallback
	// ServedByShed: overload control refused or abandoned the lookup
	// after admission (waitlist overflow, replay shed); the verdict
	// carries no route. The synchronous Lookup wrappers convert this to
	// ErrOverloaded; only batch callers observe it directly. Only
	// routers built WithOverload ever produce it.
	ServedByShed
)

// servedByNames are the wire/report names, aligned with the legacy
// string constants.
var servedByNames = [...]string{"unknown", "cache", "fe", "remote", "fallback", "shed"}

// String implements fmt.Stringer with the legacy names.
func (s ServedBy) String() string {
	if int(s) < len(servedByNames) {
		return servedByNames[s]
	}
	return fmt.Sprintf("ServedBy(%d)", uint8(s))
}

// MarshalText keeps JSON/text encodings identical to the old string
// field: a verdict served by the cache still encodes as "cache".
func (s ServedBy) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText accepts the legacy names (round-tripping MarshalText).
func (s *ServedBy) UnmarshalText(b []byte) error {
	for i, n := range servedByNames {
		if string(b) == n {
			*s = ServedBy(i)
			return nil
		}
	}
	return fmt.Errorf("router: unknown ServedBy %q", b)
}
