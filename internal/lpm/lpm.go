// Package lpm defines the longest-prefix-matching engine interface shared
// by every trie implementation (binary trie, DP trie, Lulea trie, LC-trie,
// and the 24/8 hardware table), plus a hash-based reference oracle used by
// the property tests.
//
// Engines report two things beyond the lookup result itself, because the
// paper's evaluation depends on them:
//
//   - the number of modelled memory accesses each lookup performs (the FE
//     lookup latency in the simulator is derived from this), and
//   - the modelled SRAM footprint of the whole structure (Fig. 3 of the
//     paper plots exactly this).
package lpm

import (
	"spal/internal/ip"
	"spal/internal/rtable"
)

// Engine is a built longest-prefix-matching structure. Implementations are
// immutable after construction (SPAL rebuilds forwarding tables on route
// updates and flushes the LR-caches, per Sec. 3.2 of the paper).
type Engine interface {
	// Lookup returns the next hop of the longest matching prefix, the
	// number of modelled memory accesses the search performed, and whether
	// any prefix matched at all.
	Lookup(a ip.Addr) (nh rtable.NextHop, accesses int, ok bool)

	// MemoryBytes returns the modelled SRAM footprint in bytes.
	MemoryBytes() int

	// Name identifies the algorithm, e.g. "lulea".
	Name() string
}

// DynamicEngine is an Engine that additionally supports in-place
// incremental updates, so a route announce/withdraw can be streamed into
// an already-built structure instead of rebuilding it from a snapshot.
// Implementations must keep Lookup correct after any Insert/Delete
// sequence; they need not be safe for concurrent mutation (the router
// serializes updates on the owning LC goroutine).
type DynamicEngine interface {
	Engine

	// Insert adds or replaces a route in place.
	Insert(p ip.Prefix, nh rtable.NextHop)

	// Delete removes a route in place, reporting whether it was present.
	Delete(p ip.Prefix) bool
}

// ApplyInPlace streams an update batch into e when it is a DynamicEngine —
// announces as Insert, withdraws as Delete, in order — and reports whether
// it was; any other engine is left as it is, for the caller to rebuild.
func ApplyInPlace(e Engine, updates []rtable.Update) bool {
	de, ok := e.(DynamicEngine)
	if !ok {
		return false
	}
	for _, u := range updates {
		if u.Kind == rtable.Withdraw {
			de.Delete(u.Route.Prefix)
		} else {
			de.Insert(u.Route.Prefix, u.Route.NextHop)
		}
	}
	return true
}

// Builder constructs an engine from a routing table snapshot.
type Builder func(t *rtable.Table) Engine

// MeanAccesses measures the average number of memory accesses per lookup of
// e over the given addresses (the paper reports 6.2/6.6 for the Lulea trie
// and about 16 for the DP trie).
func MeanAccesses(e Engine, addrs []ip.Addr) float64 {
	if len(addrs) == 0 {
		return 0
	}
	total := 0
	for _, a := range addrs {
		_, acc, _ := e.Lookup(a)
		total += acc
	}
	return float64(total) / float64(len(addrs))
}
