// Batch-first engine surface. The per-key Engine interface forces one
// virtual call and one full trie descent per address; engines whose levels
// are array reads (stride24, lulea) can do much better when handed
// a whole burst at once — the traversal state of many keys fits in
// registers/L1 and the next level's loads overlap instead of serializing.
//
// BatchEngine is deliberately optional: every existing engine keeps
// working unchanged through the LookupAll adapter, and callers (the
// router's batched data plane, the benchmarks) never type-switch
// themselves.
package lpm

import (
	"spal/internal/ip"
	"spal/internal/rtable"
)

// Result is one element of a batched lookup: the same triple Lookup
// returns, packed into a value so a whole batch can live in one
// caller-owned slice with no per-key allocation.
type Result struct {
	NextHop  rtable.NextHop
	Accesses int32
	OK       bool
}

// BatchEngine is the optional batch interface an Engine may implement.
// LookupBatch must behave exactly like len(addrs) independent Lookup
// calls: out[i] holds the result for addrs[i] (the crosscheck property
// tests enforce this equivalence, accesses included). out is caller-
// owned scratch with len(out) >= len(addrs); implementations must not
// retain it. Engines are immutable after construction, so LookupBatch
// (like Lookup) must be safe for concurrent use from multiple
// goroutines without engine-held mutable scratch.
type BatchEngine interface {
	Engine
	LookupBatch(addrs []ip.Addr, out []Result)
}

// LookupAll resolves every address in addrs into out[:len(addrs)],
// using the engine's native LookupBatch when it implements BatchEngine
// and falling back to per-key Lookup calls otherwise. It is the single
// entry point batch callers should use; it never allocates.
func LookupAll(e Engine, addrs []ip.Addr, out []Result) {
	if len(addrs) == 0 {
		return
	}
	if be, ok := e.(BatchEngine); ok {
		be.LookupBatch(addrs, out[:len(addrs)])
		return
	}
	for i, a := range addrs {
		nh, acc, ok := e.Lookup(a)
		out[i] = Result{NextHop: nh, Accesses: int32(acc), OK: ok}
	}
}
