package rtable

import (
	"sync"

	"spal/internal/ip"
)

// Index answers longest-prefix matches from a Table's own sorted routes,
// with no trie beside them: one link per route to the longest route that
// strictly encloses it (-1 for none). A lookup binary-searches for the last
// route starting at or below the address — the longest match, if any, is
// that route or one of its enclosing routes, since a route starting inside
// another lies inside it — and walks the links until a route contains the
// address. The links cost 4 bytes a route and one O(N) pass, made the first
// time the index answers, so an index that is never asked builds nothing.
//
// An Index is safe for concurrent use. It is exact (agrees with
// LookupLinear everywhere); LongestMatch stays the oracle it is tested
// against.
type Index struct {
	t    *Table
	once sync.Once
	up   []int32 // up[i]: index of the longest route strictly enclosing route i, or -1
}

// NewIndex returns the index of t. It allocates nothing table-sized.
func NewIndex(t *Table) *Index { return &Index{t: t} }

// Lookup returns the next hop of a's longest matching route.
func (x *Index) Lookup(a ip.Addr) (NextHop, bool) {
	x.once.Do(x.link)
	rs := x.t.routes
	lo, hi := 0, len(rs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if rs[m].Prefix.Value <= a {
			lo = m + 1
		} else {
			hi = m
		}
	}
	for i := lo - 1; i >= 0; i = int(x.up[i]) {
		if rs[i].Prefix.Matches(a) {
			return rs[i].NextHop, true
		}
	}
	return NoNextHop, false
}

// link computes up in one pass over the routes in (value, length) order,
// which visits every route after all routes enclosing it: a stack holds the
// chain of routes enclosing the current one, at most 33 deep, each with its
// last address. A route starts at or after every route on the stack, and
// two prefixes nest or are disjoint, so it lies inside exactly those that
// do not end before it starts.
func (x *Index) link() {
	type open struct {
		i    int32
		last ip.Addr
	}
	rs := x.t.routes
	x.up = make([]int32, len(rs))
	stack := make([]open, 0, 33)
	for i, r := range rs {
		for len(stack) > 0 && stack[len(stack)-1].last < r.Prefix.Value {
			stack = stack[:len(stack)-1]
		}
		x.up[i] = -1
		if n := len(stack); n > 0 {
			x.up[i] = stack[n-1].i
		}
		stack = append(stack, open{int32(i), r.Prefix.LastAddr()})
	}
}
