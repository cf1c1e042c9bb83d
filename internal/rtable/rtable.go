// Package rtable holds BGP-style routing tables: prefix -> next hop, with
// loaders, synthetic table generators matched to published 2003-era prefix
// length distributions, and a route-update stream generator.
//
// The paper evaluates two concrete tables: RT_1, the FUNET table with
// 41,709 prefixes, and RT_2, an AS1221 snapshot with 140,838 prefixes.
// Neither artifact ships with this repository, so RT1() and RT2() synthesize
// tables of exactly those sizes whose length distribution and nesting
// behaviour match what those tables are documented to look like (see
// DESIGN.md, "Substitutions").
package rtable

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"spal/internal/ip"
)

// NextHop identifies the output port / line card a matched packet should be
// forwarded to. The paper's LR-cache stores it as "Next_hop_LC#".
type NextHop uint16

// NoNextHop is returned by lookups that match nothing (no default route).
const NoNextHop = NextHop(0xffff)

// Route is one routing-table entry.
type Route struct {
	Prefix  ip.Prefix
	NextHop NextHop
}

// Table is an immutable snapshot of a routing table. Entries are unique by
// prefix and sorted in (value, length) order.
type Table struct {
	routes []Route
}

// New builds a table from routes, at most 2^26 of them. Duplicate prefixes
// keep the last next hop (BGP replace semantics). The input slice is not
// retained.
func New(routes []Route) *Table {
	if len(routes) > 1<<indexBits {
		panic(fmt.Sprintf("rtable: %d routes, more than New's %d", len(routes), 1<<indexBits))
	}
	// One sort of packed (value, length, index) keys: equal prefixes end up
	// adjacent in input order, so the last of each run is the one kept.
	ks := make([]uint64, len(routes))
	for i, r := range routes {
		p := r.Prefix.Canon()
		ks[i] = (uint64(p.Value)<<6|uint64(p.Len))<<indexBits | uint64(i)
	}
	ks = sortKeys(ks)
	uniq := ks[:0]
	for i, k := range ks {
		if i+1 == len(ks) || ks[i+1]>>indexBits != k>>indexBits {
			uniq = append(uniq, k)
		}
	}
	out := make([]Route, len(uniq))
	for i, k := range uniq {
		p := ip.Prefix{Value: uint32(k >> (indexBits + 6)), Len: uint8(k >> indexBits & 63)}
		out[i] = Route{Prefix: p, NextHop: routes[k&(1<<indexBits-1)].NextHop}
	}
	return &Table{routes: out}
}

// indexBits is what New's sort key leaves for a route's input position
// below its 32 value and 6 length bits.
const indexBits = 26

// sortKeys returns New's keys sorted. Their index bits already ascend in
// input order, so a stable LSD radix sort of the 38 bits above them, a
// byte a pass, gives the order a full comparison sort would.
func sortKeys(ks []uint64) []uint64 {
	tmp := make([]uint64, len(ks))
	for shift := indexBits; shift < 64; shift += 8 {
		var start [256]int
		for _, k := range ks {
			start[k>>shift&0xff]++
		}
		sum := 0
		for d, c := range start {
			start[d], sum = sum, sum+c
		}
		for _, k := range ks {
			d := k >> shift & 0xff
			tmp[start[d]] = k
			start[d]++
		}
		ks, tmp = tmp, ks
	}
	return ks
}

// NewSorted is New for routes the caller believes to be canonical, unique
// and in table order already — a subsequence of another table's Routes —
// which its one pass verifies. Such input becomes the table's own slice,
// not a copy: the caller hands it over and must not modify it. Input that
// is not in table order goes through New.
func NewSorted(routes []Route) *Table {
	for i, r := range routes {
		if r.Prefix != r.Prefix.Canon() || (i > 0 && !routes[i-1].Prefix.Less(r.Prefix)) {
			return New(routes)
		}
	}
	return &Table{routes: routes}
}

// Len returns the number of prefixes in the table.
func (t *Table) Len() int { return len(t.routes) }

// Routes returns the sorted routes. Callers must not modify the slice.
func (t *Table) Routes() []Route { return t.routes }

// Prefixes returns just the prefixes, sorted.
func (t *Table) Prefixes() []ip.Prefix {
	ps := make([]ip.Prefix, len(t.routes))
	for i, r := range t.routes {
		ps[i] = r.Prefix
	}
	return ps
}

// LookupLinear performs longest-prefix matching by linear scan. It is the
// correctness oracle the trie engines are property-tested against, not a
// fast path.
func (t *Table) LookupLinear(a ip.Addr) (NextHop, bool) {
	best := -1
	for i, r := range t.routes {
		if r.Prefix.Matches(a) && (best < 0 || r.Prefix.Len > t.routes[best].Prefix.Len) {
			best = i
		}
	}
	if best < 0 {
		return NoNextHop, false
	}
	return t.routes[best].NextHop, true
}

// LongestMatch returns the longest-prefix-match route for a, exploiting
// the (value, length) sort order: one binary search per candidate length,
// longest first, so at most 33 O(log N) probes. It is exact (agrees with
// LookupLinear everywhere) and needs no trie.
func (t *Table) LongestMatch(a ip.Addr) (Route, bool) {
	for l := 32; l >= 0; l-- {
		p := ip.Prefix{Value: a & ip.Mask(uint8(l)), Len: uint8(l)}
		i := sort.Search(len(t.routes), func(i int) bool { return !t.routes[i].Prefix.Less(p) })
		if i < len(t.routes) && t.routes[i].Prefix == p {
			return t.routes[i], true
		}
	}
	return Route{NextHop: NoNextHop}, false
}

// LengthHistogram returns the count of prefixes at each length 0..32.
func (t *Table) LengthHistogram() [33]int {
	var h [33]int
	for _, r := range t.routes {
		h[r.Prefix.Len]++
	}
	return h
}

// Write stores the table in the text format read by Read: one
// "prefix/len nexthop" pair per line.
func (t *Table) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, r := range t.routes {
		if _, err := fmt.Fprintf(bw, "%s %d\n", r.Prefix, r.NextHop); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses the text format written by Write. Blank lines and lines
// starting with '#' are skipped.
func Read(r io.Reader) (*Table, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var routes []Route
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("rtable: line %d: want 'prefix nexthop', got %q", line, text)
		}
		p, err := ip.ParsePrefix(fields[0])
		if err != nil {
			return nil, fmt.Errorf("rtable: line %d: %v", line, err)
		}
		nh, err := strconv.ParseUint(fields[1], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("rtable: line %d: bad next hop %q", line, fields[1])
		}
		routes = append(routes, Route{Prefix: p, NextHop: NextHop(nh)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return New(routes), nil
}
