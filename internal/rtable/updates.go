package rtable

import (
	"sort"

	"spal/internal/ip"
	"spal/internal/stats"
)

// UpdateKind distinguishes BGP announce from withdraw events.
type UpdateKind uint8

// Update kinds.
const (
	Announce UpdateKind = iota // add or replace a route
	Withdraw                   // remove a route
)

// Update is one routing-table change event with its arrival time.
type Update struct {
	Kind    UpdateKind
	Route   Route
	AtCycle int64 // simulation cycle at which the update is applied
}

// UpdateStreamConfig shapes a synthetic BGP update stream. The paper models
// ~20 updates/s on average (up to 100/s), each of which flushes every
// LR-cache in a SPAL router.
type UpdateStreamConfig struct {
	// RatePerSecond is the mean update arrival rate (events per second).
	RatePerSecond float64
	// CycleNS is the simulator cycle length in nanoseconds (paper: 5 ns).
	CycleNS float64
	// Duration is the covered simulated time span in cycles.
	Duration int64
	// WithdrawProb is the probability an event withdraws an existing route
	// rather than announcing one.
	WithdrawProb float64
	// NewPrefixProb is the probability an announce introduces a prefix not
	// currently in the table (drawn from the same length distribution as
	// the synthetic tables) instead of re-announcing an existing one.
	NewPrefixProb float64
	// Seed drives randomness.
	Seed uint64
}

// GenerateUpdates produces a time-ordered update stream against table t.
// The generator tracks the evolving route set: withdraws only remove
// prefixes still present at that point in the stream, re-announces pick
// from the live set, and NewPrefixProb introduces genuinely new prefixes.
// A table that churns down to zero routes only emits announces until
// routes exist again.
//
// The live set is t's routes plus an overlay of what the stream changed
// (liveSet), so a stream costs O(events · log t.Len()), not a copy and an
// index of the table.
func GenerateUpdates(t *Table, cfg UpdateStreamConfig) []Update {
	if cfg.RatePerSecond <= 0 || cfg.Duration <= 0 {
		return nil
	}
	rng := stats.NewRNG(cfg.Seed)
	// Mean inter-arrival gap in cycles.
	gap := 1e9 / cfg.RatePerSecond / cfg.CycleNS
	// The expected event count, capped: a size hint for the output and the
	// overlays, as each event writes one position and flips one prefix.
	events := int(min(max(float64(cfg.Duration)/gap, 0), 1<<20)) + 1
	live := liveSet{base: t.Routes(), n: t.Len(), moved: make(map[int]Route, events), flipped: make(map[uint64]bool, events)}
	out := make([]Update, 0, events)
	// Exponential-ish arrivals via uniform [0.5, 1.5) * gap; BGP churn is
	// bursty but the simulator only cares about the invalidation points.
	at := int64(gap * (0.5 + rng.Float64()))
	for at < cfg.Duration {
		var u Update
		switch {
		case live.n > 0 && rng.Bool(cfg.WithdrawProb):
			i := rng.Intn(live.n)
			r := live.at(i)
			live.n--
			live.moved[i] = live.at(live.n)
			live.flipped[prefixKey(r.Prefix)] = false
			u = Update{Kind: Withdraw, Route: r, AtCycle: at}
		case live.n == 0 || rng.Bool(cfg.NewPrefixProb):
			p, fresh := randomNewPrefix(rng, live.has)
			r := Route{Prefix: p, NextHop: NextHop(rng.Intn(64))}
			if !fresh {
				// Retry budget exhausted: announce degrades to a replace.
				i := 0
				for live.at(i).Prefix != p {
					i++
				}
				live.moved[i] = r
			} else {
				live.moved[live.n] = r
				live.n++
				live.flipped[prefixKey(p)] = true
			}
			u = Update{Kind: Announce, Route: r, AtCycle: at}
		default:
			i := rng.Intn(live.n)
			r := live.at(i)
			r.NextHop = NextHop(rng.Intn(64))
			live.moved[i] = r
			u = Update{Kind: Announce, Route: r, AtCycle: at}
		}
		out = append(out, u)
		at += int64(gap * (0.5 + rng.Float64()))
	}
	return out
}

// liveSet is a route list as an update stream edits it — a withdraw moves
// the last route into the withdrawn one's position, an announce of a new
// prefix appends — held as the table's sorted routes, never written, and
// two overlays: moved, each position the stream wrote (every one from
// len(base) on), and flipped, each prefix it withdrew or added.
type liveSet struct {
	base    []Route
	n       int
	moved   map[int]Route
	flipped map[uint64]bool // by prefixKey
}

// at is the route at position i < n.
func (s *liveSet) at(i int) Route {
	if r, ok := s.moved[i]; ok {
		return r
	}
	return s.base[i]
}

// has reports whether p is live: as the stream last set it, or else
// whether the table holds it.
func (s *liveSet) has(p ip.Prefix) bool {
	if live, ok := s.flipped[prefixKey(p)]; ok {
		return live
	}
	k := sort.Search(len(s.base), func(k int) bool { return !s.base[k].Prefix.Less(p) })
	return k < len(s.base) && s.base[k].Prefix == p
}

// newPrefixTries is randomNewPrefix's retry budget (a variable so a test
// can exhaust it).
var newPrefixTries = 32

// randomNewPrefix draws a canonical prefix for which live is false,
// sampling the length from the same 2003-era distribution the synthetic
// tables use. The address space at every sampled length dwarfs any real
// table, so a handful of retries suffices; on exhaustion the (live)
// candidate is returned with fresh false and the announce degrades to a
// replace.
func randomNewPrefix(rng *stats.RNG, live func(ip.Prefix) bool) (p ip.Prefix, fresh bool) {
	for try := 0; try < newPrefixTries; try++ {
		r := rng.Intn(1000)
		ln := 24 // distribution mode, also the fallback
		for l, share := range lengthDistribution {
			if r < share {
				ln = l
				break
			}
			r -= share
		}
		p = ip.Prefix{Value: ip.Addr(rng.Uint64()), Len: uint8(ln)}.Canon()
		if !live(p) {
			return p, true
		}
	}
	return p, false
}

// ApplyAll returns a new table with the whole batch applied, in order.
// Withdrawing a missing prefix and re-announcing an existing one are both
// no-fail operations, mirroring BGP semantics; duplicate canonical
// prefixes in the batch resolve to the last event.
//
// The batch is merged into the sorted route slice: O(batch · log table)
// comparisons plus one copy of the routes, whatever the table's size.
func (t *Table) ApplyAll(batch []Update) *Table { return t.ApplyAllFunc(batch, nil) }

// ApplyAllFunc is ApplyAll that also reports, when changed is not nil, each
// prefix the batch adds to the table (delta +1) or removes from it (−1),
// once per prefix, as the merge finds it.
func (t *Table) ApplyAllFunc(batch []Update, changed func(p ip.Prefix, delta int)) *Table {
	if len(batch) == 0 {
		return t
	}
	evs := make([]Update, len(batch))
	for i, u := range batch {
		u.Route.Prefix = u.Route.Prefix.Canon()
		evs[i] = u
	}
	// Stable, so the last event of a run of equal prefixes is the last in
	// batch order — the one that wins.
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Route.Prefix.Less(evs[j].Route.Prefix) })
	rest := t.routes
	routes := make([]Route, 0, len(rest)+len(evs))
	for i, u := range evs {
		p := u.Route.Prefix
		if i+1 < len(evs) && evs[i+1].Route.Prefix == p {
			continue
		}
		k := sort.Search(len(rest), func(k int) bool { return !rest[k].Prefix.Less(p) })
		routes = append(routes, rest[:k]...)
		had := false
		if rest = rest[k:]; len(rest) > 0 && rest[0].Prefix == p {
			rest, had = rest[1:], true
		}
		has := u.Kind != Withdraw
		if has {
			routes = append(routes, u.Route)
		}
		if changed != nil && has != had {
			if has {
				changed(p, 1)
			} else {
				changed(p, -1)
			}
		}
	}
	return &Table{routes: append(routes, rest...)}
}

// Apply returns a new table with the single update applied.
func (t *Table) Apply(u Update) *Table {
	return t.ApplyAll([]Update{u})
}

// RandomMatchedAddr draws an address guaranteed to match some route in t,
// for building lookup workloads with a bounded miss (no-route) fraction.
func (t *Table) RandomMatchedAddr(rng *stats.RNG) ip.Addr {
	r := t.routes[rng.Intn(len(t.routes))]
	// A prefix's span is a power of two, so the mask is the modulus.
	mask := uint64(r.Prefix.LastAddr() - r.Prefix.FirstAddr())
	return r.Prefix.FirstAddr() + ip.Addr(rng.Uint64()&mask)
}

// Range is an inclusive address interval [Lo, Hi].
type Range struct {
	Lo, Hi ip.Addr
}

// Contains reports whether a falls inside the range.
func (r Range) Contains(a ip.Addr) bool { return r.Lo <= a && a <= r.Hi }

// UpdateRanges returns the sorted, coalesced address ranges whose lookup
// verdicts can change when batch is applied. An announce changes verdicts
// only for addresses inside the announced prefix, and a withdraw exposes
// the prefix's ancestors only for addresses inside the withdrawn prefix —
// so each update contributes exactly [FirstAddr, LastAddr] of its prefix,
// and caches need invalidate nothing outside the returned ranges.
func UpdateRanges(batch []Update) []Range {
	if len(batch) == 0 {
		return nil
	}
	rs := make([]Range, len(batch))
	for i, u := range batch {
		p := u.Route.Prefix.Canon()
		rs[i] = Range{Lo: p.FirstAddr(), Hi: p.LastAddr()}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Lo < rs[j].Lo })
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.Lo <= last.Hi || (last.Hi != ^ip.Addr(0) && r.Lo == last.Hi+1) {
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
		} else {
			out = append(out, r)
		}
	}
	return out
}
