package cache

import (
	"slices"
	"testing"

	"spal/internal/ip"
	"spal/internal/rtable"
	"spal/internal/stats"
)

// model is a deliberately naive LR-cache with the same externally visible
// semantics as Cache (LRU policy, hard γ allocation, W blocks, victim
// cache, flush), written with maps and linear scans so its correctness is
// obvious. The random-operation test below drives both implementations in
// lockstep and requires identical observable behaviour — a model-checking
// net over the optimized implementation.
type model struct {
	cfg    Config
	sets   []map[ip.Addr]*mEntry
	order  []ip.Addr // global LRU order, most recent last (addresses unique)
	victim []mVictim
	clock  int
}

type mEntry struct {
	waiting bool
	origin  Origin
	nextHop rtable.NextHop
	waiters []int64
	touched int
}

type mVictim struct {
	addr    ip.Addr
	origin  Origin
	nextHop rtable.NextHop
	touched int
}

func newModel(cfg Config) *model {
	m := &model{cfg: cfg}
	for i := 0; i < cfg.Blocks/cfg.Assoc; i++ {
		m.sets = append(m.sets, map[ip.Addr]*mEntry{})
	}
	return m
}

func (m *model) set(a ip.Addr) map[ip.Addr]*mEntry {
	return m.sets[int(a)&(len(m.sets)-1)]
}

func (m *model) classCount(set map[ip.Addr]*mEntry, o Origin) int {
	n := 0
	for _, e := range set {
		if e.origin == o {
			n++
		}
	}
	return n
}

// lruVictim returns the least recently touched non-waiting entry of the
// class (or of any class when restrict is false), or zero when none.
func (m *model) lruVictim(set map[ip.Addr]*mEntry, class Origin, restrict bool) (ip.Addr, bool) {
	var best ip.Addr
	bestT := int(^uint(0) >> 1)
	found := false
	for a, e := range set {
		if e.waiting || (restrict && e.origin != class) {
			continue
		}
		if e.touched < bestT {
			best, bestT, found = a, e.touched, true
		}
	}
	return best, found
}

func (m *model) quota(o Origin) int {
	remQ := m.cfg.Assoc * m.cfg.MixPercent / 100
	if o == REM {
		return remQ
	}
	return m.cfg.Assoc - remQ
}

// chooseSlot mirrors Cache.chooseVictim: returns the address to evict
// (evict=true) or indicates a free slot (evict=false), or ok=false when
// the insert must be declined.
func (m *model) chooseSlot(set map[ip.Addr]*mEntry, class Origin) (victim ip.Addr, evict, ok bool) {
	if m.classCount(set, class) >= m.quota(class) {
		v, found := m.lruVictim(set, class, true)
		return v, true, found
	}
	if len(set) < m.cfg.Assoc {
		return 0, false, true
	}
	other := LOC
	if class == LOC {
		other = REM
	}
	if m.classCount(set, other) > m.quota(other) {
		if v, found := m.lruVictim(set, other, true); found {
			return v, true, found
		}
	}
	v, found := m.lruVictim(set, 0, false)
	return v, true, found
}

func (m *model) evictToVictim(a ip.Addr, e *mEntry) {
	if m.cfg.VictimBlocks == 0 {
		return
	}
	m.clock++
	v := mVictim{addr: a, origin: e.origin, nextHop: e.nextHop, touched: m.clock}
	if len(m.victim) < m.cfg.VictimBlocks {
		m.victim = append(m.victim, v)
		return
	}
	oldest := 0
	for i := range m.victim {
		if m.victim[i].touched < m.victim[oldest].touched {
			oldest = i
		}
	}
	m.victim[oldest] = v
}

func (m *model) probe(a ip.Addr) ProbeResult {
	set := m.set(a)
	if e, ok := set[a]; ok {
		if e.waiting {
			return ProbeResult{Kind: HitWaiting}
		}
		m.clock++
		e.touched = m.clock
		return ProbeResult{Kind: Hit, NextHop: e.nextHop, Origin: e.origin}
	}
	for i := range m.victim {
		if m.victim[i].addr == a {
			v := m.victim[i]
			res := ProbeResult{Kind: HitVictim, NextHop: v.nextHop, Origin: v.origin}
			// Promote: insert back, demoting the chosen slot into this
			// victim position.
			victim, evict, ok := m.chooseSlot(set, v.origin)
			if !ok {
				m.clock++
				m.victim[i].touched = m.clock
				return res
			}
			if evict {
				e := set[victim]
				delete(set, victim)
				m.clock++
				m.victim[i] = mVictim{addr: victim, origin: e.origin, nextHop: e.nextHop, touched: m.clock}
			} else {
				m.victim = append(m.victim[:i], m.victim[i+1:]...)
			}
			m.clock++
			set[a] = &mEntry{origin: v.origin, nextHop: v.nextHop, touched: m.clock}
			return res
		}
	}
	return ProbeResult{Kind: Miss}
}

func (m *model) recordMiss(a ip.Addr, origin Origin, waiter int64) bool {
	set := m.set(a)
	victim, evict, ok := m.chooseSlot(set, origin)
	if !ok {
		return false
	}
	if evict {
		e := set[victim]
		delete(set, victim)
		m.evictToVictim(victim, e)
	}
	m.clock++
	set[a] = &mEntry{waiting: true, origin: origin, waiters: []int64{waiter}, touched: m.clock}
	return true
}

func (m *model) addWaiter(a ip.Addr, w int64) {
	m.set(a)[a].waiters = append(m.set(a)[a].waiters, w)
}

func (m *model) fill(a ip.Addr, nh rtable.NextHop, origin Origin) []int64 {
	set := m.set(a)
	if e, ok := set[a]; ok {
		if !e.waiting {
			e.nextHop = nh
			e.origin = origin
			return nil
		}
		w := e.waiters
		e.waiting = false
		e.waiters = nil
		e.nextHop = nh
		e.origin = origin
		m.clock++
		e.touched = m.clock
		return w
	}
	if victim, evict, ok := m.chooseSlot(set, origin); ok {
		if evict {
			e := set[victim]
			delete(set, victim)
			m.evictToVictim(victim, e)
		}
		m.clock++
		set[a] = &mEntry{origin: origin, nextHop: nh, touched: m.clock}
	}
	return nil
}

// dropWhere removes every complete entry, in the sets and the victim cache,
// that drop selects; waiting entries are never offered. It returns how many
// went.
func (m *model) dropWhere(drop func(a ip.Addr, nh rtable.NextHop) bool) int {
	n := 0
	for _, set := range m.sets {
		for a, e := range set {
			if !e.waiting && drop(a, e.nextHop) {
				delete(set, a)
				n++
			}
		}
	}
	kept := m.victim[:0]
	for _, v := range m.victim {
		if drop(v.addr, v.nextHop) {
			n++
		} else {
			kept = append(kept, v)
		}
	}
	m.victim = kept
	return n
}

func (m *model) invalidateRange(lo, hi ip.Addr) int {
	return m.dropWhere(func(a ip.Addr, _ rtable.NextHop) bool { return lo <= a && a <= hi })
}

func (m *model) auditEntries(visit func(a ip.Addr, nh rtable.NextHop) bool) int {
	return m.dropWhere(func(a ip.Addr, nh rtable.NextHop) bool { return !visit(a, nh) })
}

func (m *model) flush() []int64 {
	var orphans []int64
	for i := range m.sets {
		for _, e := range m.sets[i] {
			orphans = append(orphans, e.waiters...)
		}
		m.sets[i] = map[ip.Addr]*mEntry{}
	}
	m.victim = nil
	return orphans
}

// audited is one AuditEntries visit.
type audited struct {
	a  ip.Addr
	nh rtable.NextHop
}

// TestModelEquivalence drives Cache and the naive model with the same
// random operation stream and demands identical observable outcomes. The
// stream holds the miss protocol of both kinds of caller — reserve then fill
// (RecordMiss here, for its waiting list), and the home LC's fill with no
// reservation — and the two operations that take blocks out of the middle
// of the victim cache, range invalidation and the audit's eviction.
func TestModelEquivalence(t *testing.T) {
	for _, mix := range []int{0, 25, 50, 100} {
		for _, victims := range []int{0, 1, 2, 8} {
			cfg := Config{Blocks: 16, Assoc: 4, VictimBlocks: victims, MixPercent: mix, Policy: LRU}
			c := New(cfg)
			m := newModel(cfg)
			rng := stats.NewRNG(uint64(mix*7 + victims))
			pendingC := map[ip.Addr]bool{}
			for op := 0; op < 30000; op++ {
				a := ip.Addr(rng.Intn(48))
				switch rng.Intn(10) {
				case 9:
					switch k := rng.Intn(50); {
					case k < 4: // a range of up to eight addresses
						lo := ip.Addr(rng.Intn(48))
						hi := lo + ip.Addr(rng.Intn(8))
						if nc, nm := c.InvalidateRange(lo, hi), m.invalidateRange(lo, hi); nc != nm {
							t.Fatalf("mix=%d vic=%d op %d: InvalidateRange(%d, %d) dropped %d, model %d", mix, victims, op, lo, hi, nc, nm)
						}
						continue
					case k < 7: // an audit that evicts about a fifth of what it sees
						salt := rng.Intn(5)
						var sawC, sawM []audited
						visit := func(saw *[]audited) func(ip.Addr, rtable.NextHop) bool {
							return func(a ip.Addr, nh rtable.NextHop) bool {
								*saw = append(*saw, audited{a, nh})
								return (int(a)+int(nh)+salt)%5 != 0
							}
						}
						nc, nm := c.AuditEntries(visit(&sawC)), m.auditEntries(visit(&sawM))
						byAddr := func(x, y audited) int { return int(x.a) - int(y.a) }
						slices.SortFunc(sawC, byAddr)
						slices.SortFunc(sawM, byAddr)
						if nc != nm || !slices.Equal(sawC, sawM) {
							t.Fatalf("mix=%d vic=%d op %d: audit evicted %d of %v, model %d of %v", mix, victims, op, nc, sawC, nm, sawM)
						}
						continue
					}
					if rng.Intn(50) == 0 { // occasional flush
						// The same parked packets, as a multiset: the
						// model's maps have no block order
						// (TestFlushReturnsOrphans pins Cache's).
						oc, om := c.Flush(), m.flush()
						slices.Sort(oc)
						slices.Sort(om)
						if !slices.Equal(oc, om) {
							t.Fatalf("mix=%d vic=%d op %d: flush orphans %v != model %v", mix, victims, op, oc, om)
						}
						for k := range pendingC {
							delete(pendingC, k)
						}
						continue
					}
					fallthrough
				default:
					rc := c.Probe(a)
					rm := m.probe(a)
					if rc.Kind != rm.Kind || rc.NextHop != rm.NextHop || rc.Origin != rm.Origin {
						t.Fatalf("mix=%d vic=%d op %d addr %d: probe %+v != model %+v",
							mix, victims, op, a, rc, rm)
					}
					switch rc.Kind {
					case Miss:
						origin := Origin(rng.Intn(2))
						if rng.Intn(3) == 0 { // the home LC's path: no reservation
							nh := rtable.NextHop(rng.Intn(9))
							if wc, wm := c.Fill(a, nh, origin), m.fill(a, nh, origin); wc != nil || wm != nil {
								t.Fatalf("mix=%d vic=%d op %d: unreserved fill released %v, model %v", mix, victims, op, wc, wm)
							}
							continue
						}
						okC := c.RecordMiss(a, origin, int64(op))
						okM := m.recordMiss(a, origin, int64(op))
						if okC != okM {
							t.Fatalf("mix=%d vic=%d op %d: RecordMiss %v != %v", mix, victims, op, okC, okM)
						}
						if okC {
							pendingC[a] = true
							// Fill immediately half the time, later otherwise.
							if rng.Bool(0.5) {
								nh := rtable.NextHop(rng.Intn(9))
								fo := Origin(rng.Intn(2))
								wc := c.Fill(a, nh, fo)
								wm := m.fill(a, nh, fo)
								if len(wc) != len(wm) {
									t.Fatalf("fill waiters %v != %v", wc, wm)
								}
								delete(pendingC, a)
							}
						}
					case HitWaiting:
						c.AddWaiter(a, int64(op))
						m.addWaiter(a, int64(op))
						if rng.Bool(0.3) {
							nh := rtable.NextHop(rng.Intn(9))
							fo := Origin(rng.Intn(2))
							wc := c.Fill(a, nh, fo)
							wm := m.fill(a, nh, fo)
							if len(wc) != len(wm) {
								t.Fatalf("fill waiters %v != %v", wc, wm)
							}
							delete(pendingC, a)
						}
					}
				}
			}
		}
	}
}
