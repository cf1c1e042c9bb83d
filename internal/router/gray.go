// Gray-failure immunity: brownout detection and outlier ejection.
//
// The failure model here is the one the lifecycle and integrity planes
// cannot see: a line card (or the fabric path to it) that is alive,
// heartbeating, and answering *correctly* — just slowly. No deadline
// necessarily fires (the brownout may sit well under RequestTimeout), no
// scrub mismatch appears, yet every remote lookup homed on the browned
// element drags the router-wide tail. Two mechanisms close the gap:
//
//   - Detection: every fabric reply whose request was sent exactly once
//     carries an unambiguous round-trip sample, attributed to the home LC
//     that answered. A per-home ring of recent samples (EWMA for the
//     trend, windowed quantiles for decisions) is scored on the health
//     ticker against the fleet median: an LC whose windowed p50 exceeds
//     DegradeFactor × the fleet median (and an absolute floor, so
//     microsecond jitter never trips it) for DegradeAfter consecutive
//     cycles is marked degraded. The ratio-to-fleet comparison is what
//     keeps global overload from faking a brownout: when every LC slows
//     down together, the median moves with them and nobody is an outlier.
//     Degraded is a health *signal*, orthogonal to the lifecycle states —
//     a degraded LC is never demoted toward Down by this plane.
//
//   - Ejection: when detection marks an LC degraded, the router steers
//     cacheable traffic off it using the machinery quarantine already
//     proved: the generation fence (fenceLocked) pins the ejected LC's
//     replies out of peer caches, while new remote lookups homed on it are
//     answered from the router-wide full-table fallback — the same
//     always-current authority the deadline/retry plane trusts — at
//     dispatch time (routeFor). The request is still sent, so round-trip
//     samples keep flowing and recovery stays observable: the waitlist
//     flips to answered, its waiters gone but the entry kept so the
//     primary reply is recognized when it lands (counted late and
//     suppressed — exactly one owner answers) or counted lost when its
//     deadline passes first. When the LC's score recovers for
//     RecoverAfter consecutive cycles it is restored: the flag clears and
//     a generation catch-up lifts the pin. No partition moves in either
//     direction — ejection is deliberately cheaper and more reversible
//     than re-homing.
package router

import (
	"context"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spal/internal/cache"
	"spal/internal/ip"
	"spal/internal/tracing"
)

// GrayPolicy configures the gray-failure subsystem. The zero value
// disables it entirely: no round-trip sampling, no scorer work on the
// health ticker, no ejection, no new metric families.
type GrayPolicy struct {
	// Enabled turns on round-trip sampling, the per-home latency scorer
	// (the degraded signal and the RTT metrics) and the ejection of
	// degraded home LCs.
	Enabled bool
	// Window is the per-home ring of retained round-trip samples the
	// windowed quantiles are computed over. <= 0 selects the default (64).
	Window int
	// MinSamples is how many samples a home LC's window must hold before
	// it is scored at all; fewer and the LC is skipped this cycle. <= 0
	// selects the default (8).
	MinSamples int
	// DegradeFactor: an LC is "over" when its windowed p50 exceeds this
	// multiple of the fleet median p50. <= 1 selects the default (3).
	DegradeFactor float64
	// MinRTT is the absolute degradation floor: an LC whose p50 is below
	// it is never marked degraded no matter the ratio, so microsecond
	// jitter between healthy in-process LCs cannot trip the scorer. <= 0
	// selects the default (200µs).
	MinRTT time.Duration
	// DegradeAfter / RecoverAfter are the consecutive scorer cycles an LC
	// must be over (resp. back under) the threshold before the degraded
	// signal sets (resp. clears). <= 0 selects the defaults (3 and 3).
	DegradeAfter int
	RecoverAfter int
}

// DefaultGrayPolicy enables detection and ejection with the default
// thresholds.
func DefaultGrayPolicy() GrayPolicy {
	return GrayPolicy{Enabled: true}
}

func normalizeGray(p GrayPolicy) GrayPolicy {
	if !p.Enabled {
		return GrayPolicy{}
	}
	if p.Window <= 0 {
		p.Window = 64
	}
	if p.MinSamples <= 0 {
		p.MinSamples = 8
	}
	if p.MinSamples > p.Window {
		p.MinSamples = p.Window
	}
	if p.DegradeFactor <= 1 {
		p.DegradeFactor = 3
	}
	if p.MinRTT <= 0 {
		p.MinRTT = 200 * time.Microsecond
	}
	if p.DegradeAfter <= 0 {
		p.DegradeAfter = 3
	}
	if p.RecoverAfter <= 0 {
		p.RecoverAfter = 3
	}
	return p
}

// WithGray configures the gray-failure subsystem: per-home round-trip
// scoring with a fleet-relative degraded signal, and outlier ejection of
// browned-out home LCs, whose lookups the full-table fallback answers. Pass DefaultGrayPolicy() for the defaults. See gray.go.
func WithGray(p GrayPolicy) Option {
	return func(c *config) { c.Gray = p }
}

// lcRTT holds one home LC's fabric round-trip samples. observe is called
// by requester LCs' reply handlers (any of them — the mutex is the arbitration
// between ψ−1 writers and the monitor's reader); the quantile gauges are
// atomics so Metrics reads them without the lock.
type lcRTT struct {
	mu   sync.Mutex
	ring []int64
	n    int64 // total samples ever observed
	idx  int

	ewma atomic.Int64 // ns, α = 1/8
	p50  atomic.Int64 // last windowed quantiles, computed by the scorer
	p99  atomic.Int64
}

// observe records one unambiguous round trip (request sent exactly once).
func (s *lcRTT) observe(ns int64) {
	s.mu.Lock()
	s.ring[s.idx] = ns
	s.idx = (s.idx + 1) % len(s.ring)
	s.n++
	s.mu.Unlock()
	for {
		old := s.ewma.Load()
		nv := ns
		if old != 0 {
			nv = old + (ns-old)/8
		}
		if s.ewma.CompareAndSwap(old, nv) {
			return
		}
	}
}

// window copies the live samples into buf (cold monitor path).
func (s *lcRTT) window(buf []int64) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := int(s.n)
	if k > len(s.ring) {
		k = len(s.ring)
	}
	return append(buf[:0], s.ring[:k]...)
}

// lcGray is one home LC's gray-failure state. degraded/ejected are
// atomics (set by the monitor, read by dispatch paths and Metrics); the
// streaks are monitor-only under r.mu.
type lcGray struct {
	degraded    atomic.Bool
	ejected     atomic.Bool
	overStreak  int
	underStreak int
}

// quantileNS picks the q-quantile of a sorted sample window.
func quantileNS(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// maybeGrayLocked is the health ticker's gray-failure hook: recompute
// every home LC's windowed quantiles, rescore them against the fleet
// median, and drive the degraded signal and its eject/restore side
// effects. r.mu must be held.
func (r *Router) maybeGrayLocked(now time.Time) {
	if !r.grayPol.Enabled {
		return
	}
	type scored struct {
		i   int
		p50 int64
	}
	var valid []scored
	buf := make([]int64, 0, r.grayPol.Window)
	for i := range r.lcs {
		buf = r.rtt[i].window(buf)
		if len(buf) == 0 {
			continue
		}
		sort.Slice(buf, func(a, b int) bool { return buf[a] < buf[b] })
		p50, p99 := quantileNS(buf, 0.50), quantileNS(buf, 0.99)
		r.rtt[i].p50.Store(p50)
		r.rtt[i].p99.Store(p99)
		if len(buf) < r.grayPol.MinSamples {
			continue
		}
		if st := r.life[i].state.Load(); st == LCDown || st == LCDraining {
			continue
		}
		valid = append(valid, scored{i, p50})
	}
	if len(valid) < 2 {
		// With fewer than two scored homes there is no fleet to compare
		// against; a single slow LC is indistinguishable from a slow
		// fabric, so the scorer abstains rather than guess.
		return
	}
	meds := make([]int64, len(valid))
	for k, v := range valid {
		meds[k] = v.p50
	}
	sort.Slice(meds, func(a, b int) bool { return meds[a] < meds[b] })
	fleetP50 := quantileNS(meds, 0.5)

	for _, v := range valid {
		g := r.gray[v.i]
		over := float64(v.p50) > r.grayPol.DegradeFactor*float64(fleetP50) &&
			v.p50 >= int64(r.grayPol.MinRTT)
		if over {
			g.overStreak++
			g.underStreak = 0
			if !g.degraded.Load() && g.overStreak >= r.grayPol.DegradeAfter {
				g.degraded.Store(true)
				r.grayDegrades.Add(1)
				r.grayLog("degraded", slog.Int("lc", v.i),
					slog.Int64("p50_ns", v.p50), slog.Int64("fleet_p50_ns", fleetP50))
				if !g.ejected.Load() {
					r.ejectLocked(v.i)
				}
			}
		} else {
			g.underStreak++
			g.overStreak = 0
			if g.degraded.Load() && g.underStreak >= r.grayPol.RecoverAfter {
				g.degraded.Store(false)
				r.grayRecovers.Add(1)
				r.grayLog("recovered", slog.Int("lc", v.i), slog.Int64("p50_ns", v.p50))
				if g.ejected.Load() {
					r.restoreEjectedLocked(v.i)
				}
			}
		}
	}
}

// ejectLocked steers cacheable traffic off a browned-out home LC by
// reusing the quarantine generation pin (fenceLocked): the ejected LC's
// replies remain deliverable but never enter a peer cache. Dispatch-time
// steering (the fallback answer for lookups homed on it) keys off the
// ejected flag directly, in routeFor. r.mu must be held.
func (r *Router) ejectLocked(i int) {
	r.gray[i].ejected.Store(true)
	r.ejections.Add(1)
	r.grayLog("eject", slog.Int("lc", i))
	r.fenceLocked()
}

// restoreEjectedLocked lifts an ejection: the flag clears, so the LC's
// replies carry its real generation again — the router's, which the fence
// never held it behind — and are cacheable, and dispatch stops steering
// around it. r.mu must be held.
func (r *Router) restoreEjectedLocked(i int) {
	r.gray[i].ejected.Store(false)
	r.restores.Add(1)
	r.grayLog("restore", slog.Int("lc", i))
}

// genPinned reports whether LC id is fenced behind the router's
// generation: quarantined (integrity) or ejected (gray failure). A pinned
// LC's replies leave stamped with generation zero (see stampGen), which is
// exactly how peers keep them out of their caches; pinned replies are
// also final — the fence will not lift by re-driving (see
// fillStaleRelease).
func (r *Router) genPinned(id int) bool {
	if r.life[id].state.Load() == LCQuarantined {
		return true
	}
	return r.grayPol.Enabled && r.gray[id].ejected.Load()
}

// ejectResolve answers every waiter parked on addr, whose home is ejected,
// from the full-table fallback and flips the waitlist to answered:
// waiters are emptied (each delivered a ServedByFallback verdict) but the
// entry stays pending with its deadline armed, so the primary fabric reply
// is recognized and suppressed when it lands — or counted lost when the
// deadline passes first. The fallback always reflects the current
// generation (see fallbackLookup), so the verdict is correct under churn.
func (r *Router) ejectResolve(lc *lineCard, addr ip.Addr, wl *waitlist) {
	nh, ok := r.fallbackLookup(addr)
	lc.fill(addr, nh, cache.REM)
	lc.nwaiters -= int64(len(wl.locals) + len(wl.remotes))
	wl.tr.Record(tracing.EvFill, int64(cache.REM), int64(ServedByFallback))
	r.answer(lc, wl, Verdict{Addr: addr, NextHop: nh, OK: ok, ServedBy: ServedByFallback}, 0, lc.gen)
	wl.dropWaiters() // the entry lingers; it must not pin whom it answered
	wl.tr = nil
	wl.trLate = false
	wl.answered = true
}

// ejectAnswerLocal serves a local lookup that would have coalesced onto an
// answered waitlist (see joinLocal) from the fallback immediately.
// Rare: ejectResolve's fill put the value in the cache, so stragglers
// normally hit there first.
func (r *Router) ejectAnswerLocal(lc *lineCard, addr ip.Addr, w localWaiter) {
	nh, ok := r.fallbackLookup(addr)
	if w.tr != nil {
		w.tr.Record(tracing.EvFill, int64(cache.REM), int64(ServedByFallback))
		r.finishTrace(w.tr, ServedByFallback, ok)
	}
	r.finish(lc, ServedByFallback, w.bd.start, traceID(w.tr))
	r.deliver(w, Verdict{Addr: addr, NextHop: nh, OK: ok, ServedBy: ServedByFallback})
}

// grayLog emits a gray-failure lifecycle record through the tracing
// plane's structured-log sink when one is installed (WithLogger).
func (r *Router) grayLog(event string, attrs ...slog.Attr) {
	if r.cfg.TraceLogger == nil {
		return
	}
	r.cfg.TraceLogger.LogAttrs(context.Background(), slog.LevelWarn, "spal gray "+event, attrs...)
}

// LCGrayStatus is one home LC's gray-failure record.
type LCGrayStatus struct {
	LC       int
	Degraded bool
	Ejected  bool
	// Samples is how many fabric round trips have been attributed to this
	// home LC; RTTp50/RTTp99 are its latest windowed quantiles and EWMA
	// the smoothed trend.
	Samples int64
	RTTp50  time.Duration
	RTTp99  time.Duration
	EWMA    time.Duration
}

// GrayReport is the router-wide gray-failure snapshot behind the
// spal_router_eject_* / degraded metrics and the CLI summary line.
type GrayReport struct {
	// Degrades / Recovers count degraded-signal transitions; Ejections /
	// Restores count the eject lifecycle (a restore requires a recover,
	// so Restores <= Recovers).
	Degrades  int64
	Recovers  int64
	Ejections int64
	Restores  int64
	// EjectServed counts lookups answered at dispatch time because their
	// home LC was ejected. Each left its fabric request in flight:
	// PrimaryLate are those whose reply landed (the suppressed
	// duplicates), PrimaryLost those whose deadline passed first.
	EjectServed int64
	PrimaryLate int64
	PrimaryLost int64
	LCs         []LCGrayStatus
}

// Gray returns the current gray-failure snapshot. Zero-valued when the
// subsystem is disabled.
func (r *Router) Gray() GrayReport {
	rep := GrayReport{}
	if !r.grayPol.Enabled {
		return rep
	}
	rep.Degrades = r.grayDegrades.Load()
	rep.Recovers = r.grayRecovers.Load()
	rep.Ejections = r.ejections.Load()
	rep.Restores = r.restores.Load()
	rep.EjectServed = r.ejectServed.Load()
	rep.PrimaryLate = r.ejectLate.Load()
	rep.PrimaryLost = r.ejectLost.Load()
	for i := range r.lcs {
		st := r.rtt[i]
		rep.LCs = append(rep.LCs, LCGrayStatus{
			LC:       i,
			Degraded: r.gray[i].degraded.Load(),
			Ejected:  r.gray[i].ejected.Load(),
			Samples:  func() int64 { st.mu.Lock(); defer st.mu.Unlock(); return st.n }(),
			RTTp50:   time.Duration(st.p50.Load()),
			RTTp99:   time.Duration(st.p99.Load()),
			EWMA:     time.Duration(st.ewma.Load()),
		})
	}
	return rep
}
