// Gray-failure immunity: brownout detection and outlier ejection.
//
// The failure model here is the one the lifecycle plane cannot see: a line
// card (or the fabric path to it) that is alive, ticking, and answering
// *correctly* — just slowly. No deadline necessarily fires (the brownout
// may sit well under RequestTimeout), yet every remote lookup homed on the
// browned element drags the router-wide tail. Two mechanisms close the gap:
//
//   - Detection: every answer from a remote home — a fabric reply, which
//     carries its request's send stamp back, or a direct exchange — is one
//     round-trip sample, attributed to the home that answered. Each home
//     keeps a ring of its last grayWindow samples, whose windowed p50 the
//     health ticker scores against the fleet median: a home over
//     grayDegradeFactor × the fleet's (and grayMinRTT, so microsecond
//     jitter never trips it) for grayDegradeAfter consecutive cycles is
//     marked degraded, and one back under for grayRecoverAfter cycles
//     recovers. The ratio to the fleet is what keeps global overload from
//     faking a brownout: when every LC slows down together, the median
//     moves with them and nobody is an outlier. Degraded is a health
//     *signal*, orthogonal to the lifecycle states — a degraded LC is never
//     demoted toward Down by this plane.
//
//   - Ejection: a degraded home is ejected, which is a dispatch decision and
//     nothing else. routeFor answers a fresh miss homed on it from the
//     full-table fallback, as it answers one behind an open breaker, and
//     still puts the address on the request to the home as a probe nobody
//     waits on: its reply fills the requester's cache like any duplicate,
//     answers nobody, and keeps the home's samples flowing so that its
//     recovery is seen. The direct exchange skips an ejected home. No
//     partition moves and no generation changes: by this failure model the
//     home's verdicts are correct, only slow.
package router

import (
	"context"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The scorer's thresholds.
const (
	grayWindow        = 64                     // round-trip samples kept per home
	grayMinSamples    = 8                      // a home with fewer is not scored
	grayDegradeFactor = 3                      // over: a p50 above this multiple of the fleet median p50,
	grayMinRTT        = 200 * time.Microsecond // and at least this
	grayDegradeAfter  = 3                      // consecutive cycles over before the degraded signal sets
	grayRecoverAfter  = 3                      // and back under before it clears
)

// WithGray enables the gray-failure plane: per-home round-trip scoring with
// a fleet-relative degraded signal, and the ejection of browned-out home
// LCs, whose lookups the full-table fallback answers. Without it there is
// no sampling, no scorer work on the health ticker, no ejection and no gray
// metric family. See gray.go.
func WithGray() Option {
	return func(c *config) { c.Gray = true }
}

// lcGray is one home LC's gray-failure record. observe is called by the
// reply intake of requester LCs (any of them: mu arbitrates between the
// ψ−1 writers and the scorer); n, the quantiles and degraded are atomics,
// read by dispatch and Metrics without the lock; the streaks are the
// scorer's, under Router.mu.
type lcGray struct {
	mu   sync.Mutex
	ring [grayWindow]int64
	n    atomic.Int64 // samples ever observed

	p50, p99    atomic.Int64 // the last windowed quantiles, computed by the scorer
	degraded    atomic.Bool
	over, under int // consecutive scorer cycles over and under the threshold
}

// observe records one round trip to this home.
func (g *lcGray) observe(ns int64) {
	g.mu.Lock()
	g.ring[g.n.Load()%grayWindow] = ns
	g.n.Add(1)
	g.mu.Unlock()
}

// window copies the live samples into buf (cold monitor path).
func (g *lcGray) window(buf []int64) []int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append(buf[:0], g.ring[:min(g.n.Load(), grayWindow)]...)
}

// ejected reports whether home is ejected: degraded, on a router that scores
// round trips.
func (r *Router) ejected(home int) bool {
	return r.gray != nil && r.gray[home].degraded.Load()
}

// quantileNS picks the q-quantile of a sorted sample window.
func quantileNS(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// maybeGrayLocked is the health ticker's gray-failure hook: recompute every
// home LC's windowed quantiles, score them against the fleet median, and
// set or clear the degraded signal. r.mu must be held.
func (r *Router) maybeGrayLocked() {
	if r.gray == nil {
		return
	}
	var scored, p50s []int64 // scored[k] is the LC whose p50 is p50s[k]
	buf := make([]int64, 0, grayWindow)
	for i, g := range r.gray {
		if buf = g.window(buf); len(buf) == 0 {
			continue
		}
		slices.Sort(buf)
		p50 := quantileNS(buf, 0.50)
		g.p50.Store(p50)
		g.p99.Store(quantileNS(buf, 0.99))
		if len(buf) < grayMinSamples {
			continue
		}
		if st := r.health[i].Load(); st == LCDown || st == LCDraining {
			continue
		}
		scored, p50s = append(scored, int64(i)), append(p50s, p50)
	}
	if len(scored) < 2 {
		// With fewer than two scored homes there is no fleet to compare
		// against; a single slow LC is indistinguishable from a slow
		// fabric, so the scorer abstains rather than guess.
		return
	}
	fleet := slices.Clone(p50s)
	slices.Sort(fleet)
	fleetP50 := quantileNS(fleet, 0.5)

	for k, i := range scored {
		g, p50 := r.gray[i], p50s[k]
		if p50 > grayDegradeFactor*fleetP50 && p50 >= int64(grayMinRTT) {
			g.over, g.under = g.over+1, 0
			if !g.degraded.Load() && g.over >= grayDegradeAfter {
				g.degraded.Store(true)
				r.grayDegrades.Add(1)
				r.grayLog("degraded", slog.Int64("lc", i), slog.Int64("p50_ns", p50), slog.Int64("fleet_p50_ns", fleetP50))
			}
		} else {
			g.under, g.over = g.under+1, 0
			if g.degraded.Load() && g.under >= grayRecoverAfter {
				g.degraded.Store(false)
				r.grayRecovers.Add(1)
				r.grayLog("recovered", slog.Int64("lc", i), slog.Int64("p50_ns", p50))
			}
		}
	}
}

// grayLog emits a gray-failure lifecycle record through the tracing
// plane's structured-log sink when one is installed (WithLogger).
func (r *Router) grayLog(event string, attrs ...slog.Attr) {
	if r.cfg.TraceLogger == nil {
		return
	}
	r.cfg.TraceLogger.LogAttrs(context.Background(), slog.LevelWarn, "spal gray "+event, attrs...)
}

// LCGrayStatus is one home LC's gray-failure record: whether it is degraded,
// and so ejected, how many fabric round trips have been attributed to it,
// and its latest windowed quantiles.
type LCGrayStatus struct {
	LC             int
	Degraded       bool
	Samples        int64
	RTTp50, RTTp99 time.Duration
}

// GrayReport is the router-wide gray-failure snapshot behind the gray
// metric families and the CLI summary line.
type GrayReport struct {
	// Degrades / Recovers count degraded-signal transitions: a home is
	// ejected from one to the next.
	Degrades, Recovers int64
	// EjectServed counts lookups answered from the fallback at dispatch
	// because their home LC was ejected.
	EjectServed int64
	LCs         []LCGrayStatus
}

// Gray returns the current gray-failure snapshot. Zero-valued when the
// plane is disabled.
func (r *Router) Gray() GrayReport {
	if r.gray == nil {
		return GrayReport{}
	}
	rep := GrayReport{Degrades: r.grayDegrades.Load(), Recovers: r.grayRecovers.Load(), EjectServed: r.ejectServed.Load()}
	for i, g := range r.gray {
		rep.LCs = append(rep.LCs, LCGrayStatus{
			LC:       i,
			Degraded: g.degraded.Load(),
			Samples:  g.n.Load(),
			RTTp50:   time.Duration(g.p50.Load()),
			RTTp99:   time.Duration(g.p99.Load()),
		})
	}
	return rep
}
