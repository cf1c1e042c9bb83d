// Fault injection for the inter-LC message path. The paper assumes a
// lossless low-latency switching fabric; a production forwarding plane
// cannot. A FaultInjector intercepts every lookup request and reply as it
// enters the fabric and may drop, delay, or duplicate it — the three
// failure modes of a real crossbar under congestion or a flaky backplane
// link. The router's deadline/retry/fallback machinery (see router.go)
// must yield a correct verdict for every lookup no matter what the
// injector does; the chaos tests drive exactly that.
package router

import (
	"sync"
	"sync/atomic"
	"time"

	"spal/internal/ip"
)

// FabricMessage describes one lookup message about to cross the fabric, as
// seen by a FaultInjector. Only lookups cross it: the health monitor reads
// each LC's tick stamp directly (see lifecycle.go), so no injector can make
// a running LC look dead or a dead one alive.
type FabricMessage struct {
	// Reply is false for a lookup request travelling to a home LC, true
	// for a result travelling back to the requester.
	Reply bool
	// From and To are line-card ids. For a request, From is the
	// requester; for a reply, From is the responding home LC.
	From, To int
	// Addr is the destination address being resolved.
	Addr ip.Addr
}

// FaultDecision is an injector's verdict for one fabric message.
type FaultDecision struct {
	// Drop suppresses the message entirely (takes precedence over the
	// other fields).
	Drop bool
	// Duplicate delivers the message twice.
	Duplicate bool
	// Delay postpones delivery (of every copy) by this much.
	Delay time.Duration
}

// FaultInjector decides the fate of each fabric message. It is called
// by the line cards' owners concurrently and must be safe for concurrent
// use. A nil injector (the default) is a perfect fabric.
type FaultInjector func(FabricMessage) FaultDecision

// FaultConfig parameterizes the deterministic injector built by
// SeededFaults.
type FaultConfig struct {
	// Seed drives the decision stream.
	Seed uint64
	// DropRate, DupRate and DelayRate are per-message probabilities in
	// [0, 1].
	DropRate, DupRate, DelayRate float64
	// MaxDelay bounds injected delays; delayed messages wait a
	// deterministic duration in [0, MaxDelay). Zero disables delays even
	// when DelayRate > 0.
	MaxDelay time.Duration
}

// splitmix64 is the same finalizer stats.RNG uses, stateless so the
// injector can hash a shared counter without locking.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SeededFaults returns an injector whose decision stream is a pure
// function of cfg.Seed: the i-th fabric message (in injector call order)
// always receives the i-th decision. Which message draws which decision
// depends on goroutine interleaving only — no longer on map order: a line
// card's sweep, re-drive and crash replay visit its in-flight misses in an
// order fixed by the operations performed (see pendingTable) — and the
// aggregate fault mix is exactly reproducible, which is what the chaos
// tests and the spal-router -fault-rate demo need.
func SeededFaults(cfg FaultConfig) FaultInjector {
	var n atomic.Uint64
	return func(FabricMessage) FaultDecision {
		h := splitmix64(cfg.Seed ^ n.Add(1))
		// Three independent 21-bit draws from one 64-bit hash.
		draw := func(shift uint) float64 {
			return float64((h>>shift)&0x1f_ffff) / float64(1<<21)
		}
		var d FaultDecision
		d.Drop = draw(0) < cfg.DropRate
		d.Duplicate = draw(21) < cfg.DupRate
		if cfg.MaxDelay > 0 && draw(42) < cfg.DelayRate {
			d.Delay = time.Duration(splitmix64(h) % uint64(cfg.MaxDelay))
		}
		return d
	}
}

// LinkFaultConfig parameterizes one directed fabric link (from → to) of
// a LinkFaults matrix. The zero value is a clean link.
type LinkFaultConfig struct {
	// DropRate, DupRate and DelayRate are per-message probabilities in
	// [0, 1] for messages traversing this directed link.
	DropRate, DupRate, DelayRate float64
	// Delay is the base injected delay when a DelayRate draw fires (or
	// always, when DelayRate is 0 and Delay > 0 — a deterministic slow
	// link). Jitter adds a seeded uniform extra in [0, Jitter).
	Delay, Jitter time.Duration
}

// LinkFaults is a per-directed-link fault matrix: each (from, to) pair
// can carry its own drop/delay/jitter mix, so A→B can be fully
// partitioned or browned out while B→A stays clean — the asymmetric
// gray failures real fabrics exhibit. Like any injector it sees lookup
// messages only, never the health monitor's view of an LC. Decisions are
// drawn from a seeded counter stream like SeededFaults, so a run is
// replayable in aggregate. Safe for concurrent use; links and brownouts may
// be reconfigured while the router is live.
type LinkFaults struct {
	// Nominal is the baseline one-way fabric latency used to scale
	// SlowLC brownouts: a browned-out LC's links add
	// (factor − 1) × Nominal of delay per message, modelling a link
	// running at 1/factor of its clean speed. Defaults to 100µs when
	// left zero at first use.
	Nominal time.Duration

	seed uint64
	n    atomic.Uint64

	mu    sync.RWMutex
	links map[[2]int]LinkFaultConfig
	slow  map[int]float64
}

// NewLinkFaults returns an empty (perfect-fabric) matrix whose decision
// stream is seeded like SeededFaults.
func NewLinkFaults(seed uint64) *LinkFaults {
	return &LinkFaults{seed: seed}
}

// SetLink installs cfg on the directed link from → to, replacing any
// previous configuration. A zero cfg restores the link to clean.
func (lf *LinkFaults) SetLink(from, to int, cfg LinkFaultConfig) {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	if lf.links == nil {
		lf.links = make(map[[2]int]LinkFaultConfig)
	}
	lf.links[[2]int{from, to}] = cfg
}

// SlowLC puts line card i into a sustained brownout: every message to or
// from it is delayed by (factor − 1) × Nominal, i.e. its fabric links run at
// 1/factor speed in both directions. factor ≤ 1 clears the brownout. The
// LC's own ticks are untouched — a browned-out LC still looks alive to the
// lifecycle monitor, which is exactly what makes the failure "gray".
func (lf *LinkFaults) SlowLC(i int, factor float64) {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	if factor <= 1 {
		delete(lf.slow, i)
		return
	}
	if lf.slow == nil {
		lf.slow = make(map[int]float64)
	}
	lf.slow[i] = factor
}

// Injector returns the FaultInjector view of the matrix, suitable for
// WithFaultInjector. The injector reads the live matrix, so SetLink and
// SlowLC calls take effect on subsequent messages.
func (lf *LinkFaults) Injector() FaultInjector {
	return func(m FabricMessage) FaultDecision {
		var d FaultDecision
		lf.mu.RLock()
		cfg, hasLink := lf.links[[2]int{m.From, m.To}]
		factor := lf.slow[m.From]
		if f := lf.slow[m.To]; f > factor {
			factor = f
		}
		nominal := lf.Nominal
		lf.mu.RUnlock()
		if !hasLink && factor == 0 {
			return d
		}
		h := splitmix64(lf.seed ^ lf.n.Add(1))
		draw := func(shift uint) float64 {
			return float64((h>>shift)&0x1f_ffff) / float64(1<<21)
		}
		if hasLink {
			d.Drop = draw(0) < cfg.DropRate
			d.Duplicate = draw(21) < cfg.DupRate
			if cfg.Delay > 0 && (cfg.DelayRate == 0 || draw(42) < cfg.DelayRate) {
				d.Delay = cfg.Delay
				if cfg.Jitter > 0 {
					d.Delay += time.Duration(splitmix64(h) % uint64(cfg.Jitter))
				}
			}
		}
		if factor > 1 {
			if nominal <= 0 {
				nominal = 100 * time.Microsecond
			}
			d.Delay += time.Duration((factor - 1) * float64(nominal))
		}
		return d
	}
}
