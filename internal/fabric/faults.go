package fabric

import (
	"sync"
	"sync/atomic"
	"time"
)

// The fault model. The paper assumes a lossless low-latency fabric; a
// production forwarding plane cannot. An Injector sees every lookup request
// and reply as it enters the fabric and may drop, delay or duplicate it —
// the three failure modes of a real crossbar under congestion or a flaky
// backplane link. Only lookups cross the fabric: no injector can make a
// running line card look dead to the router's health monitor, nor a dead one
// alive.

// Decision is an Injector's verdict on one message. The zero Decision
// delivers it once, at once: a clean message.
type Decision struct {
	// Drop suppresses the message (it takes precedence over the rest).
	Drop bool
	// Duplicate delivers the message twice.
	Duplicate bool
	// Delay postpones the delivery of every copy by this much.
	Delay time.Duration
}

// Injector decides the fate of each message entering the fabric, from its
// Kind, Src, Dst and Addr. It is called concurrently, by goroutines that may
// hold line-card locks: it must be safe for concurrent use, must not block
// and must not call into the router. A nil Injector is a perfect fabric.
type Injector func(Message) Decision

// LinkConfig is the fault mix of one directed link. The zero value is a
// clean link.
type LinkConfig struct {
	// DropRate, DupRate and DelayRate are per-message probabilities in
	// [0, 1].
	DropRate, DupRate, DelayRate float64
	// A delayed message waits Delay plus a seeded uniform extra in
	// [0, Jitter). With DelayRate 0, a Delay above 0 delays every message
	// (a slow link).
	Delay, Jitter time.Duration
}

// Faults is the fabric's fault matrix: every directed link (src → dst)
// carries a LinkConfig — the one NewFaults was given, unless SetLink gave it
// its own, so A→B can be partitioned while B→A stays clean — and a line
// card may be browned out (SlowLC). Decide is its Injector. A message on a
// clean link of no browned-out card draws nothing; every other draws the
// next value of one seeded counter stream, so a run's fault mix is a
// function of the seed and of the order messages are decided in. Safe for
// concurrent use; links and brownouts may be set while a router runs.
type Faults struct {
	// Nominal is the clean one-way latency that brownouts scale: a message
	// to or from a card browned out by factor waits (factor − 1) × Nominal
	// more, its links running at 1/factor of their speed. Zero means 100µs.
	// Set it before the first message.
	Nominal time.Duration

	seed uint64
	all  LinkConfig
	n    atomic.Uint64

	mu    sync.RWMutex
	links map[[2]int]LinkConfig
	slow  map[int]float64
}

// NewFaults returns the matrix whose every link carries all and whose
// decisions are drawn from seed.
func NewFaults(seed uint64, all LinkConfig) *Faults {
	return &Faults{seed: seed, all: all}
}

// SetLink gives the directed link from → to its own configuration in place
// of the matrix-wide one.
func (f *Faults) SetLink(from, to int, cfg LinkConfig) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.links == nil {
		f.links = make(map[[2]int]LinkConfig)
	}
	f.links[[2]int{from, to}] = cfg
}

// SlowLC browns line card i out by factor: every message to or from it waits
// (factor − 1) × Nominal more. factor ≤ 1 lifts the brownout. The card's own
// health is untouched — it still looks alive, which is what makes the
// failure gray.
func (f *Faults) SlowLC(i int, factor float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if factor <= 1 {
		delete(f.slow, i)
		return
	}
	if f.slow == nil {
		f.slow = make(map[int]float64)
	}
	f.slow[i] = factor
}

// Decide is the matrix's Injector: it reads the live configuration, so
// SetLink and SlowLC take effect on the next message.
func (f *Faults) Decide(m Message) Decision {
	cfg := f.all
	f.mu.RLock()
	if c, ok := f.links[[2]int{m.Src, m.Dst}]; ok {
		cfg = c
	}
	factor := max(f.slow[m.Src], f.slow[m.Dst])
	f.mu.RUnlock()
	var d Decision
	if cfg == (LinkConfig{}) && factor == 0 {
		return d
	}
	h := splitmix64(f.seed ^ f.n.Add(1))
	// Three independent 21-bit draws from one 64-bit hash.
	draw := func(shift uint) float64 {
		return float64((h>>shift)&0x1f_ffff) / float64(1<<21)
	}
	d.Drop = draw(0) < cfg.DropRate
	d.Duplicate = draw(21) < cfg.DupRate
	if cfg.DelayRate > 0 && draw(42) < cfg.DelayRate || cfg.DelayRate == 0 && cfg.Delay > 0 {
		d.Delay = cfg.Delay
		if cfg.Jitter > 0 {
			d.Delay += time.Duration(splitmix64(h) % uint64(cfg.Jitter))
		}
	}
	if factor > 1 {
		nominal := f.Nominal
		if nominal <= 0 {
			nominal = 100 * time.Microsecond
		}
		d.Delay += time.Duration((factor - 1) * float64(nominal))
	}
	return d
}

// splitmix64 is the finalizer of the splitmix64 generator, stateless so that
// the matrix can hash a shared counter without a lock.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
