package router

import (
	"time"

	"spal/internal/cache"
	"spal/internal/lpm"
)

// Option configures a router at construction time. Options are applied
// in order over the defaults (one line card, reference engine, caches
// off), so later options win.
type Option func(*config)

// WithLCs sets ψ, the number of line cards.
func WithLCs(n int) Option {
	return func(c *config) { c.NumLCs = n }
}

// WithEngine sets the matching-structure builder every LC uses. Most
// callers want WithEngineName, which resolves a registry name and is
// validated at construction; WithEngine is for custom Builders (tests
// inject a fake slow engine through it).
func WithEngine(b lpm.Builder) Option {
	return func(c *config) { c.Engine = b }
}

// WithEngineName selects the per-LC engine by registry name ("flat",
// "lulea", "stride24", ...; see internal/lpm/engines). New fails with an
// error listing the valid names when the name is unknown. A non-empty
// name takes precedence over WithEngine.
func WithEngineName(name string) Option {
	return func(c *config) { c.EngineName = name }
}

// WithCache enables LR-caches with the given organization.
func WithCache(cc cache.Config) Option {
	return func(c *config) {
		c.Cache = cc
		c.CacheEnabled = true
	}
}

// WithDefaultCache enables LR-caches with the paper's standard
// organization (4K blocks, 4-way, 8 victim blocks, γ=50%, LRU).
func WithDefaultCache() Option { return WithCache(cache.DefaultConfig()) }

// WithoutCache disables LR-caches (every lookup reaches a forwarding
// engine), the paper's baseline configuration.
func WithoutCache() Option {
	return func(c *config) { c.CacheEnabled = false }
}

// WithRebalance enables the background partition rebalancer: when
// incremental updates (ApplyUpdates) drift the partitioning's replication
// factor or per-LC size skew past its thresholds (1.15× the baseline Φ*, a
// size spread of 1.0× the mean), the router re-selects control bits over
// the current table and runs the full two-phase swap, at most once a
// second. See updates.go.
func WithRebalance() Option {
	return func(c *config) { c.Rebalance = true }
}

// WithFaultInjector installs a chaos hook on the inter-LC message path:
// every fabric request and reply is offered to fi, which may drop, delay,
// or duplicate it (see SeededFaults for a deterministic injector). The
// deadline/retry/fallback machinery guarantees every lookup still
// terminates with a correct verdict.
func WithFaultInjector(fi FaultInjector) Option {
	return func(c *config) { c.FaultInjector = fi }
}

// WithRequestTimeout sets the per-attempt deadline on fabric lookup
// requests (default 50ms). Expired requests are retried with exponential
// backoff; see WithMaxRetries.
func WithRequestTimeout(d time.Duration) Option {
	return func(c *config) { c.RequestTimeout = d }
}

// WithMaxRetries bounds how many times a timed-out fabric request is
// re-sent before the lookup degrades to the fallback, an index over the
// full-table snapshot (default 3; negative disables retries).
func WithMaxRetries(n int) Option {
	return func(c *config) { c.MaxRetries = n }
}

// WithScrub enables the online integrity scrubber: a cycle at most every
// interval (<= 0 selects 4 health ticks) re-verifies 32 sampled engine
// verdicts per line card and every LR-cache entry against the canonical
// routing table, evicts mismatched cache entries, and quarantines and
// rebuilds a line card whose engine disagrees. See scrub.go.
func WithScrub(interval time.Duration) Option {
	return func(c *config) {
		c.Scrub = true
		c.ScrubInterval = interval
	}
}

// WithCorruption installs the seeded state-corruption injector: engine
// verdict flips, wrong-value cache fills, and dropped cache
// invalidations, capped by MaxCorruptions. Chaos-test hook for the
// scrubber; see corrupt.go.
func WithCorruption(p CorruptionPolicy) Option {
	return func(c *config) { c.Corruption = p }
}

// WithHealthThresholds sets the LC lifecycle windows (see lifecycle.go):
// an LC with no recorded heartbeat for suspectAfter is demoted to Suspect,
// and a crashed LC silent for downAfter is declared Down and re-homed.
// Defaults are 1× and 2× the request timeout; downAfter is raised to
// suspectAfter when smaller.
func WithHealthThresholds(suspectAfter, downAfter time.Duration) Option {
	return func(c *config) {
		c.SuspectAfter = suspectAfter
		c.DownAfter = downAfter
	}
}
