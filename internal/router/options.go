package router

import (
	"time"

	"spal/internal/cache"
	"spal/internal/fabric"
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

// WithEngineName selects the per-LC engine by registry name ("lulea",
// "dptrie", "stride24", ...; see internal/lpm/engines). New fails with an
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

// WithFaultInjector installs a chaos hook on the fabric: every request and
// reply, a direct exchange's two included, is offered to fi, which may drop,
// delay or duplicate it (fabric.Faults' Decide is the seeded one). The
// deadline/retry/fallback machinery guarantees every lookup still
// terminates with a correct verdict.
func WithFaultInjector(fi fabric.Injector) Option {
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
