// Package router is a working concurrent implementation of a SPAL router:
// one lock and one bounded queue per line card, each card holding its
// ROT-partition forwarding engine and its LR-cache, exchanging lookup
// requests and replies as messages that play the switching fabric's role.
//
// Where package sim models timing (cycles, queues, fabric latency), this
// package provides the functional forwarding plane a downstream user would
// embed: submit a destination address at a line card, receive the next
// hop. All SPAL mechanisms are live — home-LC routing of misses, LOC/REM
// result caching, miss coalescing (concurrent lookups for one address
// trigger a single FE execution), and whole-table updates with cache
// flushes and epoch-guarded replies so stale results never enter a cache
// after a flush.
//
// Observability: every line card keeps atomic event counters and
// lock-free lookup-latency histograms keyed by where the result came from
// (cache / fe / remote). Metrics returns an immutable snapshot of all of
// them in the shared internal/metrics vocabulary, ready for Prometheus
// export; see metrics.go.
//
// Concurrency design: run to completion, and no goroutine per line card.
// Each line card's cache, engine and waitlists are owned by whoever holds
// lineCard.mu. A goroutine holding a message for an idle LC — nothing sent
// to it unhandled, its lock free, live — runs the handler itself (see
// runInline): a cache hit is one TryLock, one probe and one Unlock on the
// caller's goroutine. Every miss past the probe is a batch's rows (a single
// lookup's a batch of one), and an idle home is asked by a call made
// holding both locks (batchDirect), with no message. Otherwise the message
// takes the LC's bounded FIFO queue, like the paper's line card behind its
// fabric queues, served by whoever holds the lock on its way out (see
// leave). Control — a flush, a table swap, an update batch, a scrape — is
// no message: its caller waits for the lock and does the work (see own).
// The router's one goroutine is the health monitor (healthLoop), which
// owns every LC once a tick for what no caller came by to do.
//
// Two rules keep this deadlock-free: a goroutine holding one LC's lock
// takes another's only by TryLock (and sends nothing while holding two),
// and a handler never delivers a fabric message under its own lock — it
// queues it on the outbox, delivered after unlocking (see leave). A caller
// blocks while the queue is full; an LC sending to a peer never does — a
// fabric message that finds the peer's queue full is shed and counted, and
// the requester's deadline machinery recovers the lookup. WithOverload
// layers a policy on the same queue: refuse rather than block at
// admission, retry budgets, circuit breakers (overload.go).
//
// Failure model: the paper assumes a lossless fabric; this package does
// not. Every fabric request carries a deadline tracked by a coarse
// per-LC tick (no extra locks — the deadline state lives in the LC's
// own waitlists, and the tick runs under the LC's lock like any
// handler). A request unanswered by its deadline is retried with
// exponential backoff up to MaxRetries times; when retries are
// exhausted the arrival LC resolves the address against a router-wide
// read-only full-table engine and the verdict is marked
// ServedByFallback, so every lookup terminates even over a fabric that
// drops, delays, or duplicates messages. WithFaultInjector installs a
// fabric.Injector to prove exactly that, direct exchanges included.
package router

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spal/internal/cache"
	"spal/internal/fabric"
	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/lpm/engines"
	"spal/internal/metrics"
	"spal/internal/partition"
	"spal/internal/rtable"
	"spal/internal/tracing"
)

// ErrStopped is returned by calls that cannot complete because the router
// was stopped.
var ErrStopped = errors.New("router: stopped")

// Verdict is the outcome of one lookup.
type Verdict struct {
	Addr    ip.Addr
	NextHop rtable.NextHop
	OK      bool // false: no matching prefix
	// ServedBy tells where the result came from: the arrival LC's
	// LR-cache, a local FE execution at the home LC, or a fabric reply
	// from the home LC.
	ServedBy ServedBy
}

// config is what the options passed to New fill in.
type config struct {
	// NumLCs is ψ.
	NumLCs int
	// Engine builds each LC's matching structure (WithEngine: a custom
	// Builder, e.g. a test's fake engine). A non-empty EngineName replaces
	// it; with neither set the hash-based reference engine is used.
	Engine lpm.Builder
	// EngineName selects the per-LC engine by registry name ("lulea",
	// "dptrie", "stride24", ...). Empty falls back to Engine (or the
	// reference engine); an unknown name fails construction with an error
	// listing the valid names. See WithEngineName.
	EngineName string
	// Cache is the LR-cache organization, used when CacheEnabled.
	Cache        cache.Config
	CacheEnabled bool
	// FaultInjector, when non-nil, decides every fabric request and reply
	// (see fault). Nil is a perfect fabric.
	FaultInjector fabric.Injector
	// RequestTimeout is the per-attempt deadline on a fabric lookup
	// request; an unanswered request is retried (with exponential
	// backoff) once the deadline passes. Zero selects the default
	// (50ms); deadlines are checked by a coarse per-LC tick, so expiry
	// is detected within about a quarter-timeout of the deadline. The
	// health monitor suspects an LC not ticked for max(RequestTimeout,
	// 50ms).
	RequestTimeout time.Duration
	// MaxRetries bounds how many times a timed-out request is re-sent
	// before the lookup degrades to the router-wide fallback, an index over
	// the full-table snapshot. Zero selects the default (3); negative
	// disables retries (the first expiry goes straight to the fallback).
	MaxRetries int
	// TracingEnabled turns on the per-lookup span recorder (see
	// trace.go and internal/tracing). The WithTraceSampling /
	// WithLogger / WithTraceJournal options set it implicitly.
	TracingEnabled bool
	// TraceSampleRate is the head-sampling probability in [0, 1];
	// interesting lookups are captured regardless (see
	// WithTraceSampling).
	TraceSampleRate float64
	// TraceJournal bounds the completed-trace ring behind Router.Traces;
	// 0 selects the default (1024).
	TraceJournal int
	// TraceLogger, when non-nil, receives one structured record per
	// completed trace.
	TraceLogger *slog.Logger
	// Overload turns on overload control (admission shedding, retry
	// budgets, circuit breakers, the waitlist cap; see overload.go). Off,
	// callers block on a full inbox and the router never returns
	// ErrOverloaded. QueueDepth bounds each LC's inbox either way (<= 0
	// selects 1024); with Overload a lookup that finds it full is refused.
	Overload   bool
	QueueDepth int
	// Gray enables the gray-failure plane (per-home fabric RTT scoring, the
	// degraded health signal, outlier ejection; see gray.go).
	Gray bool
}

// Robustness defaults, chosen so that a healthy in-process fabric (tens
// of microseconds round trip) never triggers them spuriously, while a
// faulty one degrades in well under a second.
const (
	defaultRequestTimeout = 50 * time.Millisecond
	defaultMaxRetries     = 3
)

const (
	mLookup       = iota
	mBatch        // one pooled batch descriptor of local lookups (batch.go)
	mBatchRequest // fabric request: the rows one arrival LC asks one home LC
	mBatchReply   // fabric reply: the rows the home answered, scattered back by address
)

// message is the fabric traffic: a lookup on its way into an LC, a request
// or a reply between two. A request or reply of one row carries it in addr,
// nextHop and ok, with no payload; more rows are a payload (fb). See rows.
type message struct {
	kind    uint8
	hops    uint8 // forwards survived (mBatchRequest), echoed back on mBatchReply
	depth   uint8 // fabric messages: inline runs already nested above the one that would handle it (see lineCard.post)
	addr    ip.Addr
	nextHop rtable.NextHop
	ok      bool
	from    int // requester LC (mBatchRequest), responder (mBatchReply)
	epoch   uint32
	slot    int32                // index into bd.out when bd != nil
	feNS    int64                // mBatchReply of one row: home-side FE execution time (0 = not measured, or a hit)
	start   int64                // a reading of Router.now. mLookup: submission, for latency histograms; mBatchRequest: send, echoed back on its mBatchReply (a round-trip sample, see gray.go). Also tells an inline run that a tick may be due (see leave)
	tr      *tracing.LookupTrace // mLookup: the trace riding this lookup, if sampled
	bd      *batchDesc           // mBatch, or an mLookup's destination once it has to wait (a one-row descriptor)
	fb      []fabricRow          // mBatchRequest / mBatchReply payload of more than one row
	// gen rides every mBatchReply: the generation of the table the value
	// was computed against, so the requester can spot values that predate
	// an invalidation it has already run (see updates.go).
	gen uint64
}

// rows is a request's or reply's rows: its payload, or the one row its own
// fields carry, copied into one.
func (m *message) rows(one *[1]fabricRow) []fabricRow {
	if m.fb != nil {
		return m.fb
	}
	one[0] = fabricRow{m.addr, m.nextHop, m.ok}
	return one[:]
}

// LCStats are per-line-card counters (atomically updated, readable live).
//
// Deprecated: prefer Router.Metrics, which returns an immutable snapshot
// including these counters plus latency histograms and cache occupancy.
// LCStats remains for callers that want zero-allocation live reads.
type LCStats struct {
	// RequestsSent and RepliesSent count fabric exchanges, not addresses: a
	// request covering 30 addresses increments each by exactly one.
	Lookups, CacheHits, FEExecs, RequestsSent, RepliesSent, Coalesced, StaleReplies atomic.Int64
	// Batches counts the batch descriptors admitted.
	Batches atomic.Int64
	// Robustness counters: fabric requests re-sent after a deadline
	// expiry, lookups answered by the full-table fallback,
	// deadlines that exhausted their retry budget, and in-flight
	// requests forwarded because the address was re-homed.
	Retries, Fallbacks, DeadlineExpired, ForwardedRequests atomic.Int64
	// Incremental-update counters (see updates.go): route updates this
	// LC applied to its engine, and fabric replies whose value predated
	// an invalidation this LC had already run (delivered to waiters but
	// kept out of the cache).
	UpdatesApplied, StaleGenReplies atomic.Int64
}

type remoteWaiter struct {
	from  int
	epoch uint32
	hops  uint8 // forwards the request survived, echoed back in the reply
	// gen is the LC's table generation when the waiter parked. A reply
	// whose value predates it must not answer this waiter (the waiter
	// arrived after this LC already applied a newer update batch); release
	// re-drives such waiters instead. See updates.go.
	gen uint64
}

// localWaiter is a local lookup past the probe: its slot in a batch
// descriptor (a single lookup's is one row), whose stamp is its submission,
// and its trace, so that coalesced lookups each record their own latency and
// span.
type localWaiter struct {
	bd   *batchDesc
	slot int32
	tr   *tracing.LookupTrace
	gen  uint64 // LC generation at park time; see remoteWaiter.gen
}

type waitlist struct {
	locals  []localWaiter
	remotes []remoteWaiter
	// Fabric-request bookkeeping, owned with the rest of the waitlist by
	// whoever holds the LC's lock: attempts counts requests sent so far,
	// including the first, and deadline is the latest one's (a reading of
	// Router.now; zero means none).
	attempts int
	deadline int64
	// tr is the per-address span owner: the earliest traced lookup parked
	// here records the shared events (fabric send/recv, retry, deadline,
	// fill); trLate marks a late trace no localWaiter owns, finished by
	// answer. feNS is the local FE time, measured only while tracing, echoed
	// to remote waiters in replies.
	tr     *tracing.LookupTrace
	trLate bool
	feNS   int64
}

// fabricSend is one fabric message a handler queued on its LC's outbox and,
// if drawn, the fault decision a direct exchange drew for it (batchDirect).
type fabricSend struct {
	to    int
	m     message
	fault fabric.Decision
	drawn bool
}

type lineCard struct {
	id int

	// mu is the ownership of everything down to outbox: whoever holds it — an
	// inline run (runInline), an arrival LC's owner asking this home
	// (batchDirect), a control caller (own), the health monitor — is the LC
	// for that long, and gives it up through leave, which serves the queue.
	// Lock order is Router.mu → lineCard.mu; nothing blocks while holding mu,
	// and a holder of one LC's mu takes another's only by TryLock.
	mu      sync.Mutex
	engine  lpm.Engine
	cache   *cache.Cache
	pending pendingTable // in-flight misses: the waitlist of each address lookups are parked on
	free    []*waitlist  // released waitlists, reset, for park to reuse (see recycle)
	homeOf  func(ip.Addr) int
	epoch   uint32
	// gen is the table generation this LC's engine, and everything in its
	// cache, reflect: installTable installs the engine, flushes and sets it;
	// applyUpdates applies the delta, invalidates and sets it. Both run under
	// Router.mu, which orders the generations, so it is monotonic.
	gen     uint64
	stats   *LCStats
	scratch *lcScratch // reusable miss workspace (see batch.go), surviving a crash
	// lastTick is when tick last ran here, a reading of Router.now: an owner
	// that finds it due runs it on its way out (see leave), the health
	// monitor's sweep being the owner that comes by when nobody else does.
	// Written under mu; the monitor ages it without (see healthCheck).
	lastTick atomic.Int64
	// spare is the one-row batch descriptor an inline miss is run in: kept
	// while the run answers it, the caller's once it has to wait.
	spare *batchDesc
	// done lists the local lookups answered since this ownership began, for
	// leave to time with one clock reading (see finish).
	done []finished
	// One inline cache hit in hitTimedEvery is timed (see lookup): hitStart is
	// the stamp of the one this run answered, hitNS what the last one took, and
	// untimedHits how many untraced inline hits, timed or not, neither the
	// latency histogram nor Lookups, CacheHits and handled{inline} have been
	// told of: a plain count that foldHits adds to all four at the timed hit
	// (leave), every tick, and in Stats, Metrics and Stop, so a lock-free
	// reader is at most hitTimedEvery-1 hits or one tick behind.
	untimedHits     uint64
	hitStart, hitNS int64
	// unfolded is untimedHits != 0, set at the first untimed hit after a fold
	// and cleared by the fold: what Stats reads to own only an LC it has a
	// fold to run at, so a reader waits for no LC that has none.
	unfolded atomic.Bool
	// nwaiters counts the lookups, local and remote, parked in pending: with
	// pending's length, the gauges leave publishes (waiters, pendingDepth).
	// resolved counts the slots of batch descriptor resolvedBD that this run
	// has answered and not yet retired from its countdown (see answer).
	nwaiters   int64
	resolvedBD *batchDesc
	resolved   int
	// outbox holds the fabric messages the running handler has produced,
	// delivered after unlocking (see leave): the peer may run them inline
	// and answer straight back here.
	outbox []fabricSend
	// depth is how many inline runs are nested on this owner's stack above
	// the handler now running: zero for a caller entering with its own lookup,
	// a control caller and the monitor, the message's depth for runInline; what
	// an owner serves from the queue runs at the depth it had. post stamps
	// depth+1 on what the handler sends, and deliverData nests nothing past
	// maxInlineDepth, which bounds the nesting whatever the protocol does.
	depth uint8
	// Handler runs by who ran them (spal_router_handled_total): inline,
	// queued, and direct — exchanges a requester's owner served here by call.
	handledInline, handledQueued, handledDirect atomic.Int64

	// Everything below is atomic and may be touched without mu.

	// live is false from a crash to its adoption, and once the router has
	// stopped: only a live LC runs handlers, inline or from its queue, so what
	// arrives meanwhile buffers. KillLC clears it (without waiting for mu,
	// which a wedged handler may hold), rehomeLocked sets it under mu once it
	// has adopted the corpse, Stop clears every one.
	live atomic.Bool
	// backlog counts the messages in this LC's queue, each added after its push
	// and taken off, under mu, with its receive: an owner that reads it non-zero
	// finds a message, and a sender that has counted has pushed. Hand-offs are
	// decided on it (see enter and leave), never on the channel's len().
	backlog atomic.Int32

	lat          lcLatency
	pendingDepth atomic.Int64 // these two: as of the last completed run (see leave)
	waiters      atomic.Int64

	// ov is the overload-control state (shed counters, retry bucket,
	// per-home breakers; see overload.go). The fabric shed counters are
	// live on every router, the rest only under an overload policy. Its
	// counters are atomic; its token bucket and breaker bookkeeping are
	// guarded by mu like pending above.
	ov *lcOverload
}

// Router is a running SPAL forwarding plane.
type Router struct {
	cfg     config
	inboxes []chan message // bounded queues, one per LC: the only queued way in, received from only when non-empty
	quit    chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup // healthLoop
	delayWG sync.WaitGroup // goroutines holding a delayed or too deeply nested message
	delayMu sync.Mutex     // orders delayWG.Add against Stop setting stopped
	lcs     []*lineCard
	stats   []*LCStats

	// born is the epoch of the data plane's one clock and clock reads it
	// (see now) — a field only so that a test can count the readings.
	born  time.Time
	clock func() int64

	// Robustness knobs, fixed at construction.
	timeout    time.Duration
	maxRetries int
	tickEvery  time.Duration

	// Overload control (see overload.go). overload false leaves only the
	// inbox depth in force: no admission shedding, breakers, retry budget
	// or waitlist cap.
	overload   bool
	queueDepth int

	// LC lifecycle (see lifecycle.go): each slot's lifecycle state, the
	// suspicion window, and the lifecycle event counters.
	health       []*atomicLCState
	suspectAfter time.Duration
	suspects     atomic.Int64
	rehomes      atomic.Int64
	replayed     atomic.Int64
	drains       atomic.Int64
	drainDur     metrics.Histogram

	// batchRecycled counts batch descriptors abandoned by a cancelled
	// caller and returned to the pool by their last in-flight sub-lookup
	// (the fix for the per-address channel leak the old batch path had).
	batchRecycled atomic.Int64

	// tracer is the per-lookup span recorder; nil when tracing is
	// disabled, which is the only cost the hot path pays (see trace.go).
	tracer *tracing.Recorder

	// fallback is the degraded slow path: an index over the current
	// full-table snapshot, which r.part already holds, that every LC may
	// consult once it has given up on an address's home. UpdateTable and
	// ApplyUpdates publish a new one, a pointer store, before any LC
	// installs the table it indexes.
	fallback atomic.Pointer[rtable.Index]

	// dynamic reports whether the builder's engines take updates in place
	// (lpm.DynamicEngine); fixed in New from the first engine it built, so
	// ApplyUpdates decides what to rebuild without reading an LC's engine.
	dynamic bool

	mu   sync.Mutex // guards part + lifecycle transitions, serializes swaps
	part *partition.Partitioning

	// Incremental-update plane (see updates.go). gen is the router-wide
	// table generation, advanced under mu by ApplyUpdates and UpdateTable.
	gen           uint64
	updateBatches atomic.Int64
	updateEvents  atomic.Int64

	// Gray-failure plane (see gray.go): one record per home LC, nil when the
	// plane is disabled, and its counters.
	gray                                    []*lcGray
	ejectServed, grayDegrades, grayRecovers atomic.Int64
}

// New builds and starts a router over tbl. Defaults: one line card, the
// hash-based reference engine, LR-caches off. A paper-standard 16-LC
// cached router is
//
//	router.New(tbl, router.WithLCs(16), router.WithDefaultCache())
func New(tbl *rtable.Table, opts ...Option) (*Router, error) {
	cfg := config{NumLCs: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.NumLCs < 1 {
		return nil, fmt.Errorf("router: NumLCs must be >= 1, got %d", cfg.NumLCs)
	}
	if tbl == nil || tbl.Len() == 0 {
		return nil, errors.New("router: empty routing table")
	}
	if cfg.EngineName != "" {
		b, err := engines.Lookup(cfg.EngineName)
		if err != nil {
			return nil, fmt.Errorf("router: %w", err)
		}
		cfg.Engine = b
	}
	if cfg.Engine == nil {
		cfg.Engine = lpm.NewReferenceEngine
	}
	r := &Router{cfg: cfg, quit: make(chan struct{})}
	// A nanosecond in the past, so that no reading is 0: a zero stamp keeps
	// meaning "none".
	born := time.Now().Add(-time.Nanosecond)
	r.born, r.clock = born, func() int64 { return int64(time.Since(born)) }
	r.timeout = cfg.RequestTimeout
	if r.timeout <= 0 {
		r.timeout = defaultRequestTimeout
	}
	switch {
	case cfg.MaxRetries == 0:
		r.maxRetries = defaultMaxRetries
	case cfg.MaxRetries < 0:
		r.maxRetries = 0
	default:
		r.maxRetries = cfg.MaxRetries
	}
	if r.tickEvery = r.timeout / 4; r.tickEvery < 500*time.Microsecond {
		r.tickEvery = 500 * time.Microsecond
	}
	r.suspectAfter = max(r.timeout, suspectFloor)
	if cfg.TracingEnabled {
		r.tracer = tracing.New(tracing.Config{
			SampleRate:  cfg.TraceSampleRate,
			JournalSize: cfg.TraceJournal,
			Logger:      cfg.TraceLogger,
		})
	}
	r.overload = cfg.Overload
	if r.queueDepth = cfg.QueueDepth; r.queueDepth <= 0 {
		r.queueDepth = defaultQueueDepth
	}
	r.part = partition.Partition(tbl, cfg.NumLCs)
	r.fallback.Store(rtable.NewIndex(r.part.Full()))
	// Build every per-LC structure before starting the monitor: it indexes
	// the slices from its first tick, so they must never be appended to
	// (reallocated) once it is running.
	now := r.now()
	hashSeed := rand.Uint64() // per router: see pendingTable
	// The LCs' route lists live only for their engines' builds.
	tables := r.part.Tables()
	for i := 0; i < cfg.NumLCs; i++ {
		engine := r.cfg.Engine(tables[i])
		tables[i] = nil
		if i == 0 {
			_, r.dynamic = engine.(lpm.DynamicEngine)
		}
		lc := &lineCard{
			id:      i,
			engine:  engine,
			pending: newPendingTable(hashSeed),
			homeOf:  r.part.Home(),
			stats:   &LCStats{},
			done:    make([]finished, 0, maxFinished),
		}
		lc.scratch = newLCScratch(cfg.NumLCs)
		lc.lastTick.Store(now)
		lc.live.Store(true)
		if cfg.CacheEnabled {
			// NewErr turns a mis-sized cache (an operator flag) into a
			// construction error instead of a panic; the monitor is not
			// running yet, so bailing out here leaks nothing.
			cc := cfg.Cache
			cc.Seed += uint64(i) * 31
			c, err := cache.NewErr(cc)
			if err != nil {
				return nil, fmt.Errorf("router: %w", err)
			}
			lc.cache = c
		}
		lc.ov = newLCOverload(r.overload, cfg.NumLCs)
		if cfg.Gray {
			r.gray = append(r.gray, &lcGray{})
		}
		// The LC's queue is QueueDepth deep: that depth is the router's whole
		// buffering budget.
		r.inboxes = append(r.inboxes, make(chan message, r.queueDepth))
		r.lcs = append(r.lcs, lc)
		r.stats = append(r.stats, lc.stats)
		r.health = append(r.health, &atomicLCState{})
	}
	r.wg.Add(1)
	go r.healthLoop()
	return r, nil
}

// sendFabric carries one flush's messages across the (virtual) fabric, each
// under its fault decision (the one drawn for it, else the injector's, which
// sees its first row): it may be dropped, duplicated or delayed — what is
// delayed leaves on one helper. A message is one fabric unit however many
// rows it carries; a dropped request is re-driven per address by the
// requesters' deadline machinery.
func (r *Router) sendFabric(out []fabricSend) {
	var held []fabricSend
	for i, s := range out {
		if !s.drawn {
			s.fault = r.fault(s.m.kind == mBatchReply, s.m.from, s.to, s.m.addr)
		}
		if s.fault.Drop {
			continue
		}
		for n := 0; n == 0 || n == 1 && s.fault.Duplicate; n++ {
			if s.fault.Delay <= 0 {
				r.deliverData(s.to, s.m)
			} else {
				held = append(slices.Grow(held, len(out)-i), s)
			}
		}
	}
	if held != nil {
		r.sendDelayed(held)
	}
}

// fault draws the injector's decision on a request (reply: a reply) from LC
// from to LC to, first row addr; without one, a clean message.
func (r *Router) fault(reply bool, from, to int, addr ip.Addr) fabric.Decision {
	if r.cfg.FaultInjector == nil {
		return fabric.Decision{}
	}
	kind := fabric.Request
	if reply {
		kind = fabric.Reply
	}
	return r.cfg.FaultInjector(fabric.Message{Kind: kind, Src: from, Dst: to, Addr: addr})
}

// sendDelayed carries held to their LCs on a helper goroutine, in the order
// they were sent (a link keeps it), each once its delay from now has passed:
// undelayed, from an empty stack (deliverData). Stop waits for the helpers
// and a helper bails out on quit, so a held message cannot outlive the
// router; the sender may be finishing an inline run while Stop is in
// progress, so joining delayWG is ordered against Stop's.
func (r *Router) sendDelayed(held []fabricSend) {
	sent := r.now()
	r.delayMu.Lock()
	if r.stopped.Load() {
		r.delayMu.Unlock()
		return
	}
	r.delayWG.Add(1)
	r.delayMu.Unlock()
	go func() {
		defer r.delayWG.Done()
		for _, h := range held {
			if wait := time.Duration(sent-r.now()) + h.fault.Delay; wait > 0 {
				select {
				case <-time.After(wait):
				case <-r.quit:
					return
				}
			}
			r.deliverData(h.to, h.m)
		}
	}()
}

// runInline is the run-to-completion hand-off, tried wherever a goroutine
// holds a message for LC i: when the LC is idle — everything sent to it
// so far has been handled, its lock is free, it is live — the calling
// goroutine becomes the LC for the length of m's handler and reports true.
// Otherwise it reports false and the caller queues m, so a backlogged, busy
// or killed LC sees its traffic through its queue in FIFO order. Only
// TryLock is used, so two LCs handing messages to each other cannot
// deadlock. A message produced by an inline run is handled nested on that
// run's stack, at the depth it carries.
func (r *Router) runInline(i int, m message) bool {
	lc := r.enter(i)
	if lc == nil {
		return false
	}
	lc.handledInline.Add(1)
	lc.depth = m.depth
	r.handle(lc, m)
	now := m.start
	if m.bd != nil {
		now = m.bd.start
	}
	r.leave(lc, now)
	return true
}

// now reads the data plane's one clock: nanoseconds since New, monotonic
// only (time.Since is one vDSO read where time.Now, which reads the wall
// clock as well, is two), never 0. Every stamp a message, a waiter, a
// waitlist or a line card carries is one of these readings, and a handler
// run takes at most two of them however many addresses it answers: one at
// submission, one in leave (an inline hit, one time in sixteen: see lookup).
func (r *Router) now() int64 { return r.clock() }

// at is reading ns as a time.Time, for those that keep one: traces.
func (r *Router) at(ns int64) time.Time { return r.born.Add(time.Duration(ns)) }

// enter claims LC i for the calling goroutine if it is idle (see runInline);
// nil otherwise. The claim ends with leave, and is the caller's to count.
func (r *Router) enter(i int) *lineCard {
	lc := r.lcs[i]
	if lc.backlog.Load() != 0 || !lc.mu.TryLock() {
		return nil
	}
	if !lc.live.Load() {
		// Killed (or the router has stopped): the slot is a corpse awaiting
		// adoption, and nothing is served from a corpse — what is queued at it
		// waits for the adoption's leave. Checked under the lock, which the
		// adoption holds until the slot is live again.
		lc.mu.Unlock()
		return nil
	}
	return lc
}

// own makes the calling goroutine LC i's owner for the length of do. It is
// how every control action reaches an LC's state — a flush, a table
// install, an update batch, a scrape: a function run under the lock, not a
// message. Where data may only TryLock, control waits: its caller holds no
// LC's lock (at most Router.mu, which no handler takes), so the wait is one
// ownership long and closes no cycle, and a mutex waiting longer than a
// millisecond is handed the lock ahead of callers that spin on TryLock.
// The ownership ends like any other, in leave: what do posted crosses the
// fabric once the lock is released, and what has queued is served, so do has
// taken effect well before own returns. do must not take Router.mu, block, or
// build an engine.
func (r *Router) own(i int, do func(*lineCard)) {
	lc := r.lcs[i]
	lc.mu.Lock()
	defer r.leave(lc, 0) // deferred: a test's do may end its goroutine
	do(lc)
}

// install is own for an action that installs state, as opposed to reading
// it. A slot that is not live — killed, or exited and not yet adopted — is
// skipped, reporting false: nothing is served from a corpse, and its
// adoption rebuilds it from r.part and r.gen as they are by then (see
// rehomeLocked). That is every slot once the router has stopped, so a caller
// that must not report a skipped action as done checks r.stopped after it.
// r.mu must be held.
func (r *Router) install(i int, do func(*lineCard)) (ran bool) {
	r.own(i, func(lc *lineCard) {
		if ran = lc.live.Load(); ran {
			do(lc)
		}
	})
	return ran
}

// leave ends an ownership of lc (lc.mu held) that ran a handler, a tick or a
// control action, and takes the run's closing clock reading — when the run answered
// local lookups (lc.done, lc.hitStart), or when now, a stamp the owner holds
// already (its message's; zero for none), says a tick may be due. Ticks are due
// work, not goroutine work: callers that never block can keep a P from the
// monitor for a whole preemption quantum, so an owner that knows the
// time runs the tick itself when one is due. The same reading then ends
// every lookup the run answered, the tick's sweep included, before the lock
// goes: whoever holds it next (a scrape, say) finds them recorded.
// Then the outbox is taken, the lock released, and only then the messages
// delivered: the peer may run them inline and answer straight back to
// this LC, which it could not do while we held the lock.
//
// Last, the queue: whoever held the lock serves what was queued behind it. A
// sender pushes, then counts (backlog.Add), then tries the lock once (queued);
// an owner unlocks, then reads the count, and if it is not zero and TryLock
// succeeds it is the owner again, at the depth it had, and handles what is
// queued before it goes through all of the above once more. No message is
// left parked at an idle live LC: a sender whose TryLock failed had counted
// before it tried, and the owner it lost to reads the count after unlocking,
// so that owner sees the message — or loses its own TryLock to a third party,
// which has the same reading ahead of it. One leave serves at most QueueDepth
// messages: a control caller holding Router.mu is not to be kept here by a
// flood. What it leaves, and what a full queue kept a blocked sender from
// pushing, is served by the next sender's try or the monitor's sweep; a
// killed LC's queue by its adoption's leave.
func (r *Router) leave(lc *lineCard, now int64) {
	depth := lc.depth
	for served := 0; ; {
		if len(lc.done) > 0 || lc.hitStart != 0 || (now != 0 && now-lc.lastTick.Load() >= int64(r.tickEvery)) {
			now = r.now()
			if lc.hitStart != 0 { // a timed inline hit: what it took is the untimed ones' value too, before tick folds them
				lc.hitNS, lc.hitStart = now-lc.hitStart, 0
				lc.foldHits()
			}
			if now-lc.lastTick.Load() >= int64(r.tickEvery) {
				r.tick(lc, now)
			}
			lc.observeDone(now)
		}
		// What the run changed is published once, here: the gauges, and — every
		// slot write and latency record before it — the batch countdown.
		if n := int64(lc.pending.len()); n != lc.pendingDepth.Load() {
			lc.pendingDepth.Store(n)
		}
		if lc.nwaiters != lc.waiters.Load() {
			lc.waiters.Store(lc.nwaiters)
		}
		if lc.resolvedBD != nil {
			r.bdResolveN(lc.resolvedBD, lc.resolved)
			lc.resolvedBD, lc.resolved = nil, 0
		}
		lc.depth = 0 // the next owner starts from its own stack
		if len(lc.outbox) == 0 {
			lc.mu.Unlock()
		} else {
			r.unlockAndFlush(lc)
		}
		if lc.backlog.Load() == 0 || served >= r.queueDepth || !lc.live.Load() || !lc.mu.TryLock() {
			return
		}
		for lc.depth, now = depth, 0; served < r.queueDepth && lc.backlog.Load() != 0 && lc.live.Load(); served++ {
			m := <-r.inboxes[lc.id] // counted, so pushed: it never blocks
			lc.backlog.Add(-1)
			lc.handledQueued.Add(1)
			r.handle(lc, m)
		}
	}
}

// unlockAndFlush is leave's send-after-unlock half. The messages move to
// the flusher's stack so the outbox keeps its backing array for the LC's
// next owner; more than a handful (a batch scattered over many homes)
// spills to the heap.
func (r *Router) unlockAndFlush(lc *lineCard) {
	var buf [4]fabricSend
	out := append(buf[:0], lc.outbox...)
	clear(lc.outbox) // drop payload and trace pointers
	lc.outbox = lc.outbox[:0]
	lc.mu.Unlock()
	r.sendFabric(out)
}

// post queues a fabric message produced by the handler running on lc, and
// returns its outbox entry; it crosses the fabric once the owner unlocks.
func (lc *lineCard) post(to int, m message) *fabricSend {
	m.depth = lc.depth + 1
	lc.outbox = append(lc.outbox, fabricSend{to: to, m: m})
	return &lc.outbox[len(lc.outbox)-1]
}

// tick is an LC's periodic due work: the untimed hits' fold, the stamp the
// health monitor ages — after the fold, so a reader that sees the stamp move
// sees the fold — breaker probes, and the deadline sweep over its waitlists.
// lc.mu must be held.
func (r *Router) tick(lc *lineCard, now int64) {
	lc.foldHits()
	lc.lastTick.Store(now)
	if r.overload {
		r.breakerTick(lc, now)
	}
	r.checkDeadlines(lc, now)
}

// checkDeadlines retries or degrades every pending lookup whose fabric
// request went unanswered past its deadline. Retries re-derive the home
// LC (the address may have been re-homed by a table update) and back off
// exponentially, one request per home a sweep; once the retry budget is
// spent, the lookup is answered from the router-wide full-table fallback
// (fallbackLookup) so it terminates no matter what the fabric lost.
func (r *Router) checkDeadlines(lc *lineCard, now int64) {
	lc.pending.walk()
	for addr, wl, ok := lc.pending.next(); ok; addr, wl, ok = lc.pending.next() {
		if wl.deadline == 0 || now < wl.deadline {
			continue
		}
		// A lookup that reaches the deadline sweep is "interesting"; this
		// path is already cold, so a late trace's allocation is free
		// relative to the timeout just paid.
		r.lateTraceFor(lc, addr, wl)
		home := lc.homeOf(addr)
		if r.overload && home != lc.id {
			// A deadline expiry is the breaker's failure signal for this
			// home; enough of them in a row open the circuit.
			r.breakerFailure(lc, home, now)
		}
		retry := wl.attempts <= r.maxRetries
		if retry && r.overload && home != lc.id {
			// An open breaker or an exhausted retry budget sends the
			// lookup straight to the fallback: retries must not
			// amplify load on a fabric that is already failing.
			if lc.ov.breakers[home].state.Load() == breakerOpen {
				retry = false
				lc.ov.breakerShorts.Add(1)
				wl.tr.Record(tracing.EvBreaker, int64(home), int64(breakerOpen))
			} else {
				if !lc.ov.retry.take() {
					retry = false
					lc.ov.budgetExhausted.Add(1)
				}
				lc.ov.mirrorBudget()
			}
		}
		if retry {
			lc.stats.Retries.Add(1)
			shift := wl.attempts
			if shift > 16 {
				shift = 16 // cap the backoff at timeout<<16
			}
			backoff := r.timeout << uint(shift)
			wl.tr.Record(tracing.EvRetry, int64(wl.attempts), int64(backoff))
			wl.deadline = now + int64(backoff)
			wl.attempts++
			if home == lc.id {
				// Re-homed onto this LC while the request was in
				// flight: resolve locally against our own partition.
				nh, ok, feNS := r.walk(lc, addr)
				wl.feNS = feNS
				wl.tr.Record(tracing.EvFEExec, feNS, int64(lc.id))
				r.fillAndRelease(lc, addr, nh, ok, cache.LOC, ServedByFE)
				continue
			}
			wl.tr.Record(tracing.EvFabricSend, int64(home), int64(wl.attempts))
			lc.scratch.request(home, addr)
			continue
		}
		if wl.attempts > r.maxRetries {
			// The classic path: every retry was spent. Budget- and
			// breaker-stopped lookups keep their own counters instead.
			lc.stats.DeadlineExpired.Add(1)
			wl.tr.Record(tracing.EvDeadline, int64(wl.attempts), 0)
		}
		lc.stats.Fallbacks.Add(1)
		wl.tr.Record(tracing.EvFallback, int64(lc.id), 0)
		nh, ok := r.fallbackLookup(addr)
		origin := cache.REM
		if home == lc.id {
			origin = cache.LOC
		}
		r.fillAndRelease(lc, addr, nh, ok, origin, ServedByFallback)
	}
	r.exchange(lc, nil, now)
}

func (r *Router) handle(lc *lineCard, m message) {
	switch m.kind {
	case mLookup:
		r.handleLookup(lc, &m) // queued or re-submitted: it carries its destination
	case mBatch:
		r.handleBatch(lc, m)
	case mBatchRequest:
		r.handleBatchRequest(lc, m)
	case mBatchReply:
		r.handleBatchReply(lc, m)
	}
}

// handleLookup serves a locally submitted packet. A queued or re-driven
// lookup carries its destination, a descriptor's slot, where its verdict is
// delivered. An inline caller (Router.lookup) has none: a hit is returned as
// (verdict, true); a miss is a batch of one row in the LC's spare one-row
// descriptor, whose verdict, if this run has it, is returned the same way —
// else the descriptor is the caller's to wait on.
func (r *Router) handleLookup(lc *lineCard, m *message) (Verdict, bool) {
	inline := m.bd == nil // Router.lookup's own call: no destination, and a stamp, if any, of this instant
	kind := cache.Miss
	if lc.cache != nil {
		res := lc.cache.Probe(m.addr)
		if kind = res.Kind; kind == cache.Hit || kind == cache.HitVictim {
			ok := res.NextHop != rtable.NoNextHop
			v := Verdict{Addr: m.addr, NextHop: res.NextHop, OK: ok, ServedBy: ServedByCache}
			if inline && m.tr == nil { // counted by foldHits; timed by leave if it carries a stamp, else recorded at the last timed one's value
				if lc.untimedHits == 0 {
					lc.unfolded.Store(true)
				}
				lc.untimedHits, lc.hitStart = lc.untimedHits+1, m.start
				return v, true
			}
			lc.count(inline)
			lc.stats.CacheHits.Add(1)
			if m.tr != nil {
				m.tr.Record(tracing.EvProbe, int64(res.Kind), int64(res.Origin))
				// Finish before delivering the verdict so a caller that
				// waits on the reply always finds its trace published.
				r.finishTrace(m.tr, ServedByCache, ok)
			}
			r.finish(lc, ServedByCache, m.start, traceID(m.tr), 1)
			if inline {
				return v, true
			}
			r.deliver(localWaiter{bd: m.bd, slot: m.slot}, v)
			return Verdict{}, false
		}
	}
	lc.count(inline)
	now := m.start
	if now == 0 || !inline { // unstamped in case it hit (see lookup), or queued: the home's tick and routeFor need the present
		now = r.now()
	}
	if m.start == 0 {
		m.start = now
	}
	if inline { // no pool round trip for a verdict this run has
		if lc.spare == nil {
			lc.spare = getBatchDesc(1, 0)
		}
		m.bd, m.slot, lc.spare.start = lc.spare, 0, m.start
	}
	r.missRow(lc, localWaiter{bd: m.bd, slot: m.slot, tr: m.tr}, m.addr, kind, now)
	n := r.settle(lc, m.bd, now)
	if inline {
		if n == 1 { // the spare stays the LC's: its countdown was never touched
			return m.bd.out[0], true
		}
		lc.spare = nil // the caller's, to wait on
	}
	r.bdResolveN(m.bd, n)
	return Verdict{}, false
}

// addLocal parks local lookup w on wl, stamped with this LC's generation.
func (lc *lineCard) addLocal(wl *waitlist, w localWaiter) {
	w.gen = lc.gen
	wl.locals = append(wl.locals, w)
	lc.nwaiters++
}

// joinLocal coalesces local lookup w of addr onto wl, the waitlist of a miss
// already in flight for it, so the address costs one FE execution and one
// fabric request however many lookups want it. A waitlist at waitlistCap
// sheds it instead (overload control only).
func (r *Router) joinLocal(lc *lineCard, wl *waitlist, addr ip.Addr, w localWaiter) {
	if r.waitlistFull(wl) {
		r.shedLocal(lc.id, addr, w)
		return
	}
	lc.stats.Coalesced.Add(1)
	if w.tr != nil {
		w.tr.Record(tracing.EvCoalesce, int64(len(wl.locals)+len(wl.remotes)), 0)
		if wl.tr == nil {
			wl.tr = w.tr
		}
	}
	lc.addLocal(wl, w)
}

// joinRemote is joinLocal for a peer's request arriving at the home LC. An
// overflowing remote waiter is dropped, not answered: the requester's
// deadline machinery retries or degrades, so the lookup still terminates
// without this waitlist growing.
func (r *Router) joinRemote(lc *lineCard, wl *waitlist, rw remoteWaiter) {
	if r.waitlistFull(wl) {
		r.shedCount(lc.id, shedWaitlistOverflow)
		return
	}
	lc.stats.Coalesced.Add(1)
	wl.remotes = append(wl.remotes, rw)
	lc.nwaiters++
}

// maxInlineDepth bounds how deep inline runs nest on one goroutine. A
// remote miss nests two (request at the home, reply at the arrival LC)
// plus one per forward, so every exchange the protocol intends still runs
// without a switch. What the bound stops is open-ended: a requester that
// has swapped to a new table re-drives every reply from a home that has
// not (fillStaleRelease → release), and that home is idle until its own
// install reaches it, so request and stale reply would otherwise chase
// each other down one stack until it does.
const maxInlineDepth = maxForwardHops + 2

// maxForwardHops bounds how often a request may be re-forwarded inside a
// partitioning-swap window. Two LCs holding different homeOf functions
// (one pre-swap, one post-swap) can bounce a request between them until
// the trailing LC has its install; the cap breaks that ping-pong by
// resolving against the full-table fallback, which is always current.
const maxForwardHops = 4

// forward moves a request's row for addr on to home, its home now: the
// address was re-homed while the request was in flight (a table update
// swapped the partitioning under it), and running LPM here would consult the
// wrong partition and could cache a bogus verdict as a LOC entry. The reply
// still carries the original requester and epoch. Past maxForwardHops the row
// is answered from the fallback instead, uncached: this LC is not its
// home, so the value must not enter its LOC quota.
func (r *Router) forward(lc *lineCard, addr ip.Addr, home int, rw remoteWaiter, start int64) {
	if rw.hops >= maxForwardHops {
		lc.stats.Fallbacks.Add(1)
		nh, ok := r.fallbackLookup(addr)
		r.sendReply(lc, rw, addr, nh, ok, 0, lc.gen)
		return
	}
	lc.stats.ForwardedRequests.Add(1)
	lc.post(home, message{kind: mBatchRequest, addr: addr, from: rw.from, epoch: rw.epoch, hops: rw.hops + 1, start: start})
}

// maxFreeWaitlists caps an LC's free list, so that a burst of in-flight
// misses under a dead fabric does not become permanent heap.
const maxFreeWaitlists = 256

// park opens the waitlist of addr, which has none and is homed at another
// LC, on a recycled waitlist when the free list has one.
func (r *Router) park(lc *lineCard, addr ip.Addr) *waitlist {
	var wl *waitlist
	if n := len(lc.free); n > 0 {
		wl, lc.free = lc.free[n-1], lc.free[:n-1]
	} else {
		wl = &waitlist{}
	}
	lc.pending.put(addr, wl)
	return wl
}

// recycle puts a waitlist just taken out of lc.pending on the free list,
// indistinguishable from a new one except for slice capacity. locals is
// cleared, not truncated, to its capacity (release compacts it in place), so
// that a waitlist on the free list pins no batchDesc or trace.
func (lc *lineCard) recycle(wl *waitlist) {
	if len(lc.free) < maxFreeWaitlists {
		clear(wl.locals[:cap(wl.locals)])
		*wl = waitlist{locals: wl.locals[:0], remotes: wl.remotes[:0]}
		lc.free = append(lc.free, wl)
	}
}

// fallbackLookup resolves addr against the index of the current full-table
// snapshot, the authority of every degraded path: it always reflects the
// current table (UpdateTable and ApplyUpdates publish the new snapshot's
// before they return), and a batch reaches it whole, in one pointer store.
func (r *Router) fallbackLookup(addr ip.Addr) (rtable.NextHop, bool) {
	return r.fallback.Load().Lookup(addr)
}

// routeFor is the one place that decides whether a fresh miss parked on wl
// may be sent to its remote home, consulting every protection plane once.
// It reports whether the caller is to put the address on the fabric (a row
// of the run's request to home), having armed wl's deadline for it or
// released wl; the send itself is all that is left to the caller.
//
//   - Breaker open toward home (overload.go): the send is doomed, so the
//     waiters are answered from the fallback without touching the
//     fabric. Always interesting, so traced late if nobody was sampled.
//   - Home ejected (gray.go): the waiters are answered from the fallback
//     the same way, instead of paying its browned-out round trip, but the
//     address still goes on the request to home, as a probe nobody waits
//     on: its reply keeps the home's round-trip samples flowing, so that its
//     recovery is seen.
//
// A retry is not a fresh miss: checkDeadlines has its own rule for those
// and never claims a half-open probe.
func (r *Router) routeFor(lc *lineCard, addr ip.Addr, home int, wl *waitlist, now int64) bool {
	if r.overload && !r.breakerAllows(lc, home) {
		lc.ov.breakerShorts.Add(1)
		lc.stats.Fallbacks.Add(1)
		r.lateTraceFor(lc, addr, wl)
		wl.tr.Record(tracing.EvBreaker, int64(home), int64(lc.ov.breakers[home].state.Load()))
		wl.tr.Record(tracing.EvFallback, int64(lc.id), 0)
		nh, ok := r.fallbackLookup(addr)
		r.fillAndRelease(lc, addr, nh, ok, cache.REM, ServedByFallback)
		return false
	}
	wl.tr.Record(tracing.EvFabricSend, int64(home), 1)
	if r.ejected(home) {
		lc.stats.Fallbacks.Add(1)
		r.ejectServed.Add(1)
		wl.tr.Record(tracing.EvEject, int64(home), 0)
		wl.tr.Record(tracing.EvFallback, int64(lc.id), 0)
		nh, ok := r.fallbackLookup(addr)
		r.fillAndRelease(lc, addr, nh, ok, cache.REM, ServedByFallback)
		return true
	}
	wl.attempts = 1
	wl.deadline = now + int64(r.timeout)
	return true
}

// replyArrived is the per-message half of reply intake: one answer from
// home — a fabric reply or a direct exchange's — is one successful round
// trip. sent is its request's send stamp, zero to go unsampled.
func (r *Router) replyArrived(lc *lineCard, from int, sent int64) {
	if sent != 0 && r.gray != nil && !r.gray[lc.id].degraded.Load() {
		// Attributed to the responding home, ejected or not, so that its
		// recovery is seen. A degraded requester abstains: its round trips
		// ride its own browned-out links, and charging them to the home would
		// mask the true outlier.
		r.gray[from].observe(r.now() - sent)
	}
	if r.overload {
		// It closes the responder's breaker and refills the retry bucket.
		r.breakerSuccess(lc, from)
		lc.ov.retry.refill()
		lc.ov.mirrorBudget()
	}
}

// fill installs a result in lc's cache, when it has one.
func (lc *lineCard) fill(addr ip.Addr, nh rtable.NextHop, origin cache.Origin) {
	if lc.cache != nil {
		lc.cache.Fill(addr, nh, origin)
	}
}

// fillAndRelease installs a result and answers everything parked on it.
func (r *Router) fillAndRelease(lc *lineCard, addr ip.Addr, nh rtable.NextHop, ok bool, origin cache.Origin, servedBy ServedBy) {
	lc.fill(addr, nh, origin)
	r.release(lc, addr, nh, ok, origin, servedBy, lc.gen)
}

// fillStaleRelease handles a fabric reply whose value predates a table
// generation this LC has already applied and invalidated for. The parked
// lookups were in flight across the update window and may observe it, but
// it must not outlive the window as a cache entry: Fill still runs (it
// clears the W block, so later probes re-dispatch instead of parking
// forever) and a point invalidation drops the entry again. Remote waiters
// are answered with the value's true generation, so the next hop applies the
// same rule.
func (r *Router) fillStaleRelease(lc *lineCard, addr ip.Addr, nh rtable.NextHop, ok bool, valueGen uint64) {
	lc.stats.StaleGenReplies.Add(1)
	if lc.cache != nil {
		lc.cache.Fill(addr, nh, cache.REM)
		lc.cache.InvalidateRange(addr, addr)
	}
	r.release(lc, addr, nh, ok, cache.REM, ServedByRemote, valueGen)
}

// release answers everything parked on addr with the verdict. valueGen is
// the table generation the value reflects, echoed to remote waiters.
func (r *Router) release(lc *lineCard, addr ip.Addr, nh rtable.NextHop, ok bool, origin cache.Origin, servedBy ServedBy, valueGen uint64) {
	wl := lc.pending.delete(addr)
	if wl == nil {
		return
	}
	lc.nwaiters -= int64(len(wl.locals) + len(wl.remotes))
	if valueGen < lc.gen {
		// A stale value answers only waiters that parked before this LC
		// applied the newer batch; later ones were promised the updated
		// table, so they are re-driven against the current engine (the entry
		// is gone: the re-drive parks and dispatches anew).
		keepL, keepR := wl.locals[:0], wl.remotes[:0]
		var redriveL []localWaiter
		var redriveR []remoteWaiter
		for _, w := range wl.locals {
			if w.gen > valueGen {
				redriveL = append(redriveL, w)
			} else {
				keepL = append(keepL, w)
			}
		}
		for _, rw := range wl.remotes {
			if rw.gen > valueGen {
				redriveR = append(redriveR, rw)
			} else {
				keepR = append(keepR, rw)
			}
		}
		wl.locals, wl.remotes = keepL, keepR
		defer r.redrive(lc, addr, redriveL, redriveR)
	}
	wl.tr.Record(tracing.EvFill, int64(origin), int64(servedBy))
	r.answer(lc, wl, Verdict{Addr: addr, NextHop: nh, OK: ok, ServedBy: servedBy}, wl.feNS, valueGen)
	lc.recycle(wl)
}

// redrive puts waiters taken off addr's waitlist through this LC's
// handlers again, which park and dispatch them anew against the table it
// holds now.
func (r *Router) redrive(lc *lineCard, addr ip.Addr, locals []localWaiter, remotes []remoteWaiter) {
	for _, w := range locals {
		w.tr.Record(tracing.EvRedrive, int64(lc.id), 0)
		r.handleLookup(lc, &message{kind: mLookup, addr: addr, bd: w.bd, slot: w.slot, start: w.bd.start, tr: w.tr})
	}
	for _, rw := range remotes {
		r.handleBatchRequest(lc, message{kind: mBatchRequest, addr: addr, from: rw.from, epoch: rw.epoch, hops: rw.hops})
	}
}

// answer delivers v to every waiter on wl: each local lookup records its own
// latency and span and has its slot written and counted — the count leaves
// the descriptor's countdown when another descriptor's slot turns up, and in
// leave, every slot write ahead of the add that may complete it — and remote
// waiters get a reply stamped with gen, the generation the value reflects.
func (r *Router) answer(lc *lineCard, wl *waitlist, v Verdict, feNS int64, gen uint64) {
	for _, w := range wl.locals {
		r.finish(lc, v.ServedBy, w.bd.start, traceID(w.tr), 1)
		r.finishTrace(w.tr, v.ServedBy, v.OK)
		w.bd.out[w.slot] = v
		if w.bd != lc.resolvedBD {
			r.bdResolveN(lc.resolvedBD, lc.resolved) // nothing, the first time
			lc.resolvedBD, lc.resolved = w.bd, 0
		}
		lc.resolved++
	}
	if wl.trLate { // the address's, not any waiter's
		r.finishTrace(wl.tr, v.ServedBy, v.OK)
	}
	for _, rw := range wl.remotes {
		r.sendReply(lc, rw, v.Addr, v.NextHop, v.OK, feNS, gen)
	}
}

// sendReply answers a remote waiter with a reply of one row. gen is the
// table generation the value was computed against (usually lc.gen; older
// when relaying a stale-gen fill), letting the requester keep
// generationally stale values out of its cache.
func (r *Router) sendReply(lc *lineCard, rw remoteWaiter, addr ip.Addr, nh rtable.NextHop, ok bool, feNS int64, gen uint64) {
	lc.stats.RepliesSent.Add(1)
	lc.post(rw.from, message{kind: mBatchReply, addr: addr, nextHop: nh, ok: ok, from: lc.id, epoch: rw.epoch, hops: rw.hops, feNS: feNS, gen: gen})
}

// Lookup submits a destination address at line card lc and waits for the
// verdict. On a router built WithOverload it returns ErrOverloaded when
// the lookup is shed — refused at admission (full inbox) or abandoned
// mid-flight (waitlist overflow, replay shed).
func (r *Router) Lookup(lc int, addr ip.Addr) (Verdict, error) {
	return r.lookup(context.Background(), lc, addr)
}

// LookupCtx is Lookup honoring a context: it returns ctx.Err() as soon as
// the context is cancelled or its deadline passes. The lookup itself is
// not recalled from the forwarding plane — its result is discarded, and
// whoever answers it last returns its descriptor to the pool.
func (r *Router) LookupCtx(ctx context.Context, lc int, addr ip.Addr) (Verdict, error) {
	if err := ctx.Err(); err != nil {
		return Verdict{}, err
	}
	return r.lookup(ctx, lc, addr)
}

// lookup is the synchronous lookup. When the arrival LC is idle the caller
// runs the handler itself and a verdict the LC has on the spot — a cache
// hit, a miss it or an idle home answers — comes back as a return value: no
// allocation, no goroutine switch. A lookup that has to wait (a miss in
// flight) or to queue (a busy LC) waits on a one-row batch descriptor. A hit
// needs neither deadline nor retry clock, so an inline lookup is stamped here
// only if it is traced, has no cache to hit, or the LC's hit timer is due
// (it has never timed an inline hit, or hitTimedEvery-1 went untimed since);
// else handleLookup stamps it at a miss.
func (r *Router) lookup(ctx context.Context, i int, addr ip.Addr) (Verdict, error) {
	if i < 0 || i >= r.cfg.NumLCs {
		return Verdict{}, fmt.Errorf("router: no such LC %d", i)
	}
	m := message{kind: mLookup, addr: addr, tr: r.tracer.Sample(i, addr)}
	if lc := r.enter(i); lc != nil {
		if m.tr != nil || lc.cache == nil || lc.hitNS == 0 || lc.untimedHits >= hitTimedEvery-1 {
			r.stamp(&m, i)
		}
		v, done := r.handleLookup(lc, &m)
		r.leave(lc, m.start)
		if done {
			return v, nil
		}
	} else if err := r.submit(ctx, i, &m); err != nil {
		return Verdict{}, err
	}
	if err := r.wait(ctx, m.bd); err != nil {
		return Verdict{}, err
	}
	v := m.bd.out[0]
	putBatchDesc(m.bd)
	if v.ServedBy == ServedByShed {
		return Verdict{}, ErrOverloaded
	}
	return v, nil
}

// submit stamps lookup m, gives it a pooled one-row descriptor to wait on
// and admits it at LC i — synchronously: by default it blocks while the
// LC's queue is full, and on a router built WithOverload a full queue
// refuses it with ErrOverloaded. A lookup shed after admission is answered
// ServedByShed in its slot.
func (r *Router) submit(ctx context.Context, i int, m *message) error {
	r.stamp(m, i)
	m.bd, m.slot = getBatchDesc(1, m.start), 0
	if err := r.admit(ctx, i, *m); err != nil {
		putBatchDesc(m.bd)
		return err
	}
	return nil
}

// hitTimedEvery: one inline cache hit in this many at an LC is timed (see lineCard.untimedHits).
const hitTimedEvery = 16

// stamp gives lookup m, submitted at LC i, its submission time, which is
// also where its trace, if it was sampled for one, starts.
func (r *Router) stamp(m *message, i int) {
	m.start = r.now()
	if m.tr != nil {
		m.tr.Start = r.at(m.start)
		m.tr.Record(tracing.EvArrival, int64(i), 0)
	}
}

// LookupBatchCtx pipelines a whole slice of destinations at one line card
// and collects their verdicts, honoring a context.
//
// Ordering guarantee: on success, out[i] is the verdict for addrs[i] —
// positional, regardless of the order the forwarding plane resolves them
// in (coalescing, retries and re-homing can complete lookups in any
// internal order). Duplicate addresses each get their own verdict.
//
// On a router built WithOverload, admission refusal (full inbox) fails
// the whole batch with ErrOverloaded; a lookup shed after admission
// (waitlist overflow, replay shed) keeps its position and reports as a
// Verdict with ServedBy == ServedByShed and OK == false.
//
// On cancellation (or deadline expiry) the call returns ctx.Err() and a
// nil slice. Lookups already submitted are not recalled from the
// forwarding plane: they run to completion inside the router and their
// results are discarded; the last one to land returns the batch
// descriptor to its pool, so an abandoned batch costs nothing lasting.
func (r *Router) LookupBatchCtx(ctx context.Context, lc int, addrs []ip.Addr) ([]Verdict, error) {
	out := make([]Verdict, len(addrs))
	if err := r.LookupBatchInto(ctx, lc, addrs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// HomeLC exposes the partitioning decision for an address.
func (r *Router) HomeLC(addr ip.Addr) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.part.HomeLC(addr)
}

// PartitionBits returns the control-bit positions in use.
func (r *Router) PartitionBits() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.part.Bits...)
}

// NumLCs returns ψ.
func (r *Router) NumLCs() int { return r.cfg.NumLCs }

// Stats returns the live per-LC counters, exact as it returns for every live
// LC: it first folds the LC's untraced inline cache hits into them under its
// lock (see lineCard.untimedHits), allocating nothing. A held slice stays
// live and lags an LC by at most 15 such hits or one tick; a reader that
// loads CacheHits before Lookups never reads more hits than lookups.
//
// Deprecated: use Metrics, which returns an immutable snapshot covering
// these counters plus latency histograms and LR-cache occupancy, and
// supports Delta for interval rates. Stats remains for zero-allocation
// reads.
func (r *Router) Stats() []*LCStats {
	for i, lc := range r.lcs {
		if lc.live.Load() && lc.unfolded.Load() {
			r.own(i, (*lineCard).foldHits)
		}
	}
	return r.stats
}

// FlushCaches invalidates every LR-cache (the paper's response to a
// routing-table update). It is synchronous — on return every cache has
// been flushed — and lands even when every inbox is at capacity.
func (r *Router) FlushCaches() {
	for i := range r.lcs {
		r.own(i, func(lc *lineCard) {
			if lc.cache != nil {
				lc.cache.Flush()
			}
		})
	}
}

// UpdateTable swaps in a new routing table in two phases, the second
// begun only when the first is complete everywhere: first every LC
// installs its new engine and home function, then every LC bumps its
// reply epoch, flushes its LR-cache and re-drives its pending lookups.
// The epoch guard drops replies computed before the update, so once
// UpdateTable returns, every subsequent lookup (and every cache fill)
// reflects the new table. Lookups concurrent with the update window
// itself may observe either table.
//
// The new partitioning is computed over the currently alive LCs (see
// lifecycle.go): drained and down slots stay out of service across an
// update. UpdateTable fails if no LC is alive.
func (r *Router) UpdateTable(tbl *rtable.Table) error {
	if tbl == nil || tbl.Len() == 0 {
		return errors.New("router: empty routing table")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped.Load() {
		return ErrStopped
	}
	alive := r.aliveLCsLocked()
	if len(alive) == 0 {
		return errors.New("router: no active line cards")
	}
	part := partition.Subset(tbl, r.cfg.NumLCs, alive)

	// Publish the degraded path's table first: from here on a fallback
	// resolution may observe either table, which is within the documented
	// update-window semantics, and once UpdateTable returns it is
	// guaranteed to be the new one.
	r.fallback.Store(rtable.NewIndex(part.Full()))
	r.gen++

	if err := r.swapPartitioning(part, part.Tables()); err != nil {
		return err
	}
	r.part = part
	return nil
}

// swapPartitioning runs the two-phase swap against every LC: installTable
// everywhere, then rekey everywhere (a slot that is not live is skipped, see
// install). The engines are built from tables, part.Tables(), which it
// empties as it goes. r.mu must be held.
func (r *Router) swapPartitioning(part *partition.Partitioning, tables []*rtable.Table) error {
	if r.stopped.Load() {
		return ErrStopped
	}
	// Every engine is built before the first LC is told to swap: the LCs
	// disagree about the table from the first install to the last, and
	// requests that cross that line are answered stale and re-driven until
	// the trailing home has its install, so the window must not also
	// contain ψ engine builds.
	engines := make([]lpm.Engine, r.cfg.NumLCs)
	for i := range engines {
		engines[i] = r.cfg.Engine(tables[i])
		tables[i] = nil
	}
	homeOf := part.Home()
	for i := range r.lcs {
		r.install(i, func(lc *lineCard) { lc.installTable(engines[i], homeOf, r.gen) })
	}
	for i := range r.lcs {
		r.install(i, r.rekey)
	}
	// Once the router has stopped no slot is live, so the phases above
	// degenerate to all-skips; never report such a swap as a success.
	if r.stopped.Load() {
		return ErrStopped
	}
	return nil
}

// installTable is phase 1 of a table swap at one LC: the engine built for
// it, the new partitioning's home function and the generation, under one
// ownership.
func (lc *lineCard) installTable(engine lpm.Engine, homeOf func(ip.Addr) int, gen uint64) {
	lc.engine = engine
	lc.homeOf = homeOf
	lc.gen = gen
	// Nothing in the cache may predate lc.gen: from here on this LC
	// stamps its replies with the new generation, and an entry of the
	// old table served under that stamp would pass both the epoch and
	// the generation guard of a requester that has already rekeyed.
	// Replies from homes that have not swapped yet now arrive with
	// m.gen < lc.gen and take the fillStaleRelease path.
	if lc.cache != nil {
		lc.cache.Flush()
	}
}

// rekey is phase 2, run once every LC has its phase 1: the reply epoch
// moves, so nothing computed before the swap can fill the flushed cache,
// and the pending lookups are re-driven against the new table so nothing
// strands across the swap.
func (r *Router) rekey(lc *lineCard) {
	lc.epoch++
	if lc.cache != nil {
		lc.cache.Flush()
	}
	lc.nwaiters = 0 // the re-drive below re-registers every waiter
	for _, e := range lc.pending.take() {
		wl := e.wl
		r.redrive(lc, e.addr, wl.locals, wl.remotes)
		if wl.trLate {
			// A late trace rides the waitlist, not a waiter; the
			// re-drive builds fresh waitlists, so close it out here
			// rather than leak it unfinished.
			wl.tr.Record(tracing.EvRedrive, int64(lc.id), 0)
			r.finishTrace(wl.tr, ServedByUnknown, false)
		}
	}
}

// Stop shuts the router down and waits for its goroutines (the health
// monitor, any helper holding a delayed message) to exit. It is idempotent:
// the first call tears the router down, every
// subsequent call is a no-op that returns after the teardown completes.
// In-flight and future Lookup/LookupCtx/LookupBatch/UpdateTable calls
// return ErrStopped; Metrics keeps returning the final counter values.
func (r *Router) Stop() {
	// stopped is set under delayMu: a delayed fabric message joins delayWG
	// under the same lock and only while stopped is false, so every Add
	// happens before the waits below. The lock is not held while waiting —
	// a helper delivering its message may run handlers inline and be asked
	// to delay a reply, which takes the lock to find out it must not.
	r.delayMu.Lock()
	first := !r.stopped.Swap(true)
	r.delayMu.Unlock()
	if first {
		close(r.quit)
		// No LC serves anything from here on: callers that never block would
		// otherwise keep winning enter, and keep the P from Stop's waits.
		for _, lc := range r.lcs {
			lc.live.Store(false)
		}
	}
	r.wg.Wait()
	r.delayWG.Wait()
	for i := range r.lcs { // no scrape will own an LC again: record what one would have
		r.own(i, (*lineCard).foldHits)
	}
}
