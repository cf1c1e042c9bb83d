// Package fabric models the switching fabric interconnecting line cards
// (Fig. 1). The paper deliberately abstracts the fabric to a latency that
// depends on its size — a few nanoseconds for recent crossbars, a
// multistage structure for larger ψ — and that is what this package
// provides: a latency model per fabric kind plus an in-order delay pipe
// that carries messages of any type between LCs. A Message copies what it
// carries; the simulator's message is a packet name (an id, a destination
// and a reply's next hop), the packet's fields staying in its record. The
// concurrent router, whose fabric is not lossless, draws each message's
// fate from the fault model in faults.go.
//
// Injection bandwidth (one message per cycle per port) is enforced by the
// line card's outgoing queue in the simulator, not here; the pipe itself
// is non-blocking, as a crossbar with per-port queues would be.
package fabric

import (
	"fmt"

	"spal/internal/ip"
	"spal/internal/rtable"
)

// Kind selects a fabric organization.
type Kind uint8

// Fabric organizations.
const (
	// Bus is a shared bus: cheap at small ψ, latency grows linearly.
	Bus Kind = iota
	// Crossbar is a single-stage crossbar: flat low latency up to its
	// port count (the paper cites 10-port crossbars at 133 MHz).
	Crossbar
	// Multistage is a network of small crossbars: latency grows with
	// log2(ψ) stage count.
	Multistage
)

// String names the fabric kind.
func (k Kind) String() string {
	switch k {
	case Bus:
		return "bus"
	case Crossbar:
		return "crossbar"
	case Multistage:
		return "multistage"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Latency returns the one-way message latency in cycles for a fabric of
// the given kind connecting numLCs line cards. The numbers target the
// paper's regime: "packet latency over the fabric being 10 ns or less"
// (<= 2 cycles of 5 ns) for a moderate number of LCs.
func Latency(k Kind, numLCs int) int {
	if numLCs <= 1 {
		return 0
	}
	switch k {
	case Bus:
		// Arbitration plus transfer; degrades with contention domain size.
		return 1 + numLCs/4
	case Crossbar:
		// One switching hop: 2 cycles (10 ns) regardless of size, valid
		// up to a 16-port part.
		return 2
	default: // Multistage
		// One cycle per stage of 4x4 crossbars plus injection.
		stages := 0
		for n := 1; n < numLCs; n *= 4 {
			stages++
		}
		return 1 + stages
	}
}

// MsgKind distinguishes lookup requests from replies.
type MsgKind uint8

// Message kinds.
const (
	Request MsgKind = iota // packet forwarded to its home LC for lookup
	Reply                  // lookup result returned to the arrival LC
)

// String names the message kind.
func (k MsgKind) String() string {
	switch k {
	case Request:
		return "request"
	case Reply:
		return "reply"
	default:
		return fmt.Sprintf("msgkind(%d)", uint8(k))
	}
}

// Message is one unit crossing the fabric, and what an Injector decides on.
type Message struct {
	Kind     MsgKind
	Src, Dst int
	PacketID int64
	Addr     ip.Addr
	NextHop  rtable.NextHop // valid for Reply
}

type inflight[M any] struct {
	arrival int64
	msg     M
}

// Pipe is a fixed-latency, in-order channel of messages of any type M, a
// Message or the simulator's 16-byte packet name. Each value is copied in
// and out whole, so a small M makes a cheap pipe. Sends must use
// non-decreasing timestamps (the simulator's cycle counter).
type Pipe[M any] struct {
	latency  int64
	queue    []inflight[M] // FIFO; arrival times are non-decreasing
	head     int
	sent     int64
	lastSend int64 // timestamp of the most recent Send, for the order guard
}

// NewPipe builds a pipe of Messages with the given one-way latency in
// cycles.
func NewPipe(latencyCycles int) *Pipe[Message] { return NewPipeOf[Message](latencyCycles) }

// NewPipeOf builds a pipe of M with the given one-way latency in cycles.
func NewPipeOf[M any](latencyCycles int) *Pipe[M] {
	if latencyCycles < 0 {
		panic("fabric: negative latency")
	}
	return &Pipe[M]{latency: int64(latencyCycles)}
}

// Latency returns the pipe's one-way latency in cycles.
func (p *Pipe[M]) Latency() int64 { return p.latency }

// Send injects a message at cycle now; it will arrive at now+latency.
// Sends must use non-decreasing timestamps, which keeps the queue in
// arrival order; the guard compares against the last Send directly (not
// the tail of the queue), so it also catches a time-travelling send
// issued after the queue fully drained.
func (p *Pipe[M]) Send(now int64, m M) {
	if p.sent > 0 && now < p.lastSend {
		panic("fabric: out-of-order send")
	}
	p.lastSend = now
	p.queue = append(p.queue, inflight[M]{arrival: now + p.latency, msg: m})
	p.sent++
}

// Next pops the oldest message whose arrival time is <= now, if there is
// one: a consumer drains a cycle's arrivals with no slice built for them.
func (p *Pipe[M]) Next(now int64) (M, bool) {
	if p.head == len(p.queue) || p.queue[p.head].arrival > now {
		var zero M
		return zero, false
	}
	m := p.queue[p.head].msg
	p.head++
	// Compact once the consumed prefix dominates, keeping amortized O(1).
	if p.head > 1024 && p.head*2 > len(p.queue) {
		p.queue = append(p.queue[:0], p.queue[p.head:]...)
		p.head = 0
	}
	return m, true
}

// NextArrival returns the arrival cycle of the oldest undelivered message,
// the first cycle at which Next returns one, and false when none is in
// flight. It pops nothing.
func (p *Pipe[M]) NextArrival() (int64, bool) {
	if p.head == len(p.queue) {
		return 0, false
	}
	return p.queue[p.head].arrival, true
}

// Deliver pops every message whose arrival time is <= now.
func (p *Pipe[M]) Deliver(now int64) []M {
	var out []M
	for m, ok := p.Next(now); ok; m, ok = p.Next(now) {
		out = append(out, m)
	}
	return out
}

// Pending returns the number of undelivered messages.
func (p *Pipe[M]) Pending() int { return len(p.queue) - p.head }

// Sent returns the total number of messages injected.
func (p *Pipe[M]) Sent() int64 { return p.sent }
