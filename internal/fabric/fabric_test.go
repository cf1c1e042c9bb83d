package fabric

import (
	"slices"
	"testing"

	"spal/internal/stats"
)

func TestLatencyModels(t *testing.T) {
	if Latency(Crossbar, 1) != 0 || Latency(Bus, 1) != 0 {
		t.Error("single LC needs no fabric")
	}
	if Latency(Crossbar, 16) != 2 {
		t.Errorf("crossbar(16) = %d, want 2 (10 ns)", Latency(Crossbar, 16))
	}
	if Latency(Bus, 4) >= Latency(Bus, 32) {
		t.Error("bus latency must grow with size")
	}
	// Multistage: 4 LCs -> 1 stage, 16 -> 2 stages, 64 -> 3 stages.
	if Latency(Multistage, 4) != 2 || Latency(Multistage, 16) != 3 || Latency(Multistage, 64) != 4 {
		t.Errorf("multistage = %d/%d/%d", Latency(Multistage, 4), Latency(Multistage, 16), Latency(Multistage, 64))
	}
}

func TestKindString(t *testing.T) {
	if Bus.String() != "bus" || Crossbar.String() != "crossbar" || Multistage.String() != "multistage" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestMsgKindString(t *testing.T) {
	if Request.String() != "request" || Reply.String() != "reply" {
		t.Error("msg kind names wrong")
	}
	if MsgKind(9).String() == "" {
		t.Error("unknown msg kind should still render")
	}
}

func TestPipeDelivery(t *testing.T) {
	p := NewPipe(3)
	p.Send(10, Message{PacketID: 1})
	p.Send(11, Message{PacketID: 2})
	if got := p.Deliver(12); len(got) != 0 {
		t.Fatalf("early delivery: %v", got)
	}
	got := p.Deliver(13)
	if len(got) != 1 || got[0].PacketID != 1 {
		t.Fatalf("at t=13: %v", got)
	}
	got = p.Deliver(14)
	if len(got) != 1 || got[0].PacketID != 2 {
		t.Fatalf("at t=14: %v", got)
	}
	if p.Pending() != 0 {
		t.Errorf("Pending = %d", p.Pending())
	}
	if p.Sent() != 2 {
		t.Errorf("Sent = %d", p.Sent())
	}
}

func TestPipeZeroLatency(t *testing.T) {
	p := NewPipe(0)
	p.Send(5, Message{PacketID: 7})
	if got := p.Deliver(5); len(got) != 1 {
		t.Fatal("zero-latency message must arrive the same cycle")
	}
}

func TestPipeCompaction(t *testing.T) {
	p := NewPipe(1)
	for i := int64(0); i < 5000; i++ {
		p.Send(i, Message{PacketID: i})
		p.Deliver(i + 1)
	}
	if p.Pending() != 0 {
		t.Errorf("Pending = %d after drain", p.Pending())
	}
}

func TestPipeNegativeLatencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewPipe(-1)
}

func TestPipeOutOfOrderSendPanics(t *testing.T) {
	p := NewPipe(2)
	p.Send(10, Message{})
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	p.Send(5, Message{})
}

func TestPipeOutOfOrderSendAfterDrainPanics(t *testing.T) {
	// Regression: the order guard compared against the queue tail, so it
	// went blind whenever Deliver had fully drained the queue.
	p := NewPipe(2)
	p.Send(10, Message{})
	if got := p.Deliver(100); len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(got))
	}
	defer func() {
		if recover() == nil {
			t.Error("want panic on time-travelling send after drain")
		}
	}()
	p.Send(5, Message{})
}

// TestPipeTiesKeepFIFO: messages sent in one cycle arrive together and in
// send order, so the simulator's LC-ordered sends replay identically.
func TestPipeTiesKeepFIFO(t *testing.T) {
	p := NewPipe(2)
	for id := int64(1); id <= 3; id++ {
		p.Send(5, Message{PacketID: id})
	}
	got := p.Deliver(7)
	if len(got) != 3 || got[0].PacketID != 1 || got[1].PacketID != 2 || got[2].PacketID != 3 {
		t.Fatalf("same-cycle sends reordered: %v", got)
	}
}

// TestNextDrainsWhatDeliverDrains: two pipes fed the same sends, one
// drained by Deliver and one by Next, hand over the same messages in the
// same cycles and order, across the compaction that follows 1,024 pops.
func TestNextDrainsWhatDeliverDrains(t *testing.T) {
	byDeliver, byNext := NewPipe(7), NewPipe(7)
	rng := stats.NewRNG(3)
	var id int64
	compacted := false
	for now := int64(0); now < 4000; now++ {
		for n := rng.Range(0, 3); n > 0; n-- {
			id++
			m := Message{Kind: MsgKind(id & 1), Src: int(id % 5), Dst: int(id % 3), PacketID: id}
			byDeliver.Send(now, m)
			byNext.Send(now, m)
		}
		want := byDeliver.Deliver(now)
		var got []Message
		head := byNext.head
		for m, ok := byNext.Next(now); ok; m, ok = byNext.Next(now) {
			got = append(got, m)
		}
		compacted = compacted || byNext.head < head
		if !slices.Equal(got, want) {
			t.Fatalf("cycle %d: Next drained %v, Deliver %v", now, got, want)
		}
		if byNext.Pending() != byDeliver.Pending() {
			t.Fatalf("cycle %d: %d pending after Next, %d after Deliver", now, byNext.Pending(), byDeliver.Pending())
		}
	}
	if !compacted {
		t.Error("the run never reached the compaction")
	}
}

// TestNextArrival holds NextArrival to Next: the first cycle at which Next
// returns a message, found without popping one, across the compaction.
func TestNextArrival(t *testing.T) {
	p := NewPipe(5)
	if _, ok := p.NextArrival(); ok {
		t.Fatal("an empty pipe has an arrival")
	}
	rng := stats.NewRNG(9)
	var id int64
	for now := int64(0); now < 4000; now++ {
		for n := rng.Range(0, 2) * rng.Range(0, 1); n > 0; n-- {
			id++
			p.Send(now, Message{PacketID: id})
		}
		at, ok := p.NextArrival()
		if ok != (p.Pending() > 0) {
			t.Fatalf("cycle %d: NextArrival ok %v with %d pending", now, ok, p.Pending())
		}
		pending := p.Pending()
		if _, got := p.Next(at - 1); ok && got {
			t.Fatalf("cycle %d: Next popped a message before %d", now, at)
		}
		if p.Pending() != pending {
			t.Fatalf("cycle %d: NextArrival popped", now)
		}
		if _, got := p.Next(at); ok && !got {
			t.Fatalf("cycle %d: no message at %d", now, at)
		}
	}
}

// name is a 16-byte message of a type other than Message, the shape of the
// simulator's packet name.
type name struct {
	id    int64
	dst   int32
	hop   uint16
	reply bool
}

// TestPipeOf holds a pipe of another message type to Pipe's contract: in
// order, ties in send order, NextArrival the first cycle Next returns one
// (across the compaction), and an out-of-order send panics.
func TestPipeOf(t *testing.T) {
	p := NewPipeOf[name](4)
	if _, ok := p.Next(1 << 40); ok {
		t.Fatal("an empty pipe delivered")
	}
	rng := stats.NewRNG(5)
	var sent, got int64
	for now := int64(0); now < 4000; now++ {
		for n := rng.Range(0, 2); n > 0; n-- {
			sent++
			p.Send(now, name{id: sent, dst: int32(sent % 7), hop: uint16(sent), reply: sent&1 == 1})
		}
		at, ok := p.NextArrival()
		if ok != (p.Pending() > 0) {
			t.Fatalf("cycle %d: NextArrival ok %v with %d pending", now, ok, p.Pending())
		}
		if ok && at > now+4 {
			t.Fatalf("cycle %d: next arrival %d is past a latency away", now, at)
		}
		if _, early := p.Next(at - 1); ok && early {
			t.Fatalf("cycle %d: Next popped a message before %d", now, at)
		}
		for m, ok := p.Next(now); ok; m, ok = p.Next(now) {
			got++
			if want := (name{id: got, dst: int32(got % 7), hop: uint16(got), reply: got&1 == 1}); m != want {
				t.Fatalf("cycle %d: got %+v, want %+v", now, m, want)
			}
		}
	}
	if got+int64(p.Pending()) != sent || p.Sent() != sent {
		t.Fatalf("%d delivered + %d pending, %d sent (Sent %d)", got, p.Pending(), sent, p.Sent())
	}
	defer func() {
		if recover() == nil {
			t.Error("want panic on an out-of-order send")
		}
	}()
	p.Send(3, name{})
}

// BenchmarkPipeSendNext times one Send and one Next, the simulator's use of
// a pipe, for a Message (40 bytes) and for a 16-byte packet name: what the
// copies of a message cost.
func BenchmarkPipeSendNext(b *testing.B) {
	b.Run("msg=Message", func(b *testing.B) {
		p := NewPipe(3)
		for i := 0; i < b.N; i++ {
			now := int64(i)
			p.Send(now, Message{Kind: Reply, Src: i & 15, Dst: (i + 1) & 15, PacketID: now, Addr: uint32(i), NextHop: 7})
			p.Next(now)
		}
	})
	b.Run("msg=name16", func(b *testing.B) {
		p := NewPipeOf[name](3)
		for i := 0; i < b.N; i++ {
			now := int64(i)
			p.Send(now, name{id: now, dst: int32(i & 15), hop: 7, reply: true})
			p.Next(now)
		}
	})
}
