package fabric

import "testing"

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

// TestPipeSendDelayedReorders: a delayed (browned-out) message must not
// block later clean sends — SendDelayed insertion-sorts by arrival so
// Deliver's in-order head scan stays valid even when a slow message is
// overtaken by faster ones sent after it.
func TestPipeSendDelayedReorders(t *testing.T) {
	p := NewPipe(2)
	p.SendDelayed(10, 8, Message{PacketID: 1}) // arrives at 20
	p.Send(11, Message{PacketID: 2})           // arrives at 13: overtakes
	p.SendDelayed(12, 3, Message{PacketID: 3}) // arrives at 17: overtakes
	got := p.Deliver(13)
	if len(got) != 1 || got[0].PacketID != 2 {
		t.Fatalf("at t=13: %v, want the clean overtaker", got)
	}
	got = p.Deliver(19)
	if len(got) != 1 || got[0].PacketID != 3 {
		t.Fatalf("at t=19: %v, want the lightly delayed message", got)
	}
	got = p.Deliver(20)
	if len(got) != 1 || got[0].PacketID != 1 {
		t.Fatalf("at t=20: %v, want the browned-out straggler", got)
	}
	if p.Pending() != 0 || p.Sent() != 3 {
		t.Errorf("Pending=%d Sent=%d", p.Pending(), p.Sent())
	}
}

// TestPipeSendDelayedTiesKeepFIFO: equal arrival times preserve send
// order, so a same-link message pair never reorders.
func TestPipeSendDelayedTiesKeepFIFO(t *testing.T) {
	p := NewPipe(1)
	p.SendDelayed(5, 2, Message{PacketID: 1}) // arrives at 8
	p.SendDelayed(6, 1, Message{PacketID: 2}) // arrives at 8 too
	p.Send(7, Message{PacketID: 3})           // arrives at 8 too
	got := p.Deliver(8)
	if len(got) != 3 || got[0].PacketID != 1 || got[1].PacketID != 2 || got[2].PacketID != 3 {
		t.Fatalf("tied arrivals reordered: %v", got)
	}
}

// TestPipeSendDelayedNegativeExtraClamped: negative extra behaves as 0.
func TestPipeSendDelayedNegativeExtraClamped(t *testing.T) {
	p := NewPipe(3)
	p.SendDelayed(10, -5, Message{PacketID: 1})
	if got := p.Deliver(12); len(got) != 0 {
		t.Fatalf("negative extra delivered early: %v", got)
	}
	if got := p.Deliver(13); len(got) != 1 {
		t.Fatal("negative extra must clamp to the base latency")
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
