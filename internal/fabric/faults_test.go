package fabric

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"

	"spal/internal/ip"
)

// TestFaultStreamGolden: the decisions a Faults matrix draws are a function
// of its seed and configuration alone. For every configuration the router's
// tests, its chaos and gray suites and spal-router's fault flags set, the
// first 100,000 decisions over a fixed message sequence hash to the value the
// injectors this matrix replaced (a uniform one and a per-link one) drew, so
// a seed names the same fault schedule it always named.
func TestFaultStreamGolden(t *testing.T) {
	const seed = 0x5eed
	uniform := func(cfg LinkConfig) func() *Faults {
		return func() *Faults { return NewFaults(seed, cfg) }
	}
	for _, tc := range []struct {
		name   string
		faults func() *Faults
		want   uint64
	}{
		{"drop 0.05", uniform(LinkConfig{DropRate: 0.05}), 0x95fe44186a28c78c},
		{"drop 0.1", uniform(LinkConfig{DropRate: 0.1}), 0xcab88203727aa45d},
		{"drop 0.2", uniform(LinkConfig{DropRate: 0.2}), 0x92de62e0182b9a8d},
		{"drop 1", uniform(LinkConfig{DropRate: 1}), 0xff4dc63de17dd1a5},
		{"dup 1", uniform(LinkConfig{DupRate: 1}), 0x815b7783ea7248a5},
		{"chaos", uniform(LinkConfig{DropRate: 0.05, DupRate: 0.10, DelayRate: 0.20, Jitter: 2 * time.Millisecond}), 0xb3e310f0b5fcdd13},
		{"chaos mixed", uniform(LinkConfig{DropRate: 0.05, DupRate: 0.05, DelayRate: 0.15, Jitter: time.Millisecond}), 0xd328ad397508ec2c},
		{"batch", uniform(LinkConfig{DropRate: 0.05, DupRate: 0.10, DelayRate: 0.10, Jitter: 2 * time.Millisecond}), 0x2c995d5312c8d626},
		{"trace", uniform(LinkConfig{DropRate: 0.08, DupRate: 0.05, DelayRate: 0.1, Jitter: time.Millisecond}), 0x74fd0e5506b6f29a},
		{"link 0→1 drop", func() *Faults {
			f := NewFaults(seed, LinkConfig{})
			f.SetLink(0, 1, LinkConfig{DropRate: 1})
			return f
		}, 0x9d222e771df014ec},
		{"links delay 1ms", func() *Faults {
			f := NewFaults(seed, LinkConfig{})
			for from := 0; from < 4; from++ {
				for to := 0; to < 4; to++ {
					if from != to {
						f.SetLink(from, to, LinkConfig{Delay: time.Millisecond})
					}
				}
			}
			return f
		}, 0x9c0a9de7ddf76e71},
		{"slow 1 x10", func() *Faults {
			f := NewFaults(seed, LinkConfig{})
			f.SlowLC(1, 10)
			return f
		}, 0xf9077f9425771545},
		{"slow 1 x10 nominal 300us", func() *Faults {
			f := NewFaults(seed, LinkConfig{})
			f.Nominal = 300 * time.Microsecond
			f.SlowLC(1, 10)
			return f
		}, 0x2614d4a59d1b49d5},
	} {
		if got := streamHash(tc.faults().Decide); got != tc.want {
			t.Errorf("%s: the first 100,000 decisions hash to %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// streamHash is the FNV-64a hash of inj's decisions on 100,000 messages
// between four line cards, drawn from a fixed sequence.
func streamHash(inj Injector) uint64 {
	h := fnv.New64a()
	var buf [10]byte
	for i := uint64(0); i < 100000; i++ {
		x := splitmix64(i)
		m := Message{Src: int(x & 3), Dst: int(x >> 2 & 3), Addr: ip.Addr(x >> 32)}
		if x>>4&1 == 1 {
			m.Kind = Reply
		}
		d := inj(m)
		buf[0], buf[1] = 0, 0
		if d.Drop {
			buf[0] = 1
		}
		if d.Duplicate {
			buf[1] = 1
		}
		binary.LittleEndian.PutUint64(buf[2:], uint64(d.Delay))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestFaultsCleanLinkDrawsNothing: a message on a link whose configuration
// is zero, to and from cards that are not browned out, advances no stream,
// so clean traffic does not move the decisions the faulty links draw.
func TestFaultsCleanLinkDrawsNothing(t *testing.T) {
	lossy := func(clean int) []Decision {
		f := NewFaults(3, LinkConfig{})
		f.SetLink(0, 1, LinkConfig{DropRate: 0.5, DelayRate: 0.5, Jitter: time.Millisecond})
		var out []Decision
		for i := 0; i < 64; i++ {
			for k := 0; k < clean; k++ {
				if d := f.Decide(Message{Src: 2, Dst: 3}); d != (Decision{}) {
					t.Fatalf("a clean link decided %+v", d)
				}
			}
			out = append(out, f.Decide(Message{Src: 0, Dst: 1}))
		}
		return out
	}
	a, b := lossy(0), lossy(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d on the lossy link: %+v alone, %+v beside clean traffic", i, a[i], b[i])
		}
	}
}
