package trace

import (
	"math"
	"strconv"
	"testing"

	"spal/internal/ip"
	"spal/internal/rtable"
	"spal/internal/stats"
)

// refStream is the stream as Next drew it before Fill, one packet a call
// with the train coin a float compare: the reference Fill is held to. It
// shares only the pool and the drift epochs' shuffle with Fill.
type refStream struct {
	s       *Synthetic
	repeatP float64
}

func newRefStream(pool *Pool, cfg Config, salt uint64) *refStream {
	repeatP := 0.0
	if cfg.MeanTrain > 1 {
		repeatP = 1 - 1/cfg.MeanTrain
	}
	return &refStream{s: NewSynthetic(pool, cfg, salt), repeatP: repeatP}
}

func (r *refStream) refNext() ip.Addr {
	s := r.s
	s.generated++
	if s.started && s.rng.Float64() < r.repeatP {
		return s.current
	}
	i := s.pool.index(s.rng.Float64())
	if s.cfg.DriftEvery > 0 {
		s.maybeDrift(s.generated / s.cfg.DriftEvery)
		i = int(s.remap[i])
	}
	s.current = s.pool.addrs[i]
	s.started = true
	return s.current
}

// checkChunks fills a stream in the given chunk sizes — a negative size is
// one Next — and holds every address and Generated() after every chunk to
// the reference.
func checkChunks(t *testing.T, name string, pool *Pool, cfg Config, chunks []int) {
	t.Helper()
	src, ref := NewSynthetic(pool, cfg, 3), newRefStream(pool, cfg, 3)
	var buf []ip.Addr
	for c, n := range chunks {
		if n < 0 {
			a, _ := src.Next()
			buf = append(buf[:0], a)
		} else {
			buf = append(buf[:0], make([]ip.Addr, n)...)
			src.Fill(buf)
		}
		for k, a := range buf {
			if want := ref.refNext(); a != want {
				t.Fatalf("%s: chunk %d, address %d of %d: %s, reference %s", name, c, k, len(buf), ip.FormatAddr(a), ip.FormatAddr(want))
			}
		}
		if src.Generated() != ref.s.Generated() {
			t.Fatalf("%s: after chunk %d Generated() = %d, reference %d", name, c, src.Generated(), ref.s.Generated())
		}
	}
}

// TestFillMatchesNext holds Fill to the per-packet reference over the five
// presets, trains of every shape, drift epochs that end inside a chunk,
// on a chunk boundary and between two Next calls, and seeded chunk splits
// from 0 to 3,000 packets; and Slice to the reference in one call.
func TestFillMatchesNext(t *testing.T) {
	tbl := rtable.Small(5000, 1)
	rng := stats.NewRNG(11)
	split := func(total int) []int {
		var chunks []int
		for total > 0 {
			n := min(rng.Intn(3001), total)
			if rng.Intn(8) == 0 {
				n = -1 // one Next
			}
			chunks = append(chunks, n)
			total -= max(n, 1)
		}
		return chunks
	}
	for _, p := range Presets {
		cfg := PresetConfig(p)
		pool := NewPool(tbl, cfg)
		checkChunks(t, string(p), pool, cfg, []int{1 << 16})
		checkChunks(t, string(p)+"/split", pool, cfg, split(1<<17))

		ref := newRefStream(pool, cfg, 3)
		for k, a := range Slice(NewSynthetic(pool, cfg, 3), 1<<16) {
			if want := ref.refNext(); a != want {
				t.Fatalf("%s: Slice address %d: %s, reference %s", p, k, ip.FormatAddr(a), ip.FormatAddr(want))
			}
		}
	}
	for _, cfg := range []Config{
		{PoolSize: 2000, ZipfS: 1.2, MeanTrain: 4, Seed: 5, DriftEvery: 1000, DriftFraction: 0.5},
		{PoolSize: 500, ZipfS: 1.3, MeanTrain: 1, Seed: 9, DriftEvery: 7},
		{PoolSize: 500, ZipfS: 1.0, MeanTrain: 2.5, Seed: 2, DriftEvery: 1},
	} {
		pool := NewPool(tbl, cfg)
		d := int(cfg.DriftEvery)
		name := "drift" + strconv.Itoa(d)
		checkChunks(t, name+"/whole", pool, cfg, []int{50 * d})
		checkChunks(t, name+"/on-boundary", pool, cfg, []int{d - 1, d, d, -1, d - 1, 3*d + 1})
		checkChunks(t, name+"/split", pool, cfg, split(max(40*d, 20000)))
	}
}

// TestTrainCutIsFloatCompare checks the train coin's threshold against the
// float compare it replaced at the integers on either side of it, for
// every preset's train length and a few others.
func TestTrainCutIsFloatCompare(t *testing.T) {
	trains := []float64{1, 1.1, 1.3, 1.5, 2.5, 7, 1e9}
	for _, p := range Presets {
		trains = append(trains, PresetConfig(p).MeanTrain)
	}
	for _, train := range trains {
		s := NewSynthetic(&Pool{}, Config{MeanTrain: train}, 0)
		repeatP := 0.0
		if train > 1 {
			repeatP = 1 - 1/train
		}
		for _, m := range []uint64{0, 1, s.trainCut - 1, s.trainCut, s.trainCut + 1, 1<<53 - 1} {
			if m >= 1<<53 {
				continue
			}
			if got, want := m < s.trainCut, float64(m)/(1<<53) < repeatP; got != want {
				t.Errorf("MeanTrain %v, m = %d: integer coin %v, float coin %v", train, m, got, want)
			}
		}
	}
}

// FuzzFillChunks holds Fill to the per-packet reference on a 500-address
// pool with the fuzzer's train length, drift period and chunk sizes (each
// byte a chunk of 0–254 packets; 255 is one Next).
func FuzzFillChunks(f *testing.F) {
	f.Add(uint8(4), uint16(0), []byte{1, 2, 3, 255, 254, 0, 100})
	f.Add(uint8(1), uint16(7), []byte{6, 7, 255, 255, 13, 14, 200})
	f.Add(uint8(6), uint16(1), []byte{0, 1, 255, 2, 250})
	tbl := rtable.Small(3000, 7)
	f.Fuzz(func(t *testing.T, train uint8, drift uint16, data []byte) {
		cfg := Config{PoolSize: 500, ZipfS: 1.1, MeanTrain: float64(train) / 2, Seed: uint64(train), DriftEvery: int64(drift % 512)}
		chunks := make([]int, len(data))
		for i, b := range data {
			chunks[i] = int(b)
			if b == math.MaxUint8 {
				chunks[i] = -1
			}
		}
		checkChunks(t, "fuzz", NewPool(tbl, cfg), cfg, chunks)
	})
}
