// Package trace provides the packet-destination streams that drive the
// simulator. The paper uses WorldCup98 request logs (traces D_75, D_81),
// two Abilene-I PMA traces (L_92-0, L_92-1) and the Bell Labs-I trace; none
// of those artifacts ships here, so this package synthesizes streams with
// the property the simulator actually consumes — temporal locality — and
// names five presets after the paper's traces (see DESIGN.md,
// "Substitutions").
//
// The generative model combines the two locality mechanisms the
// measurement literature of the period reports:
//
//   - a Zipf popularity law over a fixed destination pool (a small share of
//     flows carries most packets; the paper cites 9% of AS-pair flows
//     carrying 90% of traffic), and
//   - packet trains: a flow emits several packets back-to-back, so repeats
//     arrive clustered rather than independently.
//
// Destinations are drawn from the routing table under simulation so every
// packet has a longest-prefix match.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strings"

	"spal/internal/ip"
	"spal/internal/rtable"
	"spal/internal/stats"
)

// Source yields one destination address per packet.
type Source interface {
	// Next returns the next destination. ok is false when the source is
	// exhausted (synthetic sources never are).
	Next() (a ip.Addr, ok bool)
}

// Config shapes a synthetic trace.
type Config struct {
	// PoolSize is the number of distinct destination addresses.
	PoolSize int
	// ZipfS is the Zipf skew parameter (popularity of rank r ∝ r^-s);
	// larger values concentrate traffic on fewer destinations.
	ZipfS float64
	// MeanTrain is the mean packet-train length: the expected number of
	// consecutive packets to the same destination. 1 disables trains.
	MeanTrain float64
	// DriftEvery > 0 rotates the popularity ranking every that many
	// packets: DriftFraction of the ranks are reshuffled, so the hot set
	// slowly migrates (flows die, new flows appear). The rotation is a
	// deterministic function of the stream epoch, so concurrent per-LC
	// streams keep sharing the same hot set.
	DriftEvery int64
	// DriftFraction is the share of ranks reshuffled per drift epoch
	// (default 0.1 when DriftEvery is set).
	DriftFraction float64
	// Seed drives pool construction.
	Seed uint64
}

// Preset names the five paper traces. The parameters differ in pool size,
// skew and train length so the five curves separate in Figs. 4-6, and are
// calibrated so a 4K-block LR-cache reaches the >0.93 hit-rate regime the
// paper reports for such traces.
type Preset string

// The paper's five traces.
const (
	D75  Preset = "D_75"   // WorldCup98, July 9 1998
	D81  Preset = "D_81"   // WorldCup98, July 15 1998
	L920 Preset = "L_92-0" // PMA Abilene-I
	L921 Preset = "L_92-1" // PMA Abilene-I
	BL   Preset = "B_L"    // PMA Bell Labs-I
)

// Presets lists the five paper traces in the order the figures plot them.
var Presets = []Preset{D75, D81, L920, L921, BL}

// PresetConfig returns the generator parameters for a named trace.
func PresetConfig(p Preset) Config {
	switch p {
	case D75:
		return Config{PoolSize: 24000, ZipfS: 1.10, MeanTrain: 4, Seed: 0x75}
	case D81:
		return Config{PoolSize: 32000, ZipfS: 1.05, MeanTrain: 4, Seed: 0x81}
	case L920:
		return Config{PoolSize: 36000, ZipfS: 1.05, MeanTrain: 3, Seed: 0x920}
	case L921:
		return Config{PoolSize: 40000, ZipfS: 1.04, MeanTrain: 3, Seed: 0x921}
	case BL:
		return Config{PoolSize: 16000, ZipfS: 1.20, MeanTrain: 6, Seed: 0xb1}
	default:
		panic(fmt.Sprintf("trace: unknown preset %q", string(p)))
	}
}

// Pool is a shared destination population with Zipf popularity. Multiple
// per-LC streams draw from one pool, so the same hot destinations appear
// at every line card — the property SPAL's remote-result caching exploits.
type Pool struct {
	addrs []ip.Addr
	cdf   []float64
	guide []int32 // see cutpoints
}

// guideSize is the number of cutpoints, a power of two so that u·guideSize
// is exact for every u a draw uses. 2^13 int32s is 32 KiB a pool.
const guideSize = 1 << 13

// NewPool draws cfg.PoolSize destinations from tbl (each guaranteed to
// match a route) and precomputes the Zipf CDF. It panics when tbl matches
// fewer distinct addresses than that.
func NewPool(tbl *rtable.Table, cfg Config) *Pool {
	if cfg.PoolSize <= 0 {
		panic("trace: PoolSize must be positive")
	}
	if n := matchedAddrs(tbl); n < uint64(cfg.PoolSize) {
		panic(fmt.Sprintf("trace: the table matches %d distinct addresses, fewer than PoolSize %d", n, cfg.PoolSize))
	}
	rng := stats.NewRNG(cfg.Seed*0x9e37 + 1)
	p := &Pool{addrs: make([]ip.Addr, cfg.PoolSize)}
	seen := make(map[ip.Addr]bool, cfg.PoolSize)
	for i := range p.addrs {
		a := tbl.RandomMatchedAddr(rng)
		for seen[a] {
			a = tbl.RandomMatchedAddr(rng)
		}
		seen[a] = true
		p.addrs[i] = a
	}
	// Rank order is the draw order, which is already random, so no extra
	// shuffle is needed.
	p.cdf = zipfCDF(cfg.PoolSize, cfg.ZipfS)
	p.guide = cutpoints(p.cdf)
	return p
}

// matchedAddrs counts the addresses some route of tbl matches: the union
// of the routes' spans, in one pass over them in ascending start order.
func matchedAddrs(tbl *rtable.Table) uint64 {
	var n, end uint64 // end: one past the highest address counted
	for _, r := range tbl.Routes() {
		lo, hi := uint64(r.Prefix.FirstAddr()), uint64(r.Prefix.LastAddr())+1
		if hi > end {
			n += hi - max(lo, end)
			end = hi
		}
	}
	return n
}

// zipfCDF is the Zipf CDF over ranks 1..n: popularity of rank r ∝ r^-s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// cutpoints is Chen & Asau's guide table: guide[k] is the smallest rank i
// with cdf[i] >= k/guideSize (the last rank if none is). A draw u has
// k/guideSize <= u for k = floor(u·guideSize), so no rank below guide[k]
// can be its answer and the scan from there is short.
func cutpoints(cdf []float64) []int32 {
	guide := make([]int32, guideSize)
	i := 0
	for k := range guide {
		for i < len(cdf)-1 && cdf[i] < float64(k)/guideSize {
			i++
		}
		guide[k] = int32(i)
	}
	return guide
}

// Size returns the pool population.
func (p *Pool) Size() int { return len(p.addrs) }

// index is the rank u in [0, 1) selects: the smallest i with cdf[i] >= u,
// the last rank if none is — exactly sort.SearchFloat64s(cdf, u) clamped,
// found from u's cutpoint instead of by bisection.
func (p *Pool) index(u float64) int {
	i := int(p.guide[int(u*guideSize)])
	for i < len(p.cdf)-1 && p.cdf[i] < u {
		i++
	}
	return i
}

// Draw samples one destination by popularity (exposed for custom
// generators built on the pool).
func (p *Pool) Draw(rng *stats.RNG) ip.Addr {
	return p.addrs[p.index(rng.Float64())]
}

// Synthetic is a deterministic, never-ending trace stream over a Pool.
type Synthetic struct {
	pool      *Pool
	cfg       Config
	rng       *stats.RNG
	trainCut  uint64 // a train continues when a draw's top 53 bits are below it
	current   ip.Addr
	started   bool
	generated int64

	// Drift state: remap permutes popularity ranks; rebuilt per epoch.
	remap      []int32
	driftEpoch int64
}

// NewSynthetic creates a per-LC stream. Streams with different salts over
// the same pool are independent but share the hot set.
func NewSynthetic(pool *Pool, cfg Config, salt uint64) *Synthetic {
	repeatP := 0.0
	if cfg.MeanTrain > 1 {
		repeatP = 1 - 1/cfg.MeanTrain
	}
	if cfg.DriftEvery > 0 && cfg.DriftFraction == 0 {
		cfg.DriftFraction = 0.1
	}
	return &Synthetic{
		pool: pool,
		cfg:  cfg,
		rng:  stats.NewRNG(cfg.Seed ^ (salt+1)*0x9e3779b97f4a7c15),
		// u = m/2^53 < repeatP, for the integer m = x>>11 that
		// stats.RNG.Float64 scales, is exactly m < ⌈repeatP·2^53⌉.
		trainCut: uint64(math.Ceil(repeatP * (1 << 53))),
	}
}

// Next implements Source: a Fill of one.
func (s *Synthetic) Next() (ip.Addr, bool) {
	var a [1]ip.Addr
	s.Fill(a[:])
	return a[0], true
}

// Fill writes the stream's next len(dst) destinations to dst. Each packet
// continues the current packet train with probability 1-1/MeanTrain, and
// otherwise starts a new flow by popularity, through the drift epoch's
// rank remap when the popularity drifts. Fill is the model: Next and
// Slice call it.
func (s *Synthetic) Fill(dst []ip.Addr) {
	rng, cut, pool := *s.rng, s.trainCut, s.pool
	cur, started := s.current, s.started
	for len(dst) > 0 {
		// Packet g (counted from 1) is in drift epoch g/DriftEvery: cut
		// the chunk at the first packet of the next epoch.
		seg := dst
		var remap []int32
		if d := s.cfg.DriftEvery; d > 0 {
			g := s.generated + 1
			s.maybeDrift(g / d)
			remap = s.remap
			if left := d - g%d; int64(len(seg)) > left {
				seg = seg[:left]
			}
		}
		for k := range seg {
			if started && rng.Uint64()>>11 < cut {
				seg[k] = cur
				continue
			}
			i := pool.index(rng.Float64())
			if remap != nil {
				i = int(remap[i])
			}
			cur, started = pool.addrs[i], true
			seg[k] = cur
		}
		s.generated += int64(len(seg))
		dst = dst[len(seg):]
	}
	*s.rng = rng
	s.current, s.started = cur, started
}

// maybeDrift brings the rank remap to drift epoch epoch. The shuffle
// depends only on (pool seed, epoch), so all per-LC streams agree on the
// hot set at equal epochs.
func (s *Synthetic) maybeDrift(epoch int64) {
	n := s.pool.Size()
	if s.remap == nil {
		s.remap = make([]int32, n)
		for i := range s.remap {
			s.remap[i] = int32(i)
		}
		s.driftEpoch = 0
	}
	// Apply the shuffle of each newly entered epoch incrementally; the
	// shuffle of epoch e depends only on (pool seed, e), so all per-LC
	// streams converge on the same mapping.
	swaps := int(float64(n) * s.cfg.DriftFraction)
	for e := s.driftEpoch + 1; e <= epoch; e++ {
		rng := stats.NewRNG(s.cfg.Seed*0x9e3779b97f4a7c15 + uint64(e))
		for k := 0; k < swaps; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			s.remap[i], s.remap[j] = s.remap[j], s.remap[i]
		}
	}
	s.driftEpoch = epoch
}

// Generated returns how many packets the stream has produced.
func (s *Synthetic) Generated() int64 { return s.generated }

// Slice materializes the next n destinations (testing and file export); a
// *Synthetic fills them in one call.
func Slice(src Source, n int) []ip.Addr {
	if s, ok := src.(*Synthetic); ok {
		out := make([]ip.Addr, n)
		s.Fill(out)
		return out
	}
	out := make([]ip.Addr, 0, n)
	for i := 0; i < n; i++ {
		a, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, a)
	}
	return out
}

// Write stores destinations one dotted-quad per line.
func Write(w io.Writer, addrs []ip.Addr) error {
	bw := bufio.NewWriter(w)
	for _, a := range addrs {
		if _, err := fmt.Fprintln(bw, ip.FormatAddr(a)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FileSource replays a stored trace; Next returns ok=false at the end.
type FileSource struct {
	addrs []ip.Addr
	pos   int
}

// Read parses a trace written by Write. Blank lines and '#' comments are
// skipped.
func Read(r io.Reader) (*FileSource, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	fs := &FileSource{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		a, err := ip.ParseAddr(text)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", line, err)
		}
		fs.addrs = append(fs.addrs, a)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return fs, nil
}

// Next implements Source.
func (fs *FileSource) Next() (ip.Addr, bool) {
	if fs.pos >= len(fs.addrs) {
		return 0, false
	}
	a := fs.addrs[fs.pos]
	fs.pos++
	return a, true
}

// Len returns the number of stored destinations.
func (fs *FileSource) Len() int { return len(fs.addrs) }

// Rewind restarts the replay.
func (fs *FileSource) Rewind() { fs.pos = 0 }
