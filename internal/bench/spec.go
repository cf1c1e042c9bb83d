// Package bench is the reproducible perf-observability harness: a
// declarative experiment grid (engines × ψ × batch × churn ×
// corruption × repeats) whose cells run the real router and the cycle
// simulator in-process, emitting machine-readable records, BENCH_*.json
// snapshots, pprof profiles, and regression comparisons against prior
// snapshots.
//
// The grid spec is JSON so the same file drives local runs, CI, and the
// scripts/paper pipeline. A cell is one concrete combination of axis
// values; its name lists only the axes the spec left multi-valued
// (e.g. "LookupUnderChurn/rate=20"), so cell names stay stable across
// snapshots when single-valued axes are re-pinned.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"spal/internal/experiments"
	"spal/internal/lpm/engines"
	"spal/internal/trace"
)

// GridSpec is the declarative experiment grid, loaded from JSON.
type GridSpec struct {
	// Name labels the grid in records and snapshot environments.
	Name string `json:"name"`
	// Scale selects the figure-regeneration fidelity: "quick" or "full".
	Scale string `json:"scale,omitempty"`
	// Repeats is the number of measured runs per cell (default 3).
	Repeats int `json:"repeats,omitempty"`
	// WarmupRepeats runs are executed and recorded but excluded from
	// summaries — they absorb first-run effects (page faults, trained
	// branch predictors, lazily built tables).
	WarmupRepeats int `json:"warmup_repeats,omitempty"`
	// VarianceWarnRelStd flags a cell when the relative standard
	// deviation of its primary latency metric across measured repeats
	// exceeds this threshold (default 0.25).
	VarianceWarnRelStd float64 `json:"variance_warn_rel_std,omitempty"`

	Router []RouterExp `json:"router,omitempty"`
	Sim    []SimExp    `json:"sim,omitempty"`
	// Figures names experiments.* tables to regenerate as CSVs
	// alongside the grid (fig4, fig5, fig6, ...).
	Figures []string `json:"figures,omitempty"`
}

// RouterExp measures client-observed lookup latency on the real
// concurrent router, optionally under route churn and fill corruption.
// Every slice is an axis; the cross product of all axes yields cells.
type RouterExp struct {
	Name         string    `json:"name"`
	Engines      []string  `json:"engines,omitempty"`       // axis: engine (default bintrie)
	LCs          []int     `json:"lcs,omitempty"`           // axis: lcs (default 4)
	Batch        []int     `json:"batch,omitempty"`         // axis: batch; 0/1 = single-lookup path
	UpdateRates  []float64 `json:"update_rates,omitempty"`  // axis: rate (updates/sec, 0 = no churn)
	CorruptRates []float64 `json:"corrupt_rates,omitempty"` // axis: corrupt (fill corruption prob)
	SlowLCs      []int     `json:"slow_lcs,omitempty"`      // axis: slow (browned-out LC id; -1 = none)
	Hedge        []bool    `json:"hedge,omitempty"`         // axis: hedge (gray-failure subsystem on)

	TablePrefixes int     `json:"table_prefixes,omitempty"` // default 20000
	WarmupLookups int     `json:"warmup_lookups,omitempty"` // default 20000
	Lookups       int     `json:"lookups,omitempty"`        // timed lookups per run (default 50000)
	SlowFactor    float64 `json:"slow_factor,omitempty"`    // brownout severity for slow cells (default 10)
	TimeoutMS     float64 `json:"timeout_ms,omitempty"`     // request timeout override, ms (0 = router default)
	Seed          uint64  `json:"seed,omitempty"`           // default 1
}

// SimExp runs the trace-driven cycle simulator of the paper's Sec. 5.
type SimExp struct {
	Name          string    `json:"name"`
	Psi           []int     `json:"psi,omitempty"`             // axis: psi (default 16)
	Engines       []string  `json:"engines,omitempty"`         // axis: engine; "" = reference
	UpdatesPerSec []float64 `json:"updates_per_sec,omitempty"` // axis: updates
	CorruptRates  []float64 `json:"corrupt_rates,omitempty"`   // axis: corrupt
	FullFlush     []bool    `json:"full_flush,omitempty"`      // axis: flush (vs targeted invalidation)
	CacheBlocks   []int     `json:"cache_blocks,omitempty"`    // axis: beta; 0 = default

	PacketsPerLC  int    `json:"packets_per_lc,omitempty"` // default 20000
	TablePrefixes int    `json:"table_prefixes,omitempty"` // default 20000
	Trace         string `json:"trace,omitempty"`          // default D_75
	LookupCycles  int    `json:"lookup_cycles,omitempty"`  // default 40 (Lulea FE)
	ScrubEvery    int64  `json:"scrub_every,omitempty"`    // cycles; 0 = off
	Seed          uint64 `json:"seed,omitempty"`           // default 42
}

// RouterCell is one concrete router measurement: every axis pinned.
type RouterCell struct {
	Name          string
	Engine        string
	LCs           int
	Batch         int
	UpdateRate    float64
	CorruptRate   float64
	SlowLC        int // browned-out LC (-1 = none)
	Hedge         bool
	SlowFactor    float64
	TimeoutMS     float64
	TablePrefixes int
	WarmupLookups int
	Lookups       int
	Seed          uint64
}

// SimCell is one concrete simulator run: every axis pinned.
type SimCell struct {
	Name          string
	Psi           int
	Engine        string
	UpdatesPerSec float64
	CorruptRate   float64
	FullFlush     bool
	CacheBlocks   int
	PacketsPerLC  int
	TablePrefixes int
	Trace         string
	LookupCycles  int
	ScrubEvery    int64
	Seed          uint64
}

// Cell is one schedulable grid cell with its axis values recorded for
// the long-format CSV. Exactly one of Router/Sim is non-nil.
type Cell struct {
	Name   string
	Kind   string // "router" or "sim"
	Params map[string]string
	Router *RouterCell
	Sim    *SimCell
}

// LoadSpec reads and validates a grid spec.
func LoadSpec(r io.Reader) (*GridSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s GridSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("grid spec: %w", err)
	}
	s.applyDefaults()
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpecFile reads and validates a grid spec from a file.
func LoadSpecFile(path string) (*GridSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := LoadSpec(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func (s *GridSpec) applyDefaults() {
	if s.Scale == "" {
		s.Scale = "quick"
	}
	if s.Repeats <= 0 {
		s.Repeats = 3
	}
	if s.WarmupRepeats < 0 {
		s.WarmupRepeats = 0
	}
	if s.VarianceWarnRelStd <= 0 {
		s.VarianceWarnRelStd = 0.25
	}
	for i := range s.Router {
		e := &s.Router[i]
		if len(e.Engines) == 0 {
			e.Engines = []string{"bintrie"}
		}
		if len(e.LCs) == 0 {
			e.LCs = []int{4}
		}
		if len(e.Batch) == 0 {
			e.Batch = []int{0}
		}
		if len(e.UpdateRates) == 0 {
			e.UpdateRates = []float64{0}
		}
		if len(e.CorruptRates) == 0 {
			e.CorruptRates = []float64{0}
		}
		if len(e.SlowLCs) == 0 {
			e.SlowLCs = []int{-1}
		}
		if len(e.Hedge) == 0 {
			e.Hedge = []bool{false}
		}
		if e.TablePrefixes <= 0 {
			e.TablePrefixes = 20000
		}
		if e.WarmupLookups < 0 {
			e.WarmupLookups = 0
		} else if e.WarmupLookups == 0 {
			e.WarmupLookups = 20000
		}
		if e.Lookups <= 0 {
			e.Lookups = 50000
		}
		if e.SlowFactor <= 1 {
			e.SlowFactor = 10
		}
		if e.Seed == 0 {
			e.Seed = 1
		}
	}
	for i := range s.Sim {
		e := &s.Sim[i]
		if len(e.Psi) == 0 {
			e.Psi = []int{16}
		}
		if len(e.Engines) == 0 {
			e.Engines = []string{""}
		}
		if len(e.UpdatesPerSec) == 0 {
			e.UpdatesPerSec = []float64{0}
		}
		if len(e.CorruptRates) == 0 {
			e.CorruptRates = []float64{0}
		}
		if len(e.FullFlush) == 0 {
			e.FullFlush = []bool{false}
		}
		if len(e.CacheBlocks) == 0 {
			e.CacheBlocks = []int{0}
		}
		if e.PacketsPerLC <= 0 {
			e.PacketsPerLC = 20000
		}
		if e.TablePrefixes <= 0 {
			e.TablePrefixes = 20000
		}
		if e.Trace == "" {
			e.Trace = string(trace.D75)
		}
		if e.LookupCycles <= 0 {
			e.LookupCycles = 40
		}
		if e.Seed == 0 {
			e.Seed = 42
		}
	}
}

func (s *GridSpec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("grid spec: name is required")
	}
	if s.Scale != "quick" && s.Scale != "full" {
		return fmt.Errorf("grid spec: scale must be quick or full, got %q", s.Scale)
	}
	if len(s.Router) == 0 && len(s.Sim) == 0 && len(s.Figures) == 0 {
		return fmt.Errorf("grid spec %q: no router/sim experiments or figures", s.Name)
	}
	seen := map[string]bool{}
	for _, e := range s.Router {
		if e.Name == "" {
			return fmt.Errorf("grid spec %q: router experiment without a name", s.Name)
		}
		if seen[e.Name] {
			return fmt.Errorf("grid spec %q: duplicate experiment name %q", s.Name, e.Name)
		}
		seen[e.Name] = true
		for _, eng := range e.Engines {
			if _, err := engines.Lookup(eng); err != nil {
				return fmt.Errorf("router experiment %q: %w", e.Name, err)
			}
		}
		for _, n := range e.LCs {
			if n <= 0 {
				return fmt.Errorf("router experiment %q: lcs must be positive", e.Name)
			}
		}
		for _, b := range e.Batch {
			if b < 0 {
				return fmt.Errorf("router experiment %q: batch must be >= 0", e.Name)
			}
		}
		for _, r := range append(append([]float64(nil), e.UpdateRates...), e.CorruptRates...) {
			if r < 0 {
				return fmt.Errorf("router experiment %q: rates must be >= 0", e.Name)
			}
		}
		for _, slow := range e.SlowLCs {
			if slow < -1 {
				return fmt.Errorf("router experiment %q: slow_lcs entries must be >= -1", e.Name)
			}
			for _, n := range e.LCs {
				if slow >= n {
					return fmt.Errorf("router experiment %q: slow LC %d outside [0,%d)", e.Name, slow, n)
				}
			}
		}
		if e.TimeoutMS < 0 {
			return fmt.Errorf("router experiment %q: timeout_ms must be >= 0", e.Name)
		}
	}
	for _, e := range s.Sim {
		if e.Name == "" {
			return fmt.Errorf("grid spec %q: sim experiment without a name", s.Name)
		}
		if seen[e.Name] {
			return fmt.Errorf("grid spec %q: duplicate experiment name %q", s.Name, e.Name)
		}
		seen[e.Name] = true
		for _, eng := range e.Engines {
			if eng == "" {
				continue // reference matcher
			}
			if _, err := engines.Lookup(eng); err != nil {
				return fmt.Errorf("sim experiment %q: %w", e.Name, err)
			}
		}
		for _, p := range e.Psi {
			if p <= 0 {
				return fmt.Errorf("sim experiment %q: psi must be positive", e.Name)
			}
		}
		ok := false
		for _, p := range trace.Presets {
			if string(p) == e.Trace {
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("sim experiment %q: unknown trace preset %q", e.Name, e.Trace)
		}
	}
	for _, f := range s.Figures {
		if _, ok := experiments.Get(f); !ok {
			return fmt.Errorf("grid spec %q: unknown figure experiment %q (known: %s)",
				s.Name, f, strings.Join(experiments.Names(), " "))
		}
	}
	return nil
}

// Cells expands the grid into its concrete cells, router experiments
// first, preserving spec order and axis order within each experiment.
func (s *GridSpec) Cells() []Cell {
	var cells []Cell
	for _, e := range s.Router {
		cells = append(cells, e.cells()...)
	}
	for _, e := range s.Sim {
		cells = append(cells, e.cells()...)
	}
	return cells
}

// axisVal renders an axis value compactly ("0", "20", "1e-04" → "0.0001").
func axisVal(v any) string {
	switch x := v.(type) {
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(x)
	default:
		return fmt.Sprint(v)
	}
}

// cellName appends "/axis=value" for every axis the spec left
// multi-valued, keeping single-valued axes out of the name so it stays
// comparable across snapshots ("LookupUnderChurn/rate=20").
func cellName(base string, parts []string) string {
	if len(parts) == 0 {
		return base
	}
	return base + "/" + strings.Join(parts, "/")
}

func (e RouterExp) cells() []Cell {
	var out []Cell
	for _, eng := range e.Engines {
		for _, lcs := range e.LCs {
			for _, batch := range e.Batch {
				for _, rate := range e.UpdateRates {
					for _, corrupt := range e.CorruptRates {
						for _, slow := range e.SlowLCs {
							for _, hedge := range e.Hedge {
								var parts []string
								add := func(axis, val string, multi bool) {
									if multi {
										parts = append(parts, axis+"="+val)
									}
								}
								add("engine", eng, len(e.Engines) > 1)
								add("lcs", axisVal(lcs), len(e.LCs) > 1)
								add("batch", axisVal(batch), len(e.Batch) > 1)
								add("rate", axisVal(rate), len(e.UpdateRates) > 1)
								add("corrupt", axisVal(corrupt), len(e.CorruptRates) > 1)
								add("slow", axisVal(slow), len(e.SlowLCs) > 1)
								add("hedge", axisVal(hedge), len(e.Hedge) > 1)
								rc := &RouterCell{
									Name:          cellName(e.Name, parts),
									Engine:        eng,
									LCs:           lcs,
									Batch:         batch,
									UpdateRate:    rate,
									CorruptRate:   corrupt,
									SlowLC:        slow,
									Hedge:         hedge,
									SlowFactor:    e.SlowFactor,
									TimeoutMS:     e.TimeoutMS,
									TablePrefixes: e.TablePrefixes,
									WarmupLookups: e.WarmupLookups,
									Lookups:       e.Lookups,
									Seed:          e.Seed,
								}
								out = append(out, Cell{
									Name: rc.Name,
									Kind: "router",
									Params: map[string]string{
										"experiment": e.Name,
										"engine":     eng,
										"lcs":        axisVal(lcs),
										"batch":      axisVal(batch),
										"rate":       axisVal(rate),
										"corrupt":    axisVal(corrupt),
										"slow":       axisVal(slow),
										"hedge":      axisVal(hedge),
									},
									Router: rc,
								})
							}
						}
					}
				}
			}
		}
	}
	return out
}

func (e SimExp) cells() []Cell {
	var out []Cell
	for _, psi := range e.Psi {
		for _, eng := range e.Engines {
			for _, ups := range e.UpdatesPerSec {
				for _, corrupt := range e.CorruptRates {
					for _, flush := range e.FullFlush {
						for _, beta := range e.CacheBlocks {
							var parts []string
							add := func(axis, val string, multi bool) {
								if multi {
									parts = append(parts, axis+"="+val)
								}
							}
							add("psi", axisVal(psi), len(e.Psi) > 1)
							add("engine", eng, len(e.Engines) > 1)
							add("updates", axisVal(ups), len(e.UpdatesPerSec) > 1)
							add("corrupt", axisVal(corrupt), len(e.CorruptRates) > 1)
							add("flush", axisVal(flush), len(e.FullFlush) > 1)
							add("beta", axisVal(beta), len(e.CacheBlocks) > 1)
							sc := &SimCell{
								Name:          cellName(e.Name, parts),
								Psi:           psi,
								Engine:        eng,
								UpdatesPerSec: ups,
								CorruptRate:   corrupt,
								FullFlush:     flush,
								CacheBlocks:   beta,
								PacketsPerLC:  e.PacketsPerLC,
								TablePrefixes: e.TablePrefixes,
								Trace:         e.Trace,
								LookupCycles:  e.LookupCycles,
								ScrubEvery:    e.ScrubEvery,
								Seed:          e.Seed,
							}
							out = append(out, Cell{
								Name: sc.Name,
								Kind: "sim",
								Params: map[string]string{
									"experiment": e.Name,
									"psi":        axisVal(psi),
									"engine":     eng,
									"updates":    axisVal(ups),
									"corrupt":    axisVal(corrupt),
									"flush":      axisVal(flush),
									"beta":       axisVal(beta),
								},
								Sim: sc,
							})
						}
					}
				}
			}
		}
	}
	return out
}
