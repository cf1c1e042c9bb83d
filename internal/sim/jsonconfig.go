package sim

import (
	"encoding/json"
	"fmt"
	"io"

	"spal/internal/cache"
	"spal/internal/fabric"
	"spal/internal/trace"
)

// FileConfig is the JSON-serializable subset of Config used by the CLI
// tools (engines and tables are program-level choices; everything the
// paper sweeps is here).
type FileConfig struct {
	NumLCs           int     `json:"num_lcs"`
	LookupCycles     int     `json:"lookup_cycles"`
	DynamicLookup    bool    `json:"dynamic_lookup"`
	CacheBlocks      int     `json:"cache_blocks"`
	CacheAssoc       int     `json:"cache_assoc"`
	VictimBlocks     int     `json:"victim_blocks"`
	MixPercent       int     `json:"mix_percent"`
	CachePolicy      string  `json:"cache_policy"` // lru | fifo | random
	CacheEnabled     *bool   `json:"cache_enabled"`
	PartitionEnabled *bool   `json:"partition_enabled"`
	FabricKind       string  `json:"fabric_kind"` // bus | crossbar | multistage
	FabricLatency    int     `json:"fabric_latency"`
	FabricContention bool    `json:"fabric_contention"`
	SpeedGbps        int     `json:"speed_gbps"` // 10 or 40
	PacketsPerLC     int     `json:"packets_per_lc"`
	Trace            string  `json:"trace"`
	FlushEveryCycles int64   `json:"flush_every_cycles"`
	UpdatesPerSecond float64 `json:"updates_per_second"`
	UpdateFullFlush  bool    `json:"update_full_flush"`
	DisableEarlyRec  bool    `json:"disable_early_recording"`
	Seed             uint64  `json:"seed"`
}

// LoadConfig reads a FileConfig from JSON and converts it to a Config
// (Table and Engine remain to be set by the caller). Unset fields keep
// the paper's defaults.
func LoadConfig(r io.Reader) (Config, error) {
	fc := FileConfig{}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&fc); err != nil {
		return Config{}, fmt.Errorf("sim: bad config: %v", err)
	}
	return fc.ToConfig()
}

// ToConfig converts the file form, validating enumerations.
func (fc FileConfig) ToConfig() (Config, error) {
	cfg := DefaultConfig(nil)
	if fc.NumLCs > 0 {
		cfg.NumLCs = fc.NumLCs
	}
	if fc.LookupCycles > 0 {
		cfg.LookupCycles = fc.LookupCycles
	}
	cfg.DynamicLookup = fc.DynamicLookup
	if fc.CacheBlocks > 0 {
		cfg.Cache.Blocks = fc.CacheBlocks
	}
	if fc.CacheAssoc > 0 {
		cfg.Cache.Assoc = fc.CacheAssoc
	}
	if fc.VictimBlocks > 0 {
		cfg.Cache.VictimBlocks = fc.VictimBlocks
	}
	if fc.MixPercent > 0 {
		cfg.Cache.MixPercent = fc.MixPercent
	}
	switch fc.CachePolicy {
	case "", "lru":
		cfg.Cache.Policy = cache.LRU
	case "fifo":
		cfg.Cache.Policy = cache.FIFO
	case "random":
		cfg.Cache.Policy = cache.Random
	default:
		return cfg, fmt.Errorf("sim: unknown cache policy %q", fc.CachePolicy)
	}
	if fc.CacheEnabled != nil {
		cfg.CacheEnabled = *fc.CacheEnabled
	}
	if fc.PartitionEnabled != nil {
		cfg.PartitionEnabled = *fc.PartitionEnabled
	}
	switch fc.FabricKind {
	case "", "multistage":
		cfg.FabricKind = fabric.Multistage
	case "bus":
		cfg.FabricKind = fabric.Bus
	case "crossbar":
		cfg.FabricKind = fabric.Crossbar
	default:
		return cfg, fmt.Errorf("sim: unknown fabric kind %q", fc.FabricKind)
	}
	cfg.FabricLatency = fc.FabricLatency
	cfg.FabricContention = fc.FabricContention
	switch fc.SpeedGbps {
	case 0, 40:
	case 10:
		cfg.GapMin, cfg.GapMax = Gaps10Gbps()
	default:
		return cfg, fmt.Errorf("sim: speed must be 10 or 40, got %d", fc.SpeedGbps)
	}
	if fc.PacketsPerLC > 0 {
		cfg.PacketsPerLC = fc.PacketsPerLC
	}
	if fc.Trace != "" {
		cfg.Trace = trace.Preset(fc.Trace)
	}
	cfg.FlushEveryCycles = fc.FlushEveryCycles
	cfg.UpdatesPerSecond = fc.UpdatesPerSecond
	cfg.UpdateFullFlush = fc.UpdateFullFlush
	cfg.DisableEarlyRecording = fc.DisableEarlyRec
	if fc.Seed != 0 {
		cfg.Seed = fc.Seed
	}
	return cfg, nil
}
