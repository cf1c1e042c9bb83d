package sim

import (
	"encoding/json"
	"io"
)

// JSONResult is the machine-readable rendering of a Result: everything
// the human report prints plus the exact latency percentiles, keyed so a
// script reading spalsim -json never parses the report text. Field names
// are a schema — extend, don't rename.
type JSONResult struct {
	Config struct {
		NumLCs           int     `json:"num_lcs"`
		LookupCycles     int     `json:"lookup_cycles"`
		CacheEnabled     bool    `json:"cache_enabled"`
		CacheBlocks      int     `json:"cache_blocks"`
		CacheMixPercent  int     `json:"cache_mix_percent"`
		PartitionEnabled bool    `json:"partition_enabled"`
		Trace            string  `json:"trace"`
		PacketsPerLC     int     `json:"packets_per_lc"`
		Seed             uint64  `json:"seed"`
		UpdatesPerSecond float64 `json:"updates_per_sec"`
		UpdateFullFlush  bool    `json:"update_full_flush"`
	} `json:"config"`

	MeanLookupCycles float64 `json:"mean_lookup_cycles"`
	P50Cycles        int     `json:"p50_cycles"`
	P90Cycles        int     `json:"p90_cycles"`
	P95Cycles        int     `json:"p95_cycles"`
	P99Cycles        int     `json:"p99_cycles"`
	WorstCycles      int     `json:"worst_cycles"`

	Cycles            int64   `json:"cycles"`
	PacketsCompleted  int64   `json:"packets_completed"`
	DerivedMppsPerLC  float64 `json:"derived_mpps_per_lc"`
	DerivedMppsRouter float64 `json:"derived_mpps_router"`
	OfferedMppsRouter float64 `json:"offered_mpps_router"`
	HitRate           float64 `json:"hit_rate"`
	FabricMessages    int64   `json:"fabric_messages"`

	ChurnEvents             int64 `json:"churn_events"`
	ChurnRangeInvalidations int64 `json:"churn_range_invalidations"`
	ChurnStaleFills         int64 `json:"churn_stale_fills"`

	PerLC   []LCStats      `json:"per_lc"`
	Stages  []StageStats   `json:"stages,omitempty"`
	Windows []WindowSample `json:"windows,omitempty"`
}

// JSONReport assembles the machine-readable snapshot of the run.
func (res *Result) JSONReport() *JSONResult {
	j := &JSONResult{
		MeanLookupCycles:        res.MeanLookupCycles,
		P50Cycles:               res.P50,
		P90Cycles:               res.LatencyPercentile(0.90),
		P95Cycles:               res.P95,
		P99Cycles:               res.LatencyPercentile(0.99),
		WorstCycles:             res.WorstLookupCycles,
		Cycles:                  res.Cycles,
		PacketsCompleted:        res.PacketsCompleted,
		DerivedMppsPerLC:        res.DerivedMppsPerLC,
		DerivedMppsRouter:       res.DerivedMppsRouter,
		OfferedMppsRouter:       res.OfferedMppsRouter,
		HitRate:                 res.HitRate,
		FabricMessages:          res.FabricMessages,
		ChurnEvents:             res.ChurnEvents,
		ChurnRangeInvalidations: res.ChurnRangeInvalidations,
		ChurnStaleFills:         res.ChurnStaleFills,
		PerLC:                   res.PerLC,
		Stages:                  res.Stages,
		Windows:                 res.Samples,
	}
	j.Config.NumLCs = res.cfg.NumLCs
	j.Config.LookupCycles = res.cfg.LookupCycles
	j.Config.CacheEnabled = res.cfg.CacheEnabled
	j.Config.CacheBlocks = res.cfg.Cache.Blocks
	j.Config.CacheMixPercent = res.cfg.Cache.MixPercent
	j.Config.PartitionEnabled = res.cfg.PartitionEnabled
	j.Config.Trace = string(res.cfg.Trace)
	j.Config.PacketsPerLC = res.cfg.PacketsPerLC
	j.Config.Seed = res.cfg.Seed
	j.Config.UpdatesPerSecond = res.cfg.UpdatesPerSecond
	j.Config.UpdateFullFlush = res.cfg.UpdateFullFlush
	return j
}

// WriteJSON writes the indented JSON report followed by a newline.
func (res *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res.JSONReport())
}
