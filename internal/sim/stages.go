// Per-stage latency accounting: the simulator's counterpart of the
// concurrent router's lookup traces. When Config.StageAccounting is set,
// each packet carries first-write-wins cycle stamps at the stage
// boundaries of the Fig. 2 pipeline, and the run report aggregates them
// into a per-stage breakdown table whose stage names align with the
// tracing package's event vocabulary (arrival, probe, fabric_send,
// fabric_recv, fe_exec, verdict).
package sim

import (
	"fmt"
	"strings"
)

// stageStamp holds one packet's stage-boundary cycles, indexed by stage;
// -1 = not reached. The stamps live in Router.stages, a slab beside the
// packet records that exists only under StageAccounting, so a run without
// accounting keeps none and pays one untaken branch a stamp.
type stageStamp [5]int64

const (
	stProbe   = iota // first LR-cache probe at the arrival LC
	stReqSend        // fabric request pushed toward the home LC
	stReqRecv        // request popped from the home LC's input queue
	stFEStart        // forwarding engine began the lookup
	stFEDone         // forwarding engine finished
)

// unstamped is a fresh packet's stamps.
var unstamped = stageStamp{-1, -1, -1, -1, -1}

// stamp records a stage boundary for packet id, first write wins (a
// bypassed reservation can re-run a stage; the breakdown keeps the first
// pass).
func (r *Router) stamp(id int64, stage int) {
	if !r.cfg.StageAccounting {
		return
	}
	if at := &r.stages[id][stage]; *at < 0 {
		*at = r.now
	}
}

// StageStats aggregates one pipeline stage over every packet that
// traversed it.
type StageStats struct {
	// Name identifies the interval in the tracing event vocabulary,
	// e.g. "fabric_send→fabric_recv".
	Name string
	// Packets that have both boundary stamps.
	Packets int64
	// MeanCycles is the mean interval length in 5 ns cycles.
	MeanCycles float64
}

// stageDefs enumerates the reported intervals. fe_queue starts at the
// request's arrival at the lookup site: reqRecv for remote lookups,
// probe for local ones.
var stageDefs = [...]struct {
	name     string
	from, to func(p *packet, s *stageStamp) int64
}{
	{"arrival→probe", func(p *packet, s *stageStamp) int64 { return p.arrivalCycle }, func(p *packet, s *stageStamp) int64 { return s[stProbe] }},
	{"fabric_send→fabric_recv", func(p *packet, s *stageStamp) int64 { return s[stReqSend] }, func(p *packet, s *stageStamp) int64 { return s[stReqRecv] }},
	{"fe_queue", func(p *packet, s *stageStamp) int64 {
		if s[stReqRecv] >= 0 {
			return s[stReqRecv]
		}
		return s[stProbe]
	}, func(p *packet, s *stageStamp) int64 { return s[stFEStart] }},
	{"fe_exec", func(p *packet, s *stageStamp) int64 { return s[stFEStart] }, func(p *packet, s *stageStamp) int64 { return s[stFEDone] }},
	{"fe_exec→verdict", func(p *packet, s *stageStamp) int64 { return s[stFEDone] }, func(p *packet, s *stageStamp) int64 { return p.completeCycle }},
}

// stageBreakdown turns the sums fold kept into per-stage means.
func (r *Router) stageBreakdown() []StageStats {
	if !r.cfg.StageAccounting {
		return nil
	}
	out := make([]StageStats, len(stageDefs))
	for j := range out {
		out[j].Name = stageDefs[j].name
		out[j].Packets = r.stagePacket[j]
		if out[j].Packets > 0 {
			out[j].MeanCycles = float64(r.stageSum[j]) / float64(out[j].Packets)
		}
	}
	return out
}

// StageTable renders the per-stage latency breakdown (empty string when
// the run had StageAccounting off).
func (res *Result) StageTable() string {
	if len(res.Stages) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("stage                      packets      mean cycles\n")
	for _, st := range res.Stages {
		fmt.Fprintf(&b, "%-26s %8d %16.2f\n", st.Name, st.Packets, st.MeanCycles)
	}
	return b.String()
}
