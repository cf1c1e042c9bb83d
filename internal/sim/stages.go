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

// stageStamp holds one packet's stage-boundary cycles; -1 = not reached.
// It is 40 bytes of a record that exists only while the packet is in
// flight, so runs without accounting pay one untaken branch a stamp.
type stageStamp struct {
	probe   int64 // first LR-cache probe at the arrival LC
	reqSend int64 // fabric request pushed toward the home LC
	reqRecv int64 // request popped from the home LC's input queue
	feStart int64 // forwarding engine began the lookup
	feDone  int64 // forwarding engine finished
}

const (
	stProbe = iota
	stReqSend
	stReqRecv
	stFEStart
	stFEDone
)

// stamp records a stage boundary for packet p, first write wins (flush
// reissue can re-run a stage; the breakdown keeps the original pass).
func (r *Router) stamp(p *packet, stage int) {
	if !r.cfg.StageAccounting {
		return
	}
	s := &p.stages
	var at *int64
	switch stage {
	case stProbe:
		at = &s.probe
	case stReqSend:
		at = &s.reqSend
	case stReqRecv:
		at = &s.reqRecv
	case stFEStart:
		at = &s.feStart
	case stFEDone:
		at = &s.feDone
	}
	if *at < 0 {
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
	{"arrival→probe", func(p *packet, s *stageStamp) int64 { return p.arrivalCycle }, func(p *packet, s *stageStamp) int64 { return s.probe }},
	{"fabric_send→fabric_recv", func(p *packet, s *stageStamp) int64 { return s.reqSend }, func(p *packet, s *stageStamp) int64 { return s.reqRecv }},
	{"fe_queue", func(p *packet, s *stageStamp) int64 {
		if s.reqRecv >= 0 {
			return s.reqRecv
		}
		return s.probe
	}, func(p *packet, s *stageStamp) int64 { return s.feStart }},
	{"fe_exec", func(p *packet, s *stageStamp) int64 { return s.feStart }, func(p *packet, s *stageStamp) int64 { return s.feDone }},
	{"fe_exec→verdict", func(p *packet, s *stageStamp) int64 { return s.feDone }, func(p *packet, s *stageStamp) int64 { return p.completeCycle }},
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
