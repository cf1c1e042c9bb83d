package main

import (
	"spal/internal/cache"
	"spal/internal/fabric"
	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/lpm/engines"
	"spal/internal/partition"
	"spal/internal/rtable"
)

// The ladder times each layer from outside: it rebuilds the components
// router.New (and sim.New) assemble — partition.Partition, one engine per
// partition plus the full-table engine, one cache.New(DefaultConfig) per
// LC — and replays the workload's own address stream through them in
// chunks of ladderChunk addresses, one span per chunk with one child span
// per layer call group, so a clock reading is amortised over thousands of
// calls.
const (
	ladderChunk = 4096
	// reprobe is how many of a chunk's most recent addresses are probed
	// again to time a Probe that hits: each was hit or filled moments ago,
	// so (set conflicts aside) it is resident.
	reprobe = 1024
)

// sink keeps results the ladder has no use for observable to the compiler.
var sink int

// parts is the standalone copy of a router's components, with the time
// each took to build.
type parts struct {
	tbl     *rtable.Table
	part    *partition.Partitioning
	engines []lpm.Engine
	full    lpm.Engine
	caches  []*cache.Cache

	synthS, partitionS, buildS float64
}

// buildParts builds the standalone components under set-up spans.
func buildParts(tr *tracer, sc scale, engine string, psi int) (*parts, error) {
	build, err := engines.Lookup(engine)
	if err != nil {
		return nil, err
	}
	p := &parts{}
	root := tr.begin("setup", noParent)
	defer tr.end(root)
	p.synthS = tr.time("rtable.synth", root, func() { p.tbl = sc.table() })
	p.partitionS = tr.time("partition.build", root, func() { p.part = partition.Partition(p.tbl, psi) })
	p.buildS = tr.time("lpm.build", root, func() {
		for lc := 0; lc < psi; lc++ {
			p.engines = append(p.engines, build(p.part.Table(lc)))
		}
		p.full = build(p.tbl)
	})
	for lc := 0; lc < psi; lc++ {
		p.caches = append(p.caches, cache.New(cache.DefaultConfig()))
	}
	return p, nil
}

// ladder is what the replay measured; times are nanoseconds per address
// (or per operation named), counts are per address.
type ladder struct {
	homeNS, partNS, fullNS, allNS float64
	accesses                      float64
	replayNS                      float64 // whole cache protocol, per address
	probeHitNS, missFillNS        float64
	hitRatio, evictions           float64
	pipeNS                        float64

	applyAllNS, partApplyNS, lpmUpdateNS float64 // per update
	invalidateNS                         float64 // per InvalidateRange call
	invalidatedPerUpdate                 float64
}

// replay pushes addrs through the standalone layers. The cache pass
// follows the SPAL protocol the router implements: probe the arrival LC's
// LR-cache; on a miss reserve a block, resolve at the home LC (whose own
// cache is probed and filled LOC when the home is remote) and fill the
// arrival block LOC or REM.
func (p *parts) replay(tr *tracer, addrs []ip.Addr, arrival uint64) ladder {
	psi := len(p.engines)
	var (
		homes   = make([]int, ladderChunk)
		hops    = make([]rtable.NextHop, ladderChunk)
		byHome  = make([][]ip.Addr, psi)
		results = make([]lpm.Result, batchSize)

		accesses, hits, homeHits, misses, reprobeHits int64
	)
	root := tr.begin("ladder", noParent)
	for base := 0; base+ladderChunk <= len(addrs); base += ladderChunk {
		chunk := addrs[base : base+ladderChunk]
		cs := tr.begin("ladder.chunk", root)

		tr.time("partition.home_lc", cs, func() {
			for i, a := range chunk {
				homes[i] = p.part.HomeLC(a)
			}
		})
		tr.time("lpm.lookup.part", cs, func() {
			for i, a := range chunk {
				nh, acc, _ := p.engines[homes[i]].Lookup(a)
				hops[i] = nh
				accesses += int64(acc)
			}
		})
		tr.time("lpm.lookup.full", cs, func() {
			for _, a := range chunk {
				_, acc, _ := p.full.Lookup(a)
				sink += acc
			}
		})
		for h := range byHome {
			byHome[h] = byHome[h][:0]
		}
		for i, a := range chunk {
			byHome[homes[i]] = append(byHome[homes[i]], a)
		}
		tr.time("lpm.lookup_all", cs, func() {
			for h, as := range byHome {
				for len(as) > 0 {
					n := min(batchSize, len(as))
					lpm.LookupAll(p.engines[h], as[:n], results)
					as = as[n:]
				}
			}
		})
		tr.time("cache.replay", cs, func() {
			for i, a := range chunk {
				lc, home := int((arrival+uint64(base+i))%uint64(psi)), homes[i]
				c := p.caches[lc]
				if k := c.Probe(a).Kind; k == cache.Hit || k == cache.HitVictim {
					hits++
					continue
				}
				misses++
				origin := cache.LOC
				if home != lc {
					origin = cache.REM
					hc := p.caches[home]
					if k := hc.Probe(a).Kind; k == cache.Hit || k == cache.HitVictim {
						homeHits++
					} else {
						misses++
						hc.RecordMiss(a, cache.LOC, 0)
						hc.Fill(a, hops[i], cache.LOC)
					}
				}
				c.RecordMiss(a, origin, 0)
				c.Fill(a, hops[i], origin)
			}
		})
		tr.time("cache.probe_hit", cs, func() {
			for i := ladderChunk - reprobe; i < ladderChunk; i++ {
				lc := int((arrival + uint64(base+i)) % uint64(psi))
				if k := p.caches[lc].Probe(chunk[i]).Kind; k == cache.Hit || k == cache.HitVictim {
					reprobeHits++
				}
			}
		})
		tr.end(cs)
	}
	tr.end(root)

	n := float64(len(addrs) / ladderChunk * ladderChunk)
	self := tr.selfNS()
	per := func(name string, count float64) float64 {
		if count == 0 {
			return 0
		}
		return float64(self[name]) / count
	}
	var evictions int64
	for _, c := range p.caches {
		evictions += c.Stats().Evictions
	}
	l := ladder{
		homeNS:     per("partition.home_lc", n),
		partNS:     per("lpm.lookup.part", n),
		fullNS:     per("lpm.lookup.full", n),
		allNS:      per("lpm.lookup_all", n),
		accesses:   float64(accesses) / n,
		replayNS:   per("cache.replay", n),
		probeHitNS: per("cache.probe_hit", float64(reprobeHits)),
		hitRatio:   float64(hits) / n,
		evictions:  float64(evictions) / n,
	}
	// The replay's time is its hits at the re-probe cost plus its
	// Probe+RecordMiss+Fill triples: the second term is what is left.
	if misses > 0 {
		l.missFillNS = max(0, (float64(self["cache.replay"])-float64(hits+homeHits)*l.probeHitNS)/float64(misses))
	}
	return l
}

// pipe times fabric.Pipe the way the simulator drives it: one Send and
// one Deliver poll per cycle, at the default point's fabric latency.
func pipeNS(tr *tracer, msgs int) float64 {
	p := fabric.NewPipe(fabric.Latency(fabric.Multistage, simLCs))
	id := tr.begin("fabric.pipe", noParent)
	for i := 0; i < msgs; i++ {
		p.Send(int64(i), fabric.Message{Kind: fabric.Request, Src: i % simLCs, Dst: (i + 1) % simLCs, PacketID: int64(i)})
		sink += len(p.Deliver(int64(i)))
	}
	return float64(tr.end(id)) / float64(msgs)
}

// replayUpdates pushes update batches through the standalone layers the
// way Router.ApplyUpdates does: the partitioning applies the batch, each
// dynamic partition engine takes its sub-batch in place, and every LC's
// cache invalidates the batch's coalesced ranges.
func (p *parts) replayUpdates(tr *tracer, batches [][]rtable.Update, l *ladder) {
	var updates, engineOps, rangeCalls, invalidated int64
	root := tr.begin("ladder.updates", noParent)
	for _, b := range batches {
		if len(b) == 0 {
			continue
		}
		updates += int64(len(b))
		tr.time("rtable.apply_all", root, func() { p.tbl = p.tbl.ApplyAll(b) })
		var sub [][]rtable.Update
		tr.time("partition.apply_updates", root, func() { p.part, sub = p.part.ApplyUpdates(b) })
		tr.time("lpm.update", root, func() {
			for lc, us := range sub {
				de, ok := p.engines[lc].(lpm.DynamicEngine)
				if !ok {
					continue
				}
				for _, u := range us {
					if u.Kind == rtable.Withdraw {
						de.Delete(u.Route.Prefix)
					} else {
						de.Insert(u.Route.Prefix, u.Route.NextHop)
					}
					engineOps++
				}
			}
		})
		ranges := rtable.UpdateRanges(b)
		tr.time("cache.invalidate_range", root, func() {
			for _, c := range p.caches {
				for _, rg := range ranges {
					invalidated += int64(c.InvalidateRange(rg.Lo, rg.Hi))
					rangeCalls++
				}
			}
		})
	}
	tr.end(root)
	if updates == 0 {
		return
	}
	self := tr.selfNS()
	l.applyAllNS = float64(self["rtable.apply_all"]) / float64(updates)
	l.partApplyNS = float64(self["partition.apply_updates"]) / float64(updates)
	if engineOps > 0 {
		l.lpmUpdateNS = float64(self["lpm.update"]) / float64(engineOps)
	}
	l.invalidateNS = float64(self["cache.invalidate_range"]) / float64(rangeCalls)
	l.invalidatedPerUpdate = float64(invalidated) / float64(updates)
}

// partitionShape returns the replication factor (Σ partition sizes ÷ table
// size) and the imbalance ((max − min) ÷ mean partition size).
func partitionShape(part *partition.Partitioning) (replication, imbalance float64) {
	st := part.Stats()
	total := 0
	for _, n := range st.Sizes {
		total += n
	}
	return st.Replication, float64(st.Max-st.Min) * float64(len(st.Sizes)) / float64(total)
}

// engineBytes returns the mean partition engine's modelled footprint and
// the full-table engine's.
func (p *parts) engineBytes() (part, full float64) {
	for _, e := range p.engines {
		part += float64(e.MemoryBytes())
	}
	return part / float64(len(p.engines)), float64(p.full.MemoryBytes())
}
