package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"spal/internal/ip"
	"spal/internal/lpm/engines"
	"spal/internal/rtable"
	"spal/internal/sim"
	"spal/internal/trace"
)

// simGoldenJSON holds, per scale, what the simulator must report for the
// default seed: it is deterministic, so any drift is a behaviour change.
//
//go:embed testdata/sim_golden.json
var simGoldenJSON []byte

// simFacts are the exact quantities of one simulator run.
type simFacts struct {
	MeanLookupCycles float64 `json:"mean_lookup_cycles"`
	HitRate          float64 `json:"hit_rate"`
	FabricMessages   int64   `json:"fabric_messages"`
	Cycles           int64   `json:"cycles"`
	Packets          int64   `json:"packets"`
}

func factsOf(r *sim.Result) simFacts {
	return simFacts{r.MeanLookupCycles, r.HitRate, r.FabricMessages, r.Cycles, r.PacketsCompleted}
}

// simConfig is the paper's default point (ψ=16, RT2, D_75, lulea at 40
// cycles, β=4096, γ=50) with every random stream derived from seed.
func simConfig(tbl *rtable.Table, o options) (sim.Config, error) {
	build, err := engines.Lookup("lulea")
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.DefaultConfig(tbl)
	cfg.Engine = build
	cfg.PacketsPerLC = o.sc.simPkts
	cfg.Seed = seeded(o.seed, saltSim)
	cfg.TraceConfig = trace.PresetConfig(trace.D75)
	cfg.TraceConfig.Seed = seeded(o.seed, saltTrace)
	return cfg, nil
}

// runSim runs sim_fig6. Whole simulator runs are the timed segments: one
// sim.Run() is the public call, so call_p50_ns is the median run and
// lookups_per_s the simulated packets over it. A traced run wraps every
// other Run in a span and adds the standalone ladder at ψ=16.
func runSim(o options) (*result, error) {
	const name = "sim_fig6"
	res := &result{Workload: name, Metrics: make(map[string]measured)}
	tr, p, err := startTrace(&o, name, "lulea", simLCs)
	if err != nil {
		return nil, err
	}

	// Set-up is table synthesis plus sim.New: partitioning, 16 engine
	// builds, caches, the trace pool and the packet array.
	var (
		s      *sim.Router
		cfg    sim.Config
		setupS []float64
	)
	for i := 0; i < o.sc.setups; i++ {
		s = nil
		runtime.GC() // each repetition starts from the same heap
		before, t0 := probe(), time.Now()
		if cfg, err = simConfig(o.sc.table(), o); err != nil {
			return nil, err
		}
		if s, err = sim.New(cfg); err != nil {
			return nil, err
		}
		dt := time.Since(t0).Seconds()
		setupS = append(setupS, dt/((before+probe())/2))
	}
	heapMiB := heapInuseMiB()

	var (
		wallNS, tracedWallNS []float64
		hosts                []float64
		first                simFacts
		allocs               uint64
		spent                time.Duration
		budget               = time.Duration(o.seconds * float64(time.Second))
	)
	for run := 0; run < o.sc.simRuns || spent < budget; run++ {
		if run > 0 {
			if s, err = sim.New(cfg); err != nil {
				return nil, err
			}
		}
		runtime.GC() // the previous run's router is garbage; collect it outside the timed call
		traced := o.trace && run%2 == 1
		var id int32
		if traced {
			id = tr.begin("sim.run", noParent)
		}
		before, m0, t0 := probe(), mallocs(), time.Now()
		out, err := s.Run()
		dt := time.Since(t0)
		allocs += mallocs() - m0
		// The run's wall time on the reference host (host.go).
		host := (before + probe()) / 2
		hosts = append(hosts, host)
		scaled := float64(dt) / host
		if traced {
			tr.end(id)
		}
		if err != nil {
			return nil, err
		}
		spent += dt
		if traced {
			tracedWallNS = append(tracedWallNS, scaled)
		} else {
			wallNS = append(wallNS, scaled)
		}
		res.Attempted += out.PacketsCompleted
		// Same configuration, deterministic simulator: every run must
		// report exactly what the first did.
		if run == 0 {
			first = factsOf(out)
		} else if factsOf(out) != first {
			res.Failed += out.PacketsCompleted
		}
	}

	// Outputs: one more run with the simulator's own per-packet check
	// against full-table LPM switched on must reproduce the timed runs'
	// figures, and the default seed must reproduce the stored ones.
	if err := verifySim(cfg, first); err != nil {
		fmt.Fprintln(os.Stderr, "sim_fig6:", err)
		res.Failed = res.Attempted
	}
	if o.seed == defaultSeed {
		var golden map[string]simFacts
		if err := json.Unmarshal(simGoldenJSON, &golden); err != nil {
			return nil, fmt.Errorf("testdata/sim_golden.json: %w", err)
		}
		if want := golden[o.sc.name]; first != want {
			fmt.Fprintf(os.Stderr, "sim_fig6: got %+v, golden %+v\n", first, want)
			res.Failed = res.Attempted
		}
	}
	res.Correct = res.Failed == 0
	res.Host = median(hosts)

	packets := float64(first.Packets)
	if !o.trace {
		rate := make([]float64, len(wallNS))
		for i, ns := range wallNS {
			rate[i] = packets * 1e9 / ns
		}
		res.put("lookups_per_s", rate...)
		res.put("call_p50_ns", wallNS...)
		res.put("heap_mb", heapMiB)
		res.put("setup_s", setupS...)
		return res, nil
	}

	var stream []ip.Addr
	genS := tr.time("trace.gen", noParent, func() {
		stream = hotStreams(p.tbl, o.seed, 1, o.sc.ladderLen)[0]
	})
	ld := p.replay(tr, stream, 0)
	ld.pipeNS = pipeNS(tr, len(stream))
	putParts(res, p, genS*1e9/float64(len(stream)))
	putLadder(res, ld)
	if len(tracedWallNS) > 0 {
		res.put("trace.overhead_share", 1-median(wallNS)/median(tracedWallNS))
	}
	res.put("sim.wall_ns_per_packet", median(wallNS)/packets)
	res.put("host.probe_ratio", res.Host)
	res.put("sim.allocs_per_packet", float64(allocs)/float64(res.Attempted))
	res.put("sim.mean_lookup_cycles", first.MeanLookupCycles)
	res.put("sim.fabric_msgs_per_packet", float64(first.FabricMessages)/packets)
	return res, tr.dump(o.outDir)
}

// verifySim repeats the run with VerifyNextHops on; the simulator panics
// on a wrong verdict, which is reported here as an error.
func verifySim(cfg sim.Config, want simFacts) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("verifying run: %v", p)
		}
	}()
	cfg.VerifyNextHops = true
	s, err := sim.New(cfg)
	if err != nil {
		return err
	}
	out, err := s.Run()
	if err != nil {
		return err
	}
	if got := factsOf(out); got != want {
		return fmt.Errorf("verifying run reports %+v, timed runs %+v", got, want)
	}
	return nil
}
