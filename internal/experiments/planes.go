package experiments

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"spal/internal/fabric"
	"spal/internal/lpm"
	"spal/internal/router"
	"spal/internal/rtable"
	"spal/internal/stats"
)

// planeLCs and planeTimeout fix the router the planes table drives: ψ = 4
// and a short request timeout.
const (
	planeLCs     = 4
	planeTimeout = 5 * time.Millisecond
)

// planeFaults is the grid: each fault the router's home-trust rule is for,
// set (on 1) and lifted (on 0) on a running router, with the queue depth
// under WithOverload and the clients per line card while the fault stands.
var planeFaults = []struct {
	name           string
	depth, clients int
	set            func(f *fabric.Faults, on float64)
}{
	{"dead link LC 1 → LC 0", 0, 1, func(f *fabric.Faults, on float64) { lossy(f, on, func(i, j int) bool { return i == 1 && j == 0 }) }},
	{"every link into LC 1 drops", 0, 1, func(f *fabric.Faults, on float64) { lossy(f, on, func(_, j int) bool { return j == 1 }) }},
	{"30 % loss on every link", 0, 1, func(f *fabric.Faults, on float64) { lossy(f, 0.3*on, func(int, int) bool { return true }) }},
	{"LC 1 browned out ×10", 0, 1, func(f *fabric.Faults, on float64) { f.SlowLC(1, 10*on) }}, // a factor <= 1 clears it
	{"2× offered load, queue depth 2", 2, 2, func(*fabric.Faults, float64) {}},
}

// lossy makes every link i → j that pick admits lose rate of its messages.
func lossy(f *fabric.Faults, rate float64, pick func(i, j int) bool) {
	l := fabric.LinkConfig{DropRate: rate}
	for i := 0; i < planeLCs; i++ {
		for j := 0; j < planeLCs; j++ {
			if i != j && pick(i, j) {
				f.SetLink(i, j, l)
			}
		}
	}
}

// planePhase is what one phase of a run saw.
type planePhase struct {
	lookups, failed, wrong, requests, retries, fallbacks int64
	lat                                                  []int64 // every call's latency, ns
}

// Planes runs each fault of planeFaults on a router with overload control
// and the gray plane on, no LR-cache (every remote lookup is a miss), for a
// fault phase and a phase after the fault is lifted, closed-loop clients
// looking up table-matched addresses. A cell is the median over the seeds
// with their range. It fails on any verdict that differs from lpm.Reference.
func Planes(s Scale) (*Table, error) {
	seeds, phase := 5, 400*time.Millisecond
	if s.Name == Quick.Name {
		seeds, phase = 1, 100*time.Millisecond
	}
	tbl := tableRT1(s)
	ref := lpm.NewReference(tbl)
	out := &Table{
		Title:   fmt.Sprintf("Home trust under fabric faults (psi=%d, timeout %v, %d seeds, %v a phase)", planeLCs, planeTimeout, seeds, phase),
		Headers: []string{"fault", "wrong verdicts", "failed share", "p99 in fault (us)", "requests / lookup in fault", "retries / lookup in fault", "fallback share after lift"},
		Notes:   []string{"cell: median over seeds (min-max); failed = ErrOverloaded or another error, over both phases"},
	}
	for _, c := range planeFaults {
		var cells [6][]float64
		for seed := uint64(1); seed <= uint64(seeds); seed++ {
			f := fabric.NewFaults(seed, fabric.LinkConfig{})
			r, err := router.New(tbl, router.WithLCs(planeLCs), router.WithFaultInjector(f.Decide),
				router.WithRequestTimeout(planeTimeout), router.WithOverload(c.depth), router.WithGray())
			if err != nil {
				return nil, err
			}
			c.set(f, 1)
			fault := drivePhase(r, tbl, ref, seed, c.clients, phase)
			c.set(f, 0)
			lift := drivePhase(r, tbl, ref, seed<<32, 1, phase)
			r.Stop()
			slices.Sort(fault.lat)
			cells[0] = append(cells[0], float64(fault.wrong+lift.wrong))
			cells[1] = append(cells[1], float64(fault.failed+lift.failed)/float64(fault.lookups+lift.lookups))
			cells[2] = append(cells[2], float64(fault.lat[len(fault.lat)*99/100])/1e3)
			cells[3] = append(cells[3], float64(fault.requests)/float64(fault.lookups))
			cells[4] = append(cells[4], float64(fault.retries)/float64(fault.lookups))
			cells[5] = append(cells[5], float64(lift.fallbacks)/float64(lift.lookups))
		}
		row := []string{c.name}
		for k, format := range []string{"%.0f", "%.4f", "%.0f", "%.3f", "%.3f", "%.4f"} {
			slices.Sort(cells[k])
			v := cells[k]
			row = append(row, fmt.Sprintf(format+" ("+format+"-"+format+")", v[len(v)/2], v[0], v[len(v)-1]))
		}
		out.Rows = append(out.Rows, row)
		if cells[0][len(cells[0])-1] > 0 {
			return out, fmt.Errorf("planes: %s: verdicts that differ from the reference", c.name)
		}
	}
	return out, nil
}

// drivePhase runs clients closed-loop callers per line card for d, each
// looking up table-matched addresses at its own arrival LC, and reports what
// they saw and the fabric requests, retries and fallbacks the router
// counted, summed over every line card.
func drivePhase(r *router.Router, tbl *rtable.Table, ref *lpm.Reference, seed uint64, clients int, d time.Duration) planePhase {
	counts := func() (n planePhase) {
		for _, st := range r.Stats() {
			n.requests += st.RequestsSent.Load()
			n.retries += st.Retries.Load()
			n.fallbacks += st.Fallbacks.Load()
		}
		return n
	}
	before := counts()
	var mu sync.Mutex
	var sum planePhase
	var wg sync.WaitGroup
	end := time.Now().Add(d)
	for g := 0; g < clients*planeLCs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := stats.NewRNG(seed + uint64(g)*7919)
			var p planePhase
			for time.Now().Before(end) {
				a := tbl.RandomMatchedAddr(rng)
				t0 := time.Now()
				v, err := r.Lookup(g%planeLCs, a)
				p.lat = append(p.lat, int64(time.Since(t0)))
				p.lookups++
				if nh, _, ok := ref.Lookup(a); err != nil {
					p.failed++
				} else if v.OK != ok || ok && v.NextHop != nh {
					p.wrong++
				}
			}
			mu.Lock()
			sum.lookups, sum.failed, sum.wrong = sum.lookups+p.lookups, sum.failed+p.failed, sum.wrong+p.wrong
			sum.lat = append(sum.lat, p.lat...)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	after := counts()
	sum.requests, sum.retries = after.requests-before.requests, after.retries-before.retries
	sum.fallbacks = after.fallbacks - before.fallbacks
	return sum
}
