package sim

import (
	"runtime"
	"sync"
)

// RunMany executes independent simulation configurations concurrently and
// returns their results in input order. Each run is internally
// deterministic (seeded), so the parallelism never changes any result —
// it only shortens the wall time of parameter sweeps like Figs. 4-6.
//
// One worker per CPU is safe at paper scale: a run holds its in-flight
// packets (about 10 MiB at ψ=16 x 300k packets, most of it the tables),
// not a record for every packet it ever generated.
func RunMany(cfgs []Config) ([]*Result, []error) {
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	workers := min(runtime.NumCPU(), len(cfgs))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				r, err := New(cfgs[i])
				if err != nil {
					errs[i] = err
					continue
				}
				results[i], errs[i] = r.Run()
			}
		}()
	}
	for i := range cfgs {
		work <- i
	}
	close(work)
	wg.Wait()
	return results, errs
}
