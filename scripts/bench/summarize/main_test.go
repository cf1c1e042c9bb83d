package main

import "testing"

func TestQuartilesArePythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
}

func TestWonMatchesSeedsAndSkipsTies(t *testing.T) {
	run := func(seed uint64, v float64) record {
		return record{Seed: seed, Metrics: map[string]value{"setup_s": {v}}}
	}
	base := []record{run(1, 0.4), run(2, 0.4), run(3, 0.4), run(4, 0.4)}
	head := []record{run(3, 0.5), run(1, 0.3), run(2, 0.4)} // seed 4 unpaired, seed 2 a tie
	lower := won(base, head, metricDef{Name: "setup_s", Better: "lower"})
	if lower != (pairs{HeadBetter: 1, Of: 3}) {
		t.Errorf("lower is better: %+v, want 1 of 3", lower)
	}
	higher := won(base, head, metricDef{Name: "setup_s", Better: "higher"})
	if higher != (pairs{HeadBetter: 1, Of: 3}) {
		t.Errorf("higher is better: %+v, want 1 of 3", higher)
	}
}
