package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce the same stream")
		}
	}
	c := NewRNG(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(42).Fork(1).Uint64() == c.Uint64() {
			continue
		}
		same = false
	}
	if same {
		t.Error("different seeds should diverge")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Fork(1)
	c2 := parent.Fork(2)
	if c1.Uint64() == c2.Uint64() {
		t.Error("forks with different salts should diverge")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Range(5, 9); v < 5 || v > 9 {
			t.Fatalf("Range out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(99)
	const n, buckets = 100000, 16
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Errorf("bucket %d: %d, want ~%.0f", b, c, want)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(3)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestHist(t *testing.T) {
	h := NewHist(10)
	for _, v := range []int{0, 1, 1, 2, 3, 100} {
		h.Add(v)
	}
	if h.N() != 6 {
		t.Errorf("N = %d", h.N())
	}
	if h.Overflow() != 1 {
		t.Errorf("Overflow = %d", h.Overflow())
	}
	wantMean := float64(0+1+1+2+3+100) / 6
	if math.Abs(h.Mean()-wantMean) > 1e-12 {
		t.Errorf("Mean = %v, want %v", h.Mean(), wantMean)
	}
	if p := h.Percentile(0.5); p != 1 {
		t.Errorf("p50 = %d, want 1", p)
	}
	if p := h.Percentile(1.0); p != 10 {
		t.Errorf("p100 with overflow = %d, want cap 10", p)
	}
}

func TestHistNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative sample should panic")
		}
	}()
	NewHist(4).Add(-1)
}

func TestHistPercentileEdges(t *testing.T) {
	h := NewHist(100)
	if got := h.Percentile(0.5); got != 0 {
		t.Errorf("empty hist p50 = %d, want 0", got)
	}
	h.Add(42)
	for _, p := range []float64{0, 0.5, 1} {
		if got := h.Percentile(p); got != 42 {
			t.Errorf("single-sample hist p=%v = %d, want 42", p, got)
		}
	}
	// Overflow samples report the cap.
	h2 := NewHist(10)
	h2.Add(500)
	if got := h2.Percentile(1); got != 10 {
		t.Errorf("overflow percentile = %d, want cap 10", got)
	}
}
