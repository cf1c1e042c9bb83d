package router

import (
	"fmt"
	"testing"
	"time"

	"spal/internal/metrics"
	"spal/internal/rtable"
)

// lcStateSeries collects every spal_router_lc_state sample keyed by its
// lc label, failing on duplicates — a reborn slot must update its gauge
// in place, never grow a second series.
func lcStateSeries(t *testing.T, s *metrics.Snapshot) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for i := range s.Samples {
		sm := &s.Samples[i]
		if sm.Name != MetricLCState {
			continue
		}
		var lc string
		for _, l := range sm.Labels {
			if l.Key == "lc" {
				lc = l.Value
			}
		}
		if _, dup := out[lc]; dup {
			t.Fatalf("duplicate %s series for lc=%q", MetricLCState, lc)
		}
		out[lc] = sm.Value
	}
	return out
}

// TestLCStateGaugeReconciles pins the lifecycle gauge to the state
// machine through a wedge, kill, rebirth, drain and restore: exactly ψ
// series at every step, each equal to the matching LCStates entry. The
// hour-long timeout keeps the monitor's ticker out; the test runs its
// period by hand, against an injected clock for the wedge.
func TestLCStateGaugeReconciles(t *testing.T) {
	const psi = 4
	r, err := New(rtable.Small(1000, 11), WithLCs(psi), WithRequestTimeout(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	base := r.now()
	var ahead int64
	r.clock = func() int64 { return base + ahead }
	period := func() {
		r.sweep()
		r.healthCheck(r.now())
	}

	reconcile := func(step string) {
		t.Helper()
		series := lcStateSeries(t, r.Metrics())
		states := r.LCStates()
		if len(series) != psi {
			t.Fatalf("%s: %d lc_state series, want psi=%d: %v", step, len(series), psi, series)
		}
		for i, st := range states {
			got, present := series[fmt.Sprint(i)]
			if !present {
				t.Fatalf("%s: no lc_state series for lc=%d", step, i)
			}
			if got != float64(st) {
				t.Errorf("%s: lc=%d gauge %v, state machine says %v (%s)", step, i, got, float64(st), st)
			}
		}
	}

	reconcile("fresh")

	// LC 3 wedged past the window: the sweep cannot tick it.
	h := r.lcs[3]
	h.mu.Lock()
	ahead += int64(r.suspectAfter)
	period()
	r.leave(h, 0)
	if st := r.LCStates()[3]; st != LCSuspect {
		t.Fatalf("wedged LC 3 is %s, want suspect", st)
	}
	reconcile("while suspect")
	period()
	if st := r.LCStates()[3]; st != LCHealthy {
		t.Fatalf("LC 3 is %s once ticked again, want healthy", st)
	}

	if err := r.KillLC(2); err != nil {
		t.Fatal(err)
	}
	period()
	if st := r.LCStates()[2]; st != LCDown {
		t.Fatalf("killed LC 2 is %s after a check, want down", st)
	}
	reconcile("after kill")

	if err := r.RestoreLC(2); err != nil {
		t.Fatal(err)
	}
	reconcile("after rebirth")

	if err := r.DrainLC(1); err != nil {
		t.Fatal(err)
	}
	reconcile("while drained")

	if err := r.RestoreLC(1); err != nil {
		t.Fatal(err)
	}
	reconcile("after restore")
}
