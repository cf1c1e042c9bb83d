package sim

import (
	"testing"

	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/lpm/engines"
	"spal/internal/rtable"
)

// churnConfig enables verified route churn on the fast test configuration.
func churnConfig(tbl *rtable.Table, ups float64) Config {
	cfg := testConfig(tbl)
	cfg.UpdatesPerSecond = ups
	cfg.VerifyNextHops = true
	return cfg
}

// TestChurnVerified runs the simulator under route churn across the mode
// matrix — targeted invalidation vs full flush, partitioned vs full-table,
// rebuild vs in-place dynamic engines — with exact next-hop verification
// (complete() panics on any packet whose served hop disagrees with the
// oracle of the table version its value was computed against).
func TestChurnVerified(t *testing.T) {
	dynamic, err := engines.Lookup("bintrie")
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Config){
		"targeted":       func(c *Config) {},
		"full-flush":     func(c *Config) { c.UpdateFullFlush = true },
		"no-partition":   func(c *Config) { c.PartitionEnabled = false },
		"dynamic-engine": func(c *Config) { c.Engine = dynamic },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			tbl := rtable.Small(2500, 11)
			cfg := churnConfig(tbl, 50_000) // dense churn over the short run
			mutate(&cfg)
			res := run(t, cfg)
			if res.PacketsCompleted != int64(cfg.NumLCs*cfg.PacketsPerLC) {
				t.Fatalf("completed %d of %d packets", res.PacketsCompleted, cfg.NumLCs*cfg.PacketsPerLC)
			}
			if res.ChurnEvents == 0 {
				t.Fatal("no churn events applied; test is vacuous")
			}
			if !cfg.UpdateFullFlush && res.ChurnRangeInvalidations == 0 {
				t.Fatal("targeted mode issued no range invalidations")
			}
			if cfg.UpdateFullFlush && res.ChurnRangeInvalidations != 0 {
				t.Fatal("full-flush mode issued range invalidations")
			}
			t.Logf("%s: %d events, %d range invalidations, %d stale fills, mean=%.1fcy",
				name, res.ChurnEvents, res.ChurnRangeInvalidations, res.ChurnStaleFills, res.MeanLookupCycles)
		})
	}
}

// TestChurnDeterminism: identical seeds must replay the identical churned
// run, updates included.
func TestChurnDeterminism(t *testing.T) {
	tbl := rtable.Small(2000, 13)
	a := run(t, churnConfig(tbl, 20_000))
	b := run(t, churnConfig(tbl, 20_000))
	if a.MeanLookupCycles != b.MeanLookupCycles || a.Cycles != b.Cycles ||
		a.ChurnEvents != b.ChurnEvents || a.ChurnStaleFills != b.ChurnStaleFills {
		t.Fatalf("same seed diverged under churn: mean %v/%v events %d/%d",
			a.MeanLookupCycles, b.MeanLookupCycles, a.ChurnEvents, b.ChurnEvents)
	}
}

// TestChurnTargetedBeatsFlush: with identical workloads, targeted
// invalidation must keep a higher cache hit rate than flushing every
// cache on every update batch.
func TestChurnTargetedBeatsFlush(t *testing.T) {
	tbl := rtable.Small(2500, 17)
	targeted := run(t, churnConfig(tbl, 50_000))
	cfg := churnConfig(tbl, 50_000)
	cfg.UpdateFullFlush = true
	flushed := run(t, cfg)
	if targeted.HitRate <= flushed.HitRate {
		t.Fatalf("targeted hit rate %.4f not above full-flush %.4f", targeted.HitRate, flushed.HitRate)
	}
	t.Logf("hit rate: targeted %.4f vs full-flush %.4f; mean lookup %.1f vs %.1f cycles",
		targeted.HitRate, flushed.HitRate, targeted.MeanLookupCycles, flushed.MeanLookupCycles)
}

// TestChurnLeavesNoStaleEntry: after a churned run every complete entry
// in every LR-cache agrees with the final table. VerifyNextHops checks
// only the verdicts a run serves; an entry that churn should have
// invalidated but no later packet probed shows up only here.
func TestChurnLeavesNoStaleEntry(t *testing.T) {
	cfg := churnConfig(rtable.Small(2000, 4), 500_000)
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ChurnEvents == 0 {
		t.Fatal("no churn events applied; test is vacuous")
	}
	ref := lpm.NewReference(r.curTable)
	var audited, stale int
	for _, l := range r.lcs {
		l.cache.AuditEntries(func(a ip.Addr, nh rtable.NextHop) bool {
			audited++
			want, _, ok := ref.Lookup(a)
			if !ok {
				want = rtable.NoNextHop
			}
			if nh != want {
				stale++
				t.Errorf("LC %d caches %s -> %d, final table says %d", l.id, ip.FormatAddr(a), nh, want)
			}
			return true
		})
	}
	if audited == 0 {
		t.Fatal("no cache entry audited; test is vacuous")
	}
	t.Logf("%d entries audited after %d churn events, %d stale", audited, res.ChurnEvents, stale)
}
