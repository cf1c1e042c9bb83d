package experiments

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"spal/internal/lpm/engines"
)

// cell parses a numeric table cell.
func cell(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(tbl.Rows[row][col], "x"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tbl.Rows[row][col], err)
	}
	return v
}

// tiny is an even smaller scale than Quick so the full matrix of
// experiments stays fast in unit tests.
var tiny = Scale{TableN: 6000, PacketsPerLC: 6000, Name: "tiny"}

func TestPartitionBitsShape(t *testing.T) {
	tbl := PartitionBits(tiny)
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for i, row := range tbl.Rows {
		rep := cell(t, tbl, i, 5)
		if rep < 1.0 || rep > 3.0 {
			t.Errorf("row %d replication = %v", i, rep)
		}
		if !strings.HasPrefix(row[2], "[") {
			t.Errorf("bits cell = %q", row[2])
		}
	}
	if tbl.String() == "" {
		t.Error("empty render")
	}
}

func TestFig3PartitioningShrinksTries(t *testing.T) {
	tbl := Fig3Storage(tiny)
	// Every row: per-LC partitioned max must be well below the whole trie,
	// and the saving must be positive.
	for i := range tbl.Rows {
		whole := cell(t, tbl, i, 2)
		maxLC := cell(t, tbl, i, 3)
		saving := cell(t, tbl, i, 5)
		if maxLC >= whole {
			t.Errorf("row %v: partitioned %v >= whole %v", tbl.Rows[i][0:2], maxLC, whole)
		}
		if saving <= 0 {
			t.Errorf("row %v: non-positive saving", tbl.Rows[i][0:2])
		}
	}
	// Lulea must be the smallest structure on the whole table (paper:
	// "whose storage requirement is often the lowest").
	byTrie := map[string]float64{}
	for i, row := range tbl.Rows {
		if row[0] == "psi=4,RT_2" {
			byTrie[row[1]] = cell(t, tbl, i, 2)
		}
	}
	if byTrie["LL"] >= byTrie["DP"] || byTrie["LL"] >= byTrie["BIN"] {
		t.Errorf("Lulea should be smallest: %v", byTrie)
	}
}

func TestMemoryAccessRegimes(t *testing.T) {
	tbl := MemoryAccesses(tiny)
	for i := range tbl.Rows {
		ll := cell(t, tbl, i, 1)
		dp := cell(t, tbl, i, 2)
		if ll < 4 || ll > 12 {
			t.Errorf("lulea accesses = %v", ll)
		}
		if dp < 8 || dp > 30 {
			t.Errorf("dptrie accesses = %v", dp)
		}
		if ll >= dp {
			t.Errorf("lulea (%v) should beat dptrie (%v)", ll, dp)
		}
	}
}

func TestFig5LargerCacheNeverMuchWorse(t *testing.T) {
	tbl, err := Fig5CacheSize(tiny)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tbl.Rows {
		c1k := cell(t, tbl, i, 1)
		c8k := cell(t, tbl, i, 4)
		if c8k > c1k*1.05 {
			t.Errorf("%s: 8K (%v) worse than 1K (%v)", tbl.Rows[i][0], c8k, c1k)
		}
	}
}

func TestFig6MoreLCsHelp(t *testing.T) {
	tbl, err := Fig6NumLCs(tiny)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tbl.Rows {
		psi1 := cell(t, tbl, i, 1)
		psi16 := cell(t, tbl, i, 6)
		if psi16 >= psi1 {
			t.Errorf("%s: psi=16 (%v) not better than psi=1 (%v)", tbl.Rows[i][0], psi16, psi1)
		}
	}
}

func TestHeadlineSpeedup(t *testing.T) {
	tbl, err := Headline(tiny)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tbl.Rows {
		speedup := cell(t, tbl, i, 5)
		if speedup < 2 {
			t.Errorf("%s: speedup %vx, want >= 2x even at tiny scale", tbl.Rows[i][0], speedup)
		}
	}
}

func TestSpeedsMatrix(t *testing.T) {
	tbl, err := Speeds(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for i := range tbl.Rows {
		if m := cell(t, tbl, i, 1); m < 1 {
			t.Errorf("row %d mean = %v", i, m)
		}
		if hr := cell(t, tbl, i, 2); hr < 0.5 {
			t.Errorf("row %d hit rate = %v", i, hr)
		}
	}
}

func TestWorstCasePartitionNeverWorse(t *testing.T) {
	// The paper claims partitioning "may possibly shorten" the worst
	// case. For single-bit tries (DP, BIN) the worst case is monotone in
	// the prefix set, so it must not grow; compressed structures (LL, LC)
	// can reshape, so allow a small slack.
	tbl := WorstCase(tiny)
	for i := range tbl.Rows {
		name := tbl.Rows[i][0]
		whole := cell(t, tbl, i, 1)
		part := cell(t, tbl, i, 2)
		slack := 0.0
		if name == "LL" || name == "LC" {
			slack = 2
		}
		if part > whole+slack {
			t.Errorf("%s: partition worst case %v exceeds whole %v",
				name, part, whole)
		}
		// For single-bit tries the mean must improve too. Level-compressed
		// structures can go the other way: LC-trie branches wider on
		// bigger tables, so its per-partition mean may exceed the whole-
		// table mean (recorded in the experiment notes, not asserted).
		if name == "DP" || name == "BIN" {
			if mw, mp := cell(t, tbl, i, 3), cell(t, tbl, i, 4); mp > mw*1.05 {
				t.Errorf("%s: partition mean %v exceeds whole mean %v", name, mp, mw)
			}
		}
	}
}

func TestCoverageImprovesWithPsi(t *testing.T) {
	tbl, err := Coverage(tiny)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tbl.Rows {
		h1 := cell(t, tbl, i, 1)  // psi=1
		h16 := cell(t, tbl, i, 5) // psi=16
		if h16 < h1 {
			t.Errorf("%s: hit rate psi=16 (%v) below psi=1 (%v)", tbl.Rows[i][0], h16, h1)
		}
	}
}

func TestRebuildReportsTimes(t *testing.T) {
	tbl := Rebuild(tiny)
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for i := range tbl.Rows {
		if ms := cell(t, tbl, i, 2); ms < 0 {
			t.Errorf("row %d build ms = %v", i, ms)
		}
	}
}

func TestSurveyShapes(t *testing.T) {
	tbl := Survey(tiny)
	names := engines.Names()
	if len(tbl.Rows) != 3*len(names) {
		t.Fatalf("rows = %d, want psi 1, 4, 16 x %d engines", len(tbl.Rows), len(names))
	}
	get := func(psi, name string, col int) float64 {
		for i, row := range tbl.Rows {
			if row[0] == psi && row[1] == name {
				return cell(t, tbl, i, col)
			}
		}
		t.Fatalf("row psi=%s %q missing", psi, name)
		return 0
	}
	for i := range tbl.Rows {
		for col := 6; col <= 8; col++ {
			if ns := cell(t, tbl, i, col); ns <= 0 {
				t.Errorf("row %v: %s = %v ns, want > 0", tbl.Rows[i][:2], tbl.Headers[col], ns)
			}
		}
	}
	// The canonical trade-offs: stride24 is the fewest accesses and the
	// largest at every psi; lulea beats dptrie on size and accesses; a
	// partition engine is smaller than the whole-table one.
	for _, psi := range []string{"1", "4", "16"} {
		if get(psi, "stride24", 4) > 2 {
			t.Errorf("psi=%s: stride24 should average <= 2 accesses", psi)
		}
		if get(psi, "stride24", 2) < 32*1024 || get(psi, "stride24", 3) < 32*1024 {
			t.Errorf("psi=%s: stride24 should cost >= 32 MB, modelled and real", psi)
		}
		if get(psi, "lulea", 2) >= get(psi, "dptrie", 2) || get(psi, "lulea", 4) >= get(psi, "dptrie", 4) {
			t.Errorf("psi=%s: lulea should beat dptrie on size and accesses", psi)
		}
	}
	if get("16", "lulea", 2) >= get("1", "lulea", 2) || get("16", "lulea", 3) >= get("1", "lulea", 3) {
		t.Error("lulea's largest psi=16 partition should be smaller than the whole table, modelled and real")
	}
}

func TestHotspotBalance(t *testing.T) {
	tbl, err := Hotspot(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// FE utilization stays far from saturation in both regimes.
	for i := range tbl.Rows {
		if util := cell(t, tbl, i, 2); util > 0.9 {
			t.Errorf("%s: max FE utilization %v", tbl.Rows[i][0], util)
		}
	}
}

func TestDriftDegradesHitRate(t *testing.T) {
	tbl, err := Drift(tiny)
	if err != nil {
		t.Fatal(err)
	}
	none := cell(t, tbl, 0, 2)
	fastest := cell(t, tbl, len(tbl.Rows)-1, 2)
	if fastest >= none {
		t.Errorf("fast drift hit rate %v should be below no-drift %v", fastest, none)
	}
}

func TestLatencyDistributionOrdering(t *testing.T) {
	tbl, err := LatencyDistribution(tiny)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tbl.Rows {
		p50 := cell(t, tbl, i, 2)
		p90 := cell(t, tbl, i, 3)
		p99 := cell(t, tbl, i, 4)
		worst := cell(t, tbl, i, 5)
		if p50 > p90 || p90 > p99 || p99 > worst {
			t.Errorf("%s: percentiles out of order: %v %v %v %v",
				tbl.Rows[i][0], p50, p90, p99, worst)
		}
	}
	// SPAL p50 must be the 1-cycle cache hit.
	if p50 := cell(t, tbl, 0, 2); p50 > 2 {
		t.Errorf("SPAL p50 = %v, want ~1 (cache hit)", p50)
	}
}

func TestWarmupCurveFalls(t *testing.T) {
	tbl, err := Warmup(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 3 {
		t.Fatalf("rows = %d, want a few windows", len(tbl.Rows))
	}
	first := cell(t, tbl, 0, 2)
	last := cell(t, tbl, len(tbl.Rows)-1, 2)
	if last >= first {
		t.Errorf("cold window mean %v should exceed warmed window mean %v", first, last)
	}
}

func TestCSVRendering(t *testing.T) {
	tbl := &Table{
		Title:   "x",
		Headers: []string{"a", "b"},
		Rows:    [][]string{{"1", "has,comma"}, {"2", `has"quote`}},
		Notes:   []string{"n1"},
	}
	got := tbl.CSV()
	want := "a,b\n1,\"has,comma\"\n2,\"has\"\"quote\"\n# n1\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

// figures/*.csv are what the code draws: the committed curves are the
// simulator's equivalence oracle (ROADMAP 3(3)), so a result that moves
// must move them in the same commit.
func TestCommittedFiguresCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("three Quick-scale sweeps, ~6 s")
	}
	for _, name := range []string{"fig4", "fig5", "fig6"} {
		run, _ := Get(name)
		tbl, err := run(Quick)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("..", "..", "figures", name+".csv")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := tbl.CSVFile(); got != string(want) {
			t.Errorf("%s is not what %s draws at Quick; if the change is meant, refresh it and read git diff:\n\tgo run ./cmd/spal-bench -exp %s -scale quick -o figures",
				path, name, name)
		}
	}
}

func TestLengthPartitionComparison(t *testing.T) {
	tbl := LengthPartitionComparison(tiny)
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	comparatorShare := cell(t, tbl, 0, 3)
	spal16Share := cell(t, tbl, 2, 3)
	if comparatorShare < 0.40 {
		t.Errorf("comparator largest share = %v, want /24 dominance", comparatorShare)
	}
	if spal16Share >= comparatorShare/2 {
		t.Errorf("SPAL psi=16 share %v should be far below comparator %v", spal16Share, comparatorShare)
	}
}

// The planes table at Quick: one seed, every fault class, and no verdict in
// any cell that differs from the reference.
func TestPlanesNoWrongVerdicts(t *testing.T) {
	tbl, err := Planes(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(planeFaults) {
		t.Fatalf("%d rows, want one per fault class (%d)", len(tbl.Rows), len(planeFaults))
	}
	for _, row := range tbl.Rows {
		if row[1] != "0 (0-0)" {
			t.Errorf("%s: wrong verdicts %s, want 0", row[0], row[1])
		}
	}
}
