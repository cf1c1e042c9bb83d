package dptrie

import (
	"testing"

	"spal/internal/ip"
	"spal/internal/rtable"
)

func table(cidrs ...string) *rtable.Table {
	var routes []rtable.Route
	for i, c := range cidrs {
		routes = append(routes, rtable.Route{Prefix: ip.MustPrefix(c), NextHop: rtable.NextHop(i + 1)})
	}
	return rtable.New(routes)
}

func TestPathCompression(t *testing.T) {
	// Two disjoint /24s: root + split node at the divergence + 2 route
	// nodes = 4 nodes, regardless of the 24-bit depth.
	tr := New(table("10.1.2.0/24", "10.1.3.0/24"))
	if tr.Nodes() != 4 {
		t.Errorf("Nodes = %d, want 4 (path compression)", tr.Nodes())
	}
	a, _ := ip.ParseAddr("10.1.2.9")
	nh, acc, ok := tr.Lookup(a)
	if !ok || nh != 1 {
		t.Fatalf("Lookup = (%d,%v)", nh, ok)
	}
	if acc > 3 {
		t.Errorf("accesses = %d, want <= 3 on a compressed path", acc)
	}
}

func TestSplitKeepsBothRoutes(t *testing.T) {
	tr := New(table("10.1.2.0/24", "10.1.0.0/16", "10.0.0.0/8"))
	cases := []struct {
		addr string
		want rtable.NextHop
	}{
		{"10.1.2.3", 1},
		{"10.1.9.9", 2},
		{"10.9.9.9", 3},
	}
	for _, c := range cases {
		a, _ := ip.ParseAddr(c.addr)
		if nh, _, _ := tr.Lookup(a); nh != c.want {
			t.Errorf("Lookup(%s) = %d, want %d", c.addr, nh, c.want)
		}
	}
}

func TestSplitWhereNewIsPrefixOfEdge(t *testing.T) {
	// Insert the longer one first so the shorter lands mid-edge.
	tr := New(table("10.1.2.0/24")) // nh 1
	tr.insert(ip.MustPrefix("10.0.0.0/8"), 7)
	a, _ := ip.ParseAddr("10.200.0.1")
	if nh, _, ok := tr.Lookup(a); !ok || nh != 7 {
		t.Errorf("mid-edge split lost the short prefix: (%d,%v)", nh, ok)
	}
	a, _ = ip.ParseAddr("10.1.2.3")
	if nh, _, _ := tr.Lookup(a); nh != 1 {
		t.Error("long prefix lost after split")
	}
}

func TestReplaceRoute(t *testing.T) {
	tr := New(table("10.0.0.0/8"))
	before := tr.Nodes()
	tr.insert(ip.MustPrefix("10.0.0.0/8"), 42)
	if tr.Nodes() != before {
		t.Error("replacing a route must not add nodes")
	}
	a, _ := ip.ParseAddr("10.0.0.1")
	if nh, _, _ := tr.Lookup(a); nh != 42 {
		t.Error("replacement next hop not visible")
	}
}

func TestMemoryModel(t *testing.T) {
	tr := New(table("10.1.2.0/24", "10.1.3.0/24"))
	if tr.MemoryBytes() != tr.Nodes()*21 {
		t.Errorf("MemoryBytes = %d, want 21 B/node", tr.MemoryBytes())
	}
	if tr.Name() != "dptrie" {
		t.Error("Name mismatch")
	}
}

func TestCommonLen(t *testing.T) {
	cases := []struct {
		p, q string
		want uint8
	}{
		{"10.0.0.0/8", "10.0.0.0/16", 8},
		{"10.0.0.0/8", "11.0.0.0/8", 7},
		{"0.0.0.0/0", "255.0.0.0/8", 0},
		{"128.0.0.0/1", "255.0.0.0/8", 1},
		{"10.1.2.0/24", "10.1.2.0/24", 24},
		{"10.1.2.3/32", "10.1.2.3/32", 32},
		{"0.0.0.0/0", "0.0.0.0/0", 0},
		{"10.1.2.0/24", "0.0.0.0/0", 0},
	}
	for _, c := range cases {
		got := commonLen(ip.MustPrefix(c.p), ip.MustPrefix(c.q))
		if got != c.want {
			t.Errorf("commonLen(%s,%s) = %d, want %d", c.p, c.q, got, c.want)
		}
	}
}

// The paper measures ~16 memory accesses per DP-trie lookup on backbone
// tables; verify our structure is in that regime (10..30) on a synthetic
// 20k-prefix table.
func TestAccessRegime(t *testing.T) {
	tbl := rtable.Small(20000, 17)
	tr := New(tbl)
	total, n := 0, 0
	for i, r := range tbl.Routes() {
		if i%20 != 0 {
			continue
		}
		_, acc, _ := tr.Lookup(r.Prefix.FirstAddr())
		total += acc
		n++
	}
	mean := float64(total) / float64(n)
	if mean < 8 || mean > 30 {
		t.Errorf("mean accesses = %.1f, want in the DP-trie regime [8,30]", mean)
	}
}
