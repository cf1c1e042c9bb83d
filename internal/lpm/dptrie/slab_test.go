package dptrie

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"spal/internal/partition"
	"spal/internal/rtable"
)

// rt2 is RT2 cut for a ψ = 4 router, synthesized once for the tests below.
var rt2 = sync.OnceValue(func() *partition.Partitioning {
	return partition.Partition(rtable.RT2(), 4)
})

// slots is the slab's length, both pieces.
func (tr *Trie) slots() int { return len(tr.slab) + len(tr.tail) }

// realBytes is what the slab occupies, slack included.
func (tr *Trie) realBytes() int {
	return (cap(tr.slab) + cap(tr.tail)) * int(unsafe.Sizeof(node{}))
}

// freeLen walks the free list.
func (tr *Trie) freeLen() int {
	n := 0
	for i := tr.free; i != 0; i = tr.at(i).value {
		n++
	}
	return n
}

func apply(tr *Trie, batch []rtable.Update) {
	for _, u := range batch {
		if u.Kind == rtable.Withdraw {
			tr.Delete(u.Route.Prefix)
		} else {
			tr.Insert(u.Route.Prefix, u.Route.NextHop)
		}
	}
}

// TestNodeLayout holds the property the collector's silence rests on: a
// node is 16 bytes, four to a cache line, and none of them is a pointer.
func TestNodeLayout(t *testing.T) {
	if size := unsafe.Sizeof(node{}); size != 16 {
		t.Errorf("node is %d bytes, want 16", size)
	}
	var hasPointer func(reflect.Type) bool
	hasPointer = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Bool, reflect.Uint8, reflect.Uint16, reflect.Uint32:
			return false
		case reflect.Array:
			return hasPointer(typ.Elem())
		}
		return true
	}
	typ := reflect.TypeOf(node{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); hasPointer(f.Type) {
			t.Errorf("node.%s is a %s: the slab must hold nothing the collector follows", f.Name, f.Type.Kind())
		}
	}
}

// TestRealBytes gates the bytes the slab really occupies against the bytes
// the paper's model counts (Fig. 3): 16 against 21 a node, so about 0.76x
// after New, which leaves no slack, and still after 10^4 updates, whose new
// nodes go to the tail; a pointer per child was 32 bytes a node, 1.52x. It
// then holds the slab's own books: every slot is a live node or on the free
// list, and a repeated history takes its slots from that list.
func TestRealBytes(t *testing.T) {
	parts := rt2()
	stream := rtable.GenerateUpdates(parts.Full(), rtable.UpdateStreamConfig{
		RatePerSecond: 1000, CycleNS: 5, Duration: 2_500_000_000,
		WithdrawProb: 0.35, NewPrefixProb: 0.25, Seed: 21,
	})
	if len(stream) < 10_000 {
		t.Fatalf("update stream has %d events, want 10000", len(stream))
	}
	stream = stream[:10_000]
	after, sub := parts.ApplyUpdates(stream)
	type history struct {
		built   *rtable.Table
		batch   []rtable.Update
		updated *rtable.Table
	}
	cases := []history{{parts.Full(), stream, after.Full()}}
	built, updated := parts.Tables(), after.Tables()
	for lc := range built {
		cases = append(cases, history{built[lc], sub[lc], updated[lc]})
	}
	for i, c := range cases {
		tr := New(c.built)
		underModel := func(when string) {
			t.Helper()
			real, model := tr.realBytes(), tr.MemoryBytes()
			t.Logf("table %d %s: %d real bytes for %d modelled (%.2fx)", i, when, real, model, float64(real)/float64(model))
			if real > model {
				t.Errorf("table %d %s: more real bytes than modelled, want <= 1.0x", i, when)
			}
		}
		underModel("after New")
		if slack := cap(tr.slab) - len(tr.slab) + cap(tr.tail); slack != 0 {
			t.Errorf("table %d: New leaves %d nodes of slack", i, slack)
		}

		apply(tr, c.batch)
		underModel("after 10^4 updates")
		if free := tr.freeLen(); tr.slots() != tr.Nodes()+free {
			t.Errorf("table %d: %d slots hold %d nodes and %d free ones", i, tr.slots(), tr.Nodes(), free)
		}

		routes := c.updated.Routes()
		present := make([]rtable.Route, 0, 1000)
		for j := 0; j < 1000; j++ {
			present = append(present, routes[j*len(routes)/1000])
		}
		nodes, length, capacity := tr.Nodes(), tr.slots(), tr.realBytes()
		for _, r := range present {
			if !tr.Delete(r.Prefix) {
				t.Fatalf("table %d: %s is in the table and not in the trie", i, r.Prefix)
			}
		}
		for _, r := range present {
			tr.Insert(r.Prefix, r.NextHop)
		}
		if tr.Nodes() != nodes || tr.slots() != length || tr.realBytes() != capacity {
			t.Errorf("table %d: withdrawing and re-announcing 1000 routes moved nodes %d -> %d, slots %d -> %d, bytes %d -> %d",
				i, nodes, tr.Nodes(), length, tr.slots(), capacity, tr.realBytes())
		}
	}
}

// TestUpdateAllocs: Delete and compress allocate nothing (the walk's path
// is on the stack), and neither does Insert while the free list holds the
// slots it needs.
func TestUpdateAllocs(t *testing.T) {
	tbl := rt2().Table(0)
	tr := New(tbl)
	routes := tbl.Routes()
	cycle := make([]rtable.Route, 0, 64)
	for j := 0; j < 64; j++ {
		cycle = append(cycle, routes[j*len(routes)/64])
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, r := range cycle {
			if !tr.Delete(r.Prefix) {
				t.Fatalf("%s is in the table and not in the trie", r.Prefix)
			}
		}
		for _, r := range cycle {
			tr.Insert(r.Prefix, r.NextHop)
		}
	})
	if allocs != 0 {
		t.Errorf("withdrawing and re-announcing %d routes allocates %.1f times, want 0", len(cycle), allocs)
	}
}
