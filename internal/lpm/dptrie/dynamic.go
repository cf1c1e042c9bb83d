package dptrie

import (
	"spal/internal/ip"
	"spal/internal/rtable"
)

// Insert adds or replaces a route in place — the "dynamic" in dynamic
// prefix trie: Doeringer et al.'s structure was designed for online
// insertion and deletion.
func (tr *Trie) Insert(p ip.Prefix, nh rtable.NextHop) {
	tr.insert(p.Canon(), nh)
}

// Delete removes a route and re-compresses the path (a routeless node
// with one child merges into it; a routeless leaf disappears). It reports
// whether the prefix was present.
func (tr *Trie) Delete(p ip.Prefix) bool {
	p = p.Canon()
	// Walk down, remembering parents: path lengths grow strictly from the
	// root's 0 to at most 32, so the walk takes at most 32 steps.
	var path [33]step
	depth := 0
	i := uint32(0)
	for {
		n := tr.at(i)
		if commonLen(n.path(), p) < n.plen {
			return false // diverges mid-edge: not present
		}
		if n.plen == p.Len {
			break
		}
		b := ip.AddrBit(p.Value, int(n.plen))
		next := n.child[b]
		if next == 0 {
			return false
		}
		path[depth] = step{parent: i, bit: b}
		depth++
		i = next
	}
	n := tr.at(i)
	if n.path() != p || !n.hasRoute {
		return false
	}
	n.hasRoute = false
	n.nextHop = 0
	tr.compress(i, path[:depth])
	return true
}

// compress merges or removes the routeless node at i, then re-examines
// its parent (removing a child can leave the parent routeless with a
// single child, which path compression must also fold).
func (tr *Trie) compress(i uint32, path []step) {
	for {
		n := tr.at(i)
		if n.hasRoute {
			return
		}
		left, right := n.child[0], n.child[1]
		switch {
		case left != 0 && right != 0:
			return // genuine branch point stays
		case left == 0 && right == 0:
			// Routeless leaf: detach from parent (the root always stays).
			if len(path) == 0 {
				return
			}
			last := path[len(path)-1]
			tr.at(last.parent).child[last.bit] = 0
			tr.release(i)
			i = last.parent
			path = path[:len(path)-1]
		default:
			// One child: fold its payload into this slot, extending the
			// edge, and free the child's. The root stays an empty /0
			// however few children it has: it is the entry point.
			if i == 0 {
				return
			}
			child := left | right
			*n = *tr.at(child)
			tr.release(child)
			return
		}
	}
}

// step records one parent-to-child edge on a Delete walk.
type step struct {
	parent uint32 // slab index
	bit    uint32
}
