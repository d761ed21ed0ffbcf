package cycle

import (
	"fmt"
	"math/bits"
	"slices"

	"dhc/internal/graph"
)

// Path is a mutable simple path v_1, ..., v_h used by the rotation
// algorithms. Positions are 1-based to match the paper's pseudocode
// (Algorithm 1 keeps cycindex = 0 for unvisited vertices and assigns the
// initial head cycindex = 1).
//
// Internally Path is a splay tree in path order with lazy suffix reversal
// (Sleator & Tarjan, "Self-adjusting binary search trees", JACM 1985). A
// rotation reverses the whole path suffix after position j; on an array that
// is Θ(h) per rotation and makes the rotation process Θ(n²) overall. Here
// RotateAt splays the rotation vertex to the root, reads j off its left
// subtree and flips the reversal flag of its right subtree: amortized
// O(log h). Extend, Head and Tail are O(1); Position and At are amortized
// O(log h). The shape of the tree is unobservable, so every sequence of
// positions and heads is the array implementation's.
type Path struct {
	// nodes[v+1] is vertex v's node; nodes[0] is the nil sentinel, whose
	// size is 0 so that child sizes need no nil check. A node whose size is
	// 0 is off the path. Vertex ids are dense, so indexing by id needs no
	// map.
	nodes []pathNode
	root  int32
	// head and tail are the node indices of v_h and v_1. A rotation keeps
	// v_1, so tail never changes.
	head, tail int32
}

// sizeMask extracts the subtree size from pathNode.szrev; bit 31 is the lazy
// reversal flag. Path length is bounded far below 2^31 by the graph layout's
// own vertex cap, so 31 bits of size lose nothing.
const (
	sizeMask = 1<<31 - 1
	revBit   = 1 << 31
)

// pathNode is 16 bytes: child and parent indices (0 is nil) and the subtree
// size with the reversal flag in its top bit. A set flag means the subtree's
// order is reversed and its children not yet swapped.
type pathNode struct {
	l, r, p int32
	szrev   uint32
}

func vertexOf(x int32) graph.NodeID { return graph.NodeID(x - 1) }

// NewPath returns a path containing just the start vertex (the initial head).
func NewPath(start graph.NodeID) *Path {
	p := &Path{}
	x := p.node(start)
	p.nodes[x].szrev = 1
	p.root, p.head, p.tail = x, x, x
	return p
}

// node returns v's node index, growing the arena to hold it.
func (p *Path) node(v graph.NodeID) int32 {
	x := int32(v) + 1
	if need := int(x) + 1; need > len(p.nodes) {
		// Slots past the length were never written, so they are zero: off
		// the path.
		p.nodes = slices.Grow(p.nodes, need-len(p.nodes))[:need]
	}
	return x
}

func (p *Path) size(x int32) int32 { return int32(p.nodes[x].szrev & sizeMask) }

// push resolves x's pending reversal by swapping its children and deferring
// the flag to them. The sentinel may pick up a flag; its size stays 0.
func (p *Path) push(x int32) {
	n := &p.nodes[x]
	if n.szrev&revBit == 0 {
		return
	}
	n.l, n.r = n.r, n.l
	p.nodes[n.l].szrev ^= revBit
	p.nodes[n.r].szrev ^= revBit
	n.szrev &= sizeMask
}

// rotate moves x above its parent y, keeping in-order sequence and sizes.
// Both must carry no pending reversal.
func (p *Path) rotate(x int32) {
	nodes := p.nodes
	y := nodes[x].p
	z := nodes[y].p
	var b int32
	if nodes[y].l == x {
		b = nodes[x].r
		nodes[y].l = b
		nodes[x].r = y
	} else {
		b = nodes[x].l
		nodes[y].r = b
		nodes[x].l = y
	}
	nodes[b].p = y
	nodes[y].p = x
	nodes[x].p = z
	if nodes[z].l == y {
		nodes[z].l = x
	} else if nodes[z].r == y {
		nodes[z].r = x
	}
	// x takes over y's subtree; y loses x but gains x's inner child b.
	// Neither carries a flag, so their words are plain sizes.
	sy := nodes[y].szrev
	nodes[y].szrev = sy - nodes[x].szrev + nodes[b].szrev&sizeMask
	nodes[x].szrev = sy
}

// splay splays x until its parent is top (0 for the tree root). It settles
// pending reversals on the way, three nodes at a time from the top: a
// rotation below an unpushed ancestor keeps that subtree's stored order, so
// the ancestor's flag stays valid and no root-to-x pass is needed.
func (p *Path) splay(x, top int32) {
	nodes := p.nodes
	for {
		y := nodes[x].p
		if y == top {
			break
		}
		z := nodes[y].p
		if z == top {
			p.push(y)
			p.push(x)
			p.rotate(x)
			break
		}
		p.push(z)
		p.push(y)
		p.push(x)
		if (nodes[z].l == y) == (nodes[y].l == x) {
			p.rotate(y)
		} else {
			p.rotate(x)
		}
		p.rotate(x)
	}
	p.push(x)
	if top == 0 {
		p.root = x
	}
}

// Len returns the number of vertices h on the path.
func (p *Path) Len() int { return int(p.size(p.root)) }

// Head returns the current head v_h.
func (p *Path) Head() graph.NodeID { return vertexOf(p.head) }

// Tail returns v_1.
func (p *Path) Tail() graph.NodeID { return vertexOf(p.tail) }

// Contains reports whether v lies on the path.
func (p *Path) Contains(v graph.NodeID) bool {
	return int(v) >= 0 && int(v)+1 < len(p.nodes) && p.nodes[v+1].szrev&sizeMask != 0
}

// Position returns the 1-based position of v on the path, or 0 if absent.
func (p *Path) Position(v graph.NodeID) int {
	if !p.Contains(v) {
		return 0
	}
	x := int32(v) + 1
	p.splay(x, 0)
	return int(p.size(p.nodes[x].l)) + 1
}

// At returns the vertex at 1-based position i. It panics if i is out of
// [1, h].
func (p *Path) At(i int) graph.NodeID {
	if i < 1 || i > p.Len() {
		panic(fmt.Sprintf("cycle: At(%d) out of range for path length %d", i, p.Len()))
	}
	k := int32(i)
	x := p.root
	for {
		p.push(x)
		ls := p.size(p.nodes[x].l)
		switch {
		case k <= ls:
			x = p.nodes[x].l
		case k == ls+1:
			p.splay(x, 0)
			return vertexOf(x)
		default:
			k -= ls + 1
			x = p.nodes[x].r
		}
	}
}

// Extend appends u as the new head: u's node becomes the root with the old
// tree as its left subtree. It panics if u is already on the path; callers
// decide between Extend and a rotation by checking Contains first, which
// mirrors the algorithm's branch on cycindex = 0.
func (p *Path) Extend(u graph.NodeID) {
	if p.Contains(u) {
		panic(fmt.Sprintf("cycle: Extend(%d) but vertex already at position %d", u, p.Position(u)))
	}
	x := p.node(u)
	p.nodes[x] = pathNode{l: p.root, szrev: uint32(p.size(p.root)) + 1}
	p.nodes[p.root].p = x
	p.root, p.head = x, x
}

// Rotate performs the rotation of paper Fig. 2 at the vertex with 1-based
// position j: the path v_1..v_j v_{j+1}..v_h becomes
// v_1..v_j v_h v_{h-1}..v_{j+1}, i.e. the suffix after v_j is reversed, and
// the old v_{j+1} becomes the new head. The renumbering i <- h + j + 1 - i
// of the paper is what the lazy reversal flag represents. It panics if j is
// out of [1, h-1].
func (p *Path) Rotate(j int) {
	if h := p.Len(); j < 1 || j >= h {
		panic(fmt.Sprintf("cycle: Rotate(j=%d) out of range for path length %d", j, h))
	}
	p.RotateAt(p.At(j))
}

// RotateAt performs the rotation at v's position j and returns j and the
// new head (the old v_{j+1}). It splays v to the root, so j is its left
// subtree's size plus one and the suffix to reverse is its right subtree,
// whose leftmost node is the new head. It panics if v is off the path or is
// the head.
func (p *Path) RotateAt(v graph.NodeID) (j int, head graph.NodeID) {
	if !p.Contains(v) {
		panic(fmt.Sprintf("cycle: RotateAt(%d) but vertex is not on the path", v))
	}
	x := int32(v) + 1
	p.splay(x, 0)
	n := &p.nodes[x]
	if n.r == 0 {
		panic(fmt.Sprintf("cycle: RotateAt(%d) at the head", v))
	}
	y, depth := n.r, 0
	for {
		p.push(y)
		l := p.nodes[y].l
		if l == 0 {
			break
		}
		y = l
		depth++
	}
	// A descent longer than about 2·log₂h is paid for by splaying its end,
	// which the amortized splay bound covers; a shorter one costs O(log h)
	// as it is.
	if depth > 2*bits.Len32(n.szrev&sizeMask) {
		p.splay(y, x)
	}
	p.nodes[n.r].szrev ^= revBit
	p.head = y
	return int(p.size(n.l)) + 1, vertexOf(y)
}

// Order returns the vertices in path order. The returned slice is a copy.
// The walk follows parent links instead of a stack: a splay tree can be a
// single path of depth h.
func (p *Path) Order() []graph.NodeID {
	out := make([]graph.NodeID, 0, p.Len())
	nodes := p.nodes
	x := p.root
	for x != 0 {
		// Enter x's subtree: settle flags on the way to its leftmost node.
		p.push(x)
		for nodes[x].l != 0 {
			x = nodes[x].l
			p.push(x)
		}
		// Emit x, then enter its right subtree or climb to the first
		// ancestor reached from its left.
		for {
			out = append(out, vertexOf(x))
			if r := nodes[x].r; r != 0 {
				x = r
				break
			}
			for y := nodes[x].p; y != 0 && nodes[y].r == x; y = nodes[x].p {
				x = y
			}
			if x = nodes[x].p; x == 0 {
				break
			}
		}
	}
	return out
}

// CloseCycle converts the path into a Cycle. It does not check the closing
// edge; use Verify on the result.
func (p *Path) CloseCycle() *Cycle {
	return &Cycle{order: p.Order()}
}

// VerifyPath checks that consecutive path vertices are adjacent in g and
// no vertex repeats.
func (p *Path) VerifyPath(g *graph.Graph) error {
	order := p.Order()
	seen := make(map[graph.NodeID]bool, len(order))
	for i, v := range order {
		if seen[v] {
			return fmt.Errorf("%w: path revisits %d", ErrNotCycle, v)
		}
		seen[v] = true
		if i > 0 && !g.HasEdge(order[i-1], v) {
			return fmt.Errorf("%w: path uses non-edge (%d,%d)", ErrNotSubgraph, order[i-1], v)
		}
	}
	return nil
}
