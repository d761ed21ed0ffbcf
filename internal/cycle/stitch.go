package cycle

import (
	"fmt"

	"dhc/internal/graph"
)

// OrientedEdge is a directed cycle edge (V -> U) where U is V's successor on
// its cycle. The paper's hypernode [u_i, v_i] (Algorithm 2, Phase 2) is an
// OrientedEdge with incoming port U and outgoing port V.
type OrientedEdge struct {
	V, U graph.NodeID
}

// Hypernode places one partition on DHC1's Phase-2 hyperpath (paper
// Algorithm 2): (V -> U) is an edge of the partition's subcycle, Pos is the
// partition's 1-based position on the hyperpath (0 = not on it yet), and
// Reversed means the hyperpath enters the partition at V and leaves at U.
type Hypernode struct {
	U, V     graph.NodeID
	Pos      int32
	Reversed bool
}

// SpliceHypernodes lifts a closed hyperpath onto the partition subcycles,
// giving DHC1's Hamiltonian cycle. succ is the vertex-indexed successor
// table of every subcycle together. In hyperpath order, each partition is
// walked from U forward to V (its whole subcycle but the edge V -> U), or
// from V backward to U when Reversed; the hyperpath's edges join consecutive
// walks. The positions must be a permutation of 1..len(hyper) (ErrNotCycle),
// and the walks must cover succ exactly (ErrNotSpanning).
func SpliceHypernodes(succ []graph.NodeID, hyper []Hypernode) (*Cycle, error) {
	byPos := make([]int, len(hyper))
	for i, h := range hyper {
		if h.Pos < 1 || int(h.Pos) > len(hyper) || byPos[h.Pos-1] != 0 {
			return nil, fmt.Errorf("%w: hypernode positions not a permutation (partition %d at %d)",
				ErrNotCycle, i, h.Pos)
		}
		byPos[h.Pos-1] = i + 1
	}
	n := len(succ)
	order := make([]graph.NodeID, 0, n)
	for _, i := range byPos {
		h := hyper[i-1]
		start := len(order)
		for w := h.U; ; w = succ[w] {
			if w < 0 || int(w) >= n || len(order) == n {
				return nil, fmt.Errorf("%w: partition %d: walk from %d does not reach %d",
					ErrNotSpanning, i-1, h.U, h.V)
			}
			order = append(order, w)
			if w == h.V {
				break
			}
		}
		if h.Reversed {
			reverse(order[start:])
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("%w: spliced %d of %d vertices", ErrNotSpanning, len(order), n)
	}
	return &Cycle{order: order}, nil
}

// arcFrom returns the vertices of c from u forward (in cycle orientation)
// around to v inclusive. If v is u's predecessor the arc covers the whole
// cycle. It errors if u or v is absent or v->u is not a cycle edge.
func arcFrom(c *Cycle, u, v graph.NodeID) ([]graph.NodeID, error) {
	n := c.Len()
	start := -1
	for i := 0; i < n; i++ {
		if c.At(i) == u {
			start = i
			break
		}
	}
	if start < 0 {
		return nil, fmt.Errorf("%w: vertex %d not on subcycle", ErrNotSpanning, u)
	}
	if c.At(start-1) != v {
		return nil, fmt.Errorf("%w: (%d -> %d) is not a subcycle edge", ErrNotCycle, v, u)
	}
	arc := make([]graph.NodeID, 0, n)
	for i := 0; i < n; i++ {
		arc = append(arc, c.At(start+i))
	}
	return arc, nil
}

// Bridge describes how two disjoint cycles merge in DHC2 Phase 2 (paper
// Fig. 3). E1 = (v_i -> u_i) is a cycle edge of the first cycle,
// E2 = (v_j -> u_j) of the second. If Crossed is false, the graph edges
// (v_i, v_j) and (u_i, u_j) realize the bridge; if Crossed is true, the graph
// edges (v_i, u_j) and (u_i, v_j) do.
type Bridge struct {
	E1, E2  OrientedEdge
	Crossed bool
}

// MergeTwo merges cycles c1 and c2 over the given bridge into one cycle
// covering the union of their vertices: the cycle edges E1 and E2 are
// removed and replaced by the two bridge edges.
func MergeTwo(c1, c2 *Cycle, b Bridge) (*Cycle, error) {
	// Walk c1 from u_i forward around to v_i.
	seg1, err := arcFrom(c1, b.E1.U, b.E1.V)
	if err != nil {
		return nil, fmt.Errorf("cycle: bad bridge edge on first cycle: %w", err)
	}
	var seg2 []graph.NodeID
	if b.Crossed {
		// v_i -> u_j: walk c2 forward from u_j to v_j, then v_j -> u_i.
		seg2, err = arcFrom(c2, b.E2.U, b.E2.V)
		if err != nil {
			return nil, fmt.Errorf("cycle: bad bridge edge on second cycle: %w", err)
		}
	} else {
		// v_i -> v_j: walk c2 *backward* from v_j to u_j, then u_j -> u_i.
		seg2, err = arcFrom(c2, b.E2.U, b.E2.V)
		if err != nil {
			return nil, fmt.Errorf("cycle: bad bridge edge on second cycle: %w", err)
		}
		reverse(seg2)
	}
	return FromOrder(append(seg1, seg2...)), nil
}

// BridgeEdges returns the two graph edges a bridge requires.
func (b Bridge) BridgeEdges() [2]graph.Edge {
	if b.Crossed {
		return [2]graph.Edge{
			{U: b.E1.V, V: b.E2.U},
			{U: b.E1.U, V: b.E2.V},
		}
	}
	return [2]graph.Edge{
		{U: b.E1.V, V: b.E2.V},
		{U: b.E1.U, V: b.E2.U},
	}
}

// ValidBridge reports whether the bridge's two required edges exist in g and
// whether E1, E2 are cycle edges of c1, c2 respectively.
func ValidBridge(g *graph.Graph, c1, c2 *Cycle, b Bridge) bool {
	if !isCycleEdge(c1, b.E1) || !isCycleEdge(c2, b.E2) {
		return false
	}
	for _, e := range b.BridgeEdges() {
		if !g.HasEdge(e.U, e.V) {
			return false
		}
	}
	return true
}

func isCycleEdge(c *Cycle, e OrientedEdge) bool {
	for i := 0; i < c.Len(); i++ {
		if c.At(i) == e.V && c.At(i+1) == e.U {
			return true
		}
	}
	return false
}

func reverse(s []graph.NodeID) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
