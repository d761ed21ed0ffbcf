// Package cycle provides the path and cycle representations shared by all
// Hamiltonian-cycle algorithms in this repository: the rotation path of
// Angluin–Valiant (paper Fig. 2), cycles built from successor pointers (the
// paper's output condition: every node knows its cycle successor), DHC2's
// two-cycle bridge merge, DHC1's hypernode splice, and verification. Every
// engine assembles its cycle here.
package cycle

import (
	"errors"
	"fmt"

	"dhc/internal/bitset"
	"dhc/internal/graph"
)

// Sentinel errors returned by verification. Callers match with errors.Is.
var (
	ErrNotCycle    = errors.New("cycle: successor structure is not a single cycle")
	ErrNotSpanning = errors.New("cycle: cycle does not visit every vertex exactly once")
	ErrNotSubgraph = errors.New("cycle: cycle uses a non-edge of the graph")
)

// Cycle is a directed traversal v_0 -> v_1 -> ... -> v_{k-1} -> v_0 over
// vertices of a graph, stored as the visiting order. A Hamiltonian cycle has
// k = n.
type Cycle struct {
	order []graph.NodeID
}

// FromOrder builds a Cycle visiting the given vertices in order. The slice is
// copied.
func FromOrder(order []graph.NodeID) *Cycle {
	c := &Cycle{order: make([]graph.NodeID, len(order))}
	copy(c.order, order)
	return c
}

// FromSuccessors builds a Cycle from a vertex-indexed successor table
// (succ[v] is v's successor), starting at start and following successors
// until returning to start. It returns ErrNotCycle unless the walk visits
// every vertex of the table exactly once: an empty table, a successor out of
// range (a negative one means missing), a revisit and an early close all
// fail.
func FromSuccessors(succ []graph.NodeID, start graph.NodeID) (*Cycle, error) {
	n := len(succ)
	if n == 0 {
		return nil, fmt.Errorf("%w: empty successor table", ErrNotCycle)
	}
	order := make([]graph.NodeID, 0, n)
	seen := bitset.Make(n)
	v := start
	for {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("%w: successor %d out of range [0, %d)", ErrNotCycle, v, n)
		}
		if seen.Has(int(v)) {
			return nil, fmt.Errorf("%w: revisited %d before closing", ErrNotCycle, v)
		}
		seen.Add(int(v))
		order = append(order, v)
		if v = succ[v]; v == start {
			break
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("%w: walk closed after %d of %d vertices", ErrNotCycle, len(order), n)
	}
	return &Cycle{order: order}, nil
}

// FromVerifiedSuccessors is FromSuccessors from vertex 0 followed by Verify
// against g: how an exact run turns its nodes' successor pointers into its
// result.
func FromVerifiedSuccessors(g *graph.Graph, succ []graph.NodeID) (*Cycle, error) {
	c, err := FromSuccessors(succ, 0)
	if err != nil {
		return nil, err
	}
	if err := c.Verify(g); err != nil {
		return nil, err
	}
	return c, nil
}

// Len returns the number of vertices on the cycle.
func (c *Cycle) Len() int { return len(c.order) }

// Order returns the visit order. The returned slice is a copy.
func (c *Cycle) Order() []graph.NodeID {
	out := make([]graph.NodeID, len(c.order))
	copy(out, c.order)
	return out
}

// At returns the i-th vertex in visiting order (0-based, modulo length).
func (c *Cycle) At(i int) graph.NodeID {
	n := len(c.order)
	i %= n
	if i < 0 {
		i += n
	}
	return c.order[i]
}

// Successors returns the cycle's vertex-indexed successor table, the
// inverse of FromSuccessors. The cycle must visit exactly the vertices
// [0, Len()), as a Hamiltonian cycle does.
func (c *Cycle) Successors() []graph.NodeID {
	succ := make([]graph.NodeID, len(c.order))
	for i, v := range c.order {
		succ[v] = c.order[(i+1)%len(c.order)]
	}
	return succ
}

// Verify checks that c is a Hamiltonian cycle of g: it must visit each of the
// n vertices exactly once and every consecutive pair (including the closing
// pair) must be an edge of g. A nil error means c is a valid HC.
func (c *Cycle) Verify(g *graph.Graph) error {
	n := g.N()
	if len(c.order) != n {
		return fmt.Errorf("%w: cycle length %d, graph has %d vertices",
			ErrNotSpanning, len(c.order), n)
	}
	if n < 3 {
		return fmt.Errorf("%w: Hamiltonian cycle needs n >= 3", ErrNotSpanning)
	}
	seen := bitset.Make(n)
	for _, v := range c.order {
		if int(v) < 0 || int(v) >= n {
			return fmt.Errorf("%w: vertex %d out of range", ErrNotSpanning, v)
		}
		if seen.Has(int(v)) {
			return fmt.Errorf("%w: vertex %d visited twice", ErrNotSpanning, v)
		}
		seen.Add(int(v))
	}
	for i, v := range c.order {
		w := c.order[(i+1)%n]
		if !g.HasEdge(v, w) {
			return fmt.Errorf("%w: (%d,%d) missing", ErrNotSubgraph, v, w)
		}
	}
	return nil
}

// Relabel maps every vertex through the given table (new id = table[old id]),
// used to lift a cycle found in an induced subgraph back to original ids.
func (c *Cycle) Relabel(table []graph.NodeID) *Cycle {
	out := make([]graph.NodeID, len(c.order))
	for i, v := range c.order {
		out[i] = table[v]
	}
	return &Cycle{order: out}
}

// String renders a short preview like "cycle[0 5 2 ... 9] len=12".
func (c *Cycle) String() string {
	if len(c.order) <= 8 {
		return fmt.Sprintf("cycle%v len=%d", c.order, len(c.order))
	}
	return fmt.Sprintf("cycle[%d %d %d ... %d] len=%d",
		c.order[0], c.order[1], c.order[2], c.order[len(c.order)-1], len(c.order))
}
