package cycle

import (
	"errors"
	"slices"
	"testing"

	"dhc/internal/graph"
)

// twoTriangleGraph builds two disjoint triangles {0,1,2} and {3,4,5} plus
// the given extra edges.
func twoTriangleGraph(extra ...graph.Edge) *graph.Graph {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 3}}
	return graph.FromEdges(6, append(edges, extra...))
}

func TestMergeTwoParallelBridge(t *testing.T) {
	// Bridge over cycle edges (0->1) and (3->4) using graph edges
	// (v_i,v_j)=(0,3) and (u_i,u_j)=(1,4): the non-crossed case.
	g := twoTriangleGraph(graph.Edge{U: 0, V: 3}, graph.Edge{U: 1, V: 4})
	c1 := FromOrder([]graph.NodeID{0, 1, 2})
	c2 := FromOrder([]graph.NodeID{3, 4, 5})
	b := Bridge{E1: OrientedEdge{V: 0, U: 1}, E2: OrientedEdge{V: 3, U: 4}}
	if !ValidBridge(g, c1, c2, b) {
		t.Fatal("bridge should be valid")
	}
	merged, err := MergeTwo(c1, c2, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := merged.Verify(g); err != nil {
		t.Fatalf("merged cycle invalid: %v", err)
	}
}

func TestMergeTwoCrossedBridge(t *testing.T) {
	// Crossed case: graph edges (v_i,u_j)=(0,4) and (u_i,v_j)=(1,3).
	g := twoTriangleGraph(graph.Edge{U: 0, V: 4}, graph.Edge{U: 1, V: 3})
	c1 := FromOrder([]graph.NodeID{0, 1, 2})
	c2 := FromOrder([]graph.NodeID{3, 4, 5})
	b := Bridge{E1: OrientedEdge{V: 0, U: 1}, E2: OrientedEdge{V: 3, U: 4}, Crossed: true}
	if !ValidBridge(g, c1, c2, b) {
		t.Fatal("crossed bridge should be valid")
	}
	merged, err := MergeTwo(c1, c2, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := merged.Verify(g); err != nil {
		t.Fatalf("merged cycle invalid: %v", err)
	}
}

func TestValidBridgeRejectsMissingEdges(t *testing.T) {
	g := twoTriangleGraph() // no cross edges at all
	c1 := FromOrder([]graph.NodeID{0, 1, 2})
	c2 := FromOrder([]graph.NodeID{3, 4, 5})
	b := Bridge{E1: OrientedEdge{V: 0, U: 1}, E2: OrientedEdge{V: 3, U: 4}}
	if ValidBridge(g, c1, c2, b) {
		t.Fatal("bridge with missing graph edges accepted")
	}
	// Not a cycle edge: (0 -> 2) is the wrong orientation on c1 (0's succ is 1).
	g2 := twoTriangleGraph(graph.Edge{U: 0, V: 3}, graph.Edge{U: 2, V: 4})
	b2 := Bridge{E1: OrientedEdge{V: 0, U: 2}, E2: OrientedEdge{V: 3, U: 4}}
	if ValidBridge(g2, c1, c2, b2) {
		t.Fatal("non-cycle-edge bridge accepted")
	}
}

func TestMergeTwoBadBridgeErrors(t *testing.T) {
	c1 := FromOrder([]graph.NodeID{0, 1, 2})
	c2 := FromOrder([]graph.NodeID{3, 4, 5})
	// (1 -> 0) is not a cycle edge of c1 (wrong direction).
	b := Bridge{E1: OrientedEdge{V: 1, U: 0}, E2: OrientedEdge{V: 3, U: 4}}
	if _, err := MergeTwo(c1, c2, b); err == nil {
		t.Fatal("expected error for reversed cycle edge")
	}
	// Vertex not on cycle.
	b = Bridge{E1: OrientedEdge{V: 9, U: 1}, E2: OrientedEdge{V: 3, U: 4}}
	if _, err := MergeTwo(c1, c2, b); err == nil {
		t.Fatal("expected error for absent vertex")
	}
}

func TestSpliceHypernodes(t *testing.T) {
	// Three triangles 0-2, 3-5, 6-8, each with subcycle 3k -> 3k+1 -> 3k+2
	// and hypernode (3k -> 3k+1): U = 3k+1 is the forward entry, V = 3k the
	// forward exit. The hyperpath visits partition 1, then 0 reversed, then
	// 2 reversed: walks 4 5 3 | 0 2 1 | 6 8 7, so the hyperedges are (3,0),
	// (1,6) and the closing (7,4).
	edges := []graph.Edge{{U: 3, V: 0}, {U: 1, V: 6}, {U: 7, V: 4}}
	for base := graph.NodeID(0); base < 9; base += 3 {
		edges = append(edges, graph.Edge{U: base, V: base + 1}, graph.Edge{U: base + 1, V: base + 2}, graph.Edge{U: base + 2, V: base})
	}
	g := graph.FromEdges(9, edges)
	succ := []graph.NodeID{1, 2, 0, 4, 5, 3, 7, 8, 6}
	hyper := []Hypernode{
		{U: 1, V: 0, Pos: 2, Reversed: true},
		{U: 4, V: 3, Pos: 1},
		{U: 7, V: 6, Pos: 3, Reversed: true},
	}
	hc, err := SpliceHypernodes(succ, hyper)
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.NodeID{4, 5, 3, 0, 2, 1, 6, 8, 7}
	if got := hc.Order(); !slices.Equal(got, want) {
		t.Fatalf("spliced order %v, want %v", got, want)
	}
	if err := hc.Verify(g); err != nil {
		t.Fatalf("spliced cycle invalid: %v", err)
	}
}

func TestSpliceHypernodesErrors(t *testing.T) {
	succ := []graph.NodeID{1, 2, 0, 4, 5, 3}
	for _, tc := range []struct {
		name  string
		hyper []Hypernode
		want  error
	}{
		{"position off the path", []Hypernode{{U: 1, V: 0, Pos: 0}, {U: 4, V: 3, Pos: 1}}, ErrNotCycle},
		{"position repeated", []Hypernode{{U: 1, V: 0, Pos: 1}, {U: 4, V: 3, Pos: 1}}, ErrNotCycle},
		{"position past the end", []Hypernode{{U: 1, V: 0, Pos: 1}, {U: 4, V: 3, Pos: 3}}, ErrNotCycle},
		// (0 -> 2) is not a subcycle edge: the walk from 2 stops at 0 and
		// skips vertex 1.
		{"hypernode not a subcycle edge", []Hypernode{{U: 2, V: 0, Pos: 1}, {U: 4, V: 3, Pos: 2}}, ErrNotSpanning},
		// V on another partition: the walk never reaches it.
		{"walk does not close", []Hypernode{{U: 1, V: 3, Pos: 1}, {U: 4, V: 3, Pos: 2}}, ErrNotSpanning},
		{"partition missing", []Hypernode{{U: 1, V: 0, Pos: 1}}, ErrNotSpanning},
	} {
		if _, err := SpliceHypernodes(succ, tc.hyper); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestBridgeEdges(t *testing.T) {
	b := Bridge{E1: OrientedEdge{V: 0, U: 1}, E2: OrientedEdge{V: 3, U: 4}}
	e := b.BridgeEdges()
	if e[0] != (graph.Edge{U: 0, V: 3}) || e[1] != (graph.Edge{U: 1, V: 4}) {
		t.Fatalf("parallel bridge edges %v", e)
	}
	b.Crossed = true
	e = b.BridgeEdges()
	if e[0] != (graph.Edge{U: 0, V: 4}) || e[1] != (graph.Edge{U: 1, V: 3}) {
		t.Fatalf("crossed bridge edges %v", e)
	}
}
