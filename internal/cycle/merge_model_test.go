package cycle

// Model and fuzz tests for MergeTwo + bridge selection, mirroring
// path_model_test.go's approach for the rotation Path: generate random
// instances of the operation's precondition (two vertex-disjoint cycles and
// a bridge whose two graph edges exist), run the real implementation, and
// check the full postcondition — the result is one cycle covering the union
// that uses only edges the graph actually has. This is the Fig. 3 invariant
// DHC2's whole merge tree rests on: if any single pairwise merge could
// corrupt a cycle, the corruption would propagate up every level.

import (
	"testing"

	"dhc/internal/graph"
	"dhc/internal/rng"
)

// randomDisjointCyclePair builds two vertex-disjoint cycles with shuffled
// vertex orders (sizes in [3, 3+maxExtra]) plus the graph containing exactly
// their cycle edges and one random bridge's two graph edges.
func randomDisjointCyclePair(src *rng.Source, maxExtra int) (*graph.Graph, *Cycle, *Cycle, Bridge) {
	a := 3 + src.Intn(maxExtra+1)
	b := 3 + src.Intn(maxExtra+1)
	perm := func(lo, n int) []graph.NodeID {
		out := make([]graph.NodeID, n)
		for i := range out {
			out[i] = graph.NodeID(lo + i)
		}
		for i := n - 1; i > 0; i-- {
			j := src.Intn(i + 1)
			out[i], out[j] = out[j], out[i]
		}
		return out
	}
	c1 := FromOrder(perm(0, a))
	c2 := FromOrder(perm(a, b))
	br := Bridge{
		E1:      OrientedEdge{V: c1.At(src.Intn(a)), U: graph.NodeID(0)},
		E2:      OrientedEdge{V: c2.At(src.Intn(b)), U: graph.NodeID(0)},
		Crossed: src.Bernoulli(0.5),
	}
	// Complete the oriented cycle edges: U is V's successor.
	for i := 0; i < a; i++ {
		if c1.At(i) == br.E1.V {
			br.E1.U = c1.At(i + 1)
		}
	}
	for i := 0; i < b; i++ {
		if c2.At(i) == br.E2.V {
			br.E2.U = c2.At(i + 1)
		}
	}
	// FromEdges orders each edge's endpoints, so edges go in as walked.
	var edges []graph.Edge
	for i := 0; i < a; i++ {
		edges = append(edges, graph.Edge{U: c1.At(i), V: c1.At(i + 1)})
	}
	for i := 0; i < b; i++ {
		edges = append(edges, graph.Edge{U: c2.At(i), V: c2.At(i + 1)})
	}
	for _, e := range br.BridgeEdges() {
		edges = append(edges, e)
	}
	return graph.FromEdges(a+b, edges), c1, c2, br
}

// checkMerged verifies the full postcondition: merged is a single cycle over
// the union of the two input vertex sets using only edges of g. Verify
// covers all three facts because g has exactly a+b vertices and no edges
// beyond the two cycles and the bridge.
func checkMerged(t *testing.T, g *graph.Graph, c1, c2, merged *Cycle) {
	t.Helper()
	if merged.Len() != c1.Len()+c2.Len() {
		t.Fatalf("merged length %d, want %d+%d", merged.Len(), c1.Len(), c2.Len())
	}
	if err := merged.Verify(g); err != nil {
		t.Fatalf("merged cycle invalid: %v", err)
	}
}

// TestMergeTwoRandomBridges drives many random instances through both
// bridge orientations.
func TestMergeTwoRandomBridges(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		src := rng.New(seed)
		for trial := 0; trial < 20; trial++ {
			g, c1, c2, br := randomDisjointCyclePair(src, 37)
			if !ValidBridge(g, c1, c2, br) {
				t.Fatalf("seed %d trial %d: constructed bridge %+v not valid", seed, trial, br)
			}
			merged, err := MergeTwo(c1, c2, br)
			if err != nil {
				t.Fatalf("seed %d trial %d: MergeTwo: %v", seed, trial, err)
			}
			checkMerged(t, g, c1, c2, merged)
		}
	}
}

// TestMergeTwoRejectsNonCycleEdge pins the error path: a bridge whose E1 is
// not a successor pair of c1 must be refused, not silently produce garbage.
func TestMergeTwoRejectsNonCycleEdge(t *testing.T) {
	src := rng.New(42)
	_, c1, c2, br := randomDisjointCyclePair(src, 10)
	// Break E1: (V, U) with U = V's *second* successor is never a cycle edge
	// on cycles of length >= 3.
	for i := 0; i < c1.Len(); i++ {
		if c1.At(i) == br.E1.V {
			br.E1.U = c1.At(i + 2)
		}
	}
	if _, err := MergeTwo(c1, c2, br); err == nil {
		t.Fatal("MergeTwo accepted a non-cycle-edge bridge")
	}
}

// FuzzMergeTwo explores the same property from arbitrary seeds; `go test`
// runs the corpus, `go test -fuzz=FuzzMergeTwo ./internal/cycle` explores.
func FuzzMergeTwo(f *testing.F) {
	for _, seed := range []uint64{0, 1, 2, 0xdead, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		src := rng.New(seed)
		g, c1, c2, br := randomDisjointCyclePair(src, 61)
		if !ValidBridge(g, c1, c2, br) {
			t.Fatalf("constructed bridge %+v not valid", br)
		}
		merged, err := MergeTwo(c1, c2, br)
		if err != nil {
			t.Fatalf("MergeTwo: %v", err)
		}
		checkMerged(t, g, c1, c2, merged)
	})
}
