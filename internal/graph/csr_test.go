package graph

import (
	"math"
	"slices"
	"testing"

	"dhc/internal/rng"
)

// checkWellFormed asserts the CSR invariants every generator must uphold:
// rows strictly increasing (sorted, no duplicates), no self-loops, symmetric
// adjacency, and half-edge count consistent with M().
func checkWellFormed(t *testing.T, g *Graph) {
	t.Helper()
	half := 0
	for v := 0; v < g.N(); v++ {
		row := g.Neighbors(NodeID(v))
		half += len(row)
		for i, w := range row {
			if int(w) < 0 || int(w) >= g.N() {
				t.Fatalf("vertex %d has out-of-range neighbor %d", v, w)
			}
			if w == NodeID(v) {
				t.Fatalf("vertex %d has a self-loop", v)
			}
			if i > 0 && row[i-1] >= w {
				t.Fatalf("row of %d not strictly sorted: %v", v, row)
			}
			if !g.HasEdge(w, NodeID(v)) {
				t.Fatalf("edge (%d,%d) present but (%d,%d) missing", v, w, w, v)
			}
		}
	}
	if half != 2*g.M() {
		t.Fatalf("half-edge count %d inconsistent with m=%d", half, g.M())
	}
}

func TestGeneratorsWellFormed(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		n := 400
		p := 0.05 * float64(seed)
		g := GNP(n, p, rng.New(seed))
		checkWellFormed(t, g)
		// Degree bound: Binomial(n-1, p) stays within mean + 10 sd + 10 whp.
		mean := p * float64(n-1)
		sd := math.Sqrt(mean * (1 - p))
		if float64(g.MaxDegree()) > mean+10*sd+10 {
			t.Fatalf("GNP(seed=%d) max degree %d far above mean %.1f", seed, g.MaxDegree(), mean)
		}

		m := 1500 * int(seed)
		h := GNM(n, m, rng.New(seed))
		checkWellFormed(t, h)
		if h.M() != m {
			t.Fatalf("GNM produced %d edges, want %d", h.M(), m)
		}

		r, err := RandomRegular(n, 2*int(seed)+1, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		checkWellFormed(t, r)
		if r.MinDegree() != 2*int(seed)+1 || r.MaxDegree() != 2*int(seed)+1 {
			t.Fatalf("RandomRegular degrees [%d,%d], want exactly %d",
				r.MinDegree(), r.MaxDegree(), 2*int(seed)+1)
		}
	}
}

func TestGNMDenseRegimeWellFormed(t *testing.T) {
	// Above half density GNM switches to complement sampling.
	n, m := 60, 1500 // maxM = 1770
	g := GNM(n, m, rng.New(5))
	checkWellFormed(t, g)
	if g.M() != m {
		t.Fatalf("dense GNM produced %d edges, want %d", g.M(), m)
	}
}

func TestBuilderCSRDeduplicates(t *testing.T) {
	b := NewBuilderCSR(5, 0)
	if !b.Add(0, 1) || !b.Add(1, 0) || !b.Add(0, 1) {
		t.Fatal("valid adds rejected")
	}
	if b.Add(2, 2) {
		t.Fatal("self-loop accepted")
	}
	if b.Add(0, 5) || b.Add(-1, 3) {
		t.Fatal("out-of-range endpoint accepted")
	}
	b.Add(3, 2)
	g := b.Build()
	checkWellFormed(t, g)
	if g.M() != 2 {
		t.Fatalf("m=%d, want 2 after dedup", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 3) {
		t.Fatal("expected edges missing")
	}
}

// TestBuilderCSRMatchesBuilder feeds a random edge stream, self-loops and
// duplicates included, to BuilderCSR and to a map-and-sort oracle written
// here, and requires the same edge list.
func TestBuilderCSRMatchesBuilder(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		src := rng.New(seed)
		n := 50
		set := make(map[Edge]bool)
		csr := NewBuilderCSR(n, 0)
		for i := 0; i < 400; i++ {
			u := NodeID(src.Intn(n))
			v := NodeID(src.Intn(n))
			if u != v {
				set[Edge{U: min(u, v), V: max(u, v)}] = true
			}
			csr.Add(u, v)
		}
		want := make([]Edge, 0, len(set))
		for e := range set {
			want = append(want, e)
		}
		slices.SortFunc(want, func(a, b Edge) int {
			if a.U != b.U {
				return int(a.U - b.U)
			}
			return int(a.V - b.V)
		})
		g := csr.Build()
		checkWellFormed(t, g)
		if got := g.Edges(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: built %d edges %v, oracle %d edges %v", seed, len(got), got, len(want), want)
		}
	}
}

func TestCSROffsetOverflowGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newCSR accepted an edge count past the int32 offset range")
		}
	}()
	// Fabricate an impossible edge count without allocating: a fake slice
	// header is not constructible safely, so call the guard through a tiny
	// wrapper instead.
	guardHalfEdges(1 << 31)
}
