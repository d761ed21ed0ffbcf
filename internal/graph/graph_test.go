package graph

import (
	"testing"
	"testing/quick"

	"dhc/internal/rng"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilderCSR(4, 0)
	if !b.Add(0, 1) || !b.Add(1, 0) {
		t.Fatal("valid edge rejected")
	}
	if b.Add(2, 2) {
		t.Fatal("self-loop accepted")
	}
	if b.Add(0, 5) {
		t.Fatal("out-of-range edge accepted")
	}
	if b.Add(-1, 0) {
		t.Fatal("negative endpoint accepted")
	}
	b.Add(1, 2)
	g := b.Build() // the reversed duplicate of (0,1) is dropped here
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("got n=%d m=%d, want 4, 2", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("HasEdge symmetric lookup failed")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge")
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Fatalf("degrees wrong: %d, %d", g.Degree(1), g.Degree(3))
	}
}

func TestNeighborsSorted(t *testing.T) {
	src := rng.New(1)
	g := GNP(200, 0.1, src)
	for v := 0; v < g.N(); v++ {
		nb := g.Neighbors(NodeID(v))
		for i := 1; i < len(nb); i++ {
			if nb[i-1] >= nb[i] {
				t.Fatalf("neighbors of %d not strictly sorted: %v", v, nb)
			}
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	src := rng.New(2)
	g := GNP(100, 0.05, src)
	g2 := FromEdges(g.N(), g.Edges())
	if g2.M() != g.M() {
		t.Fatalf("edge count changed: %d -> %d", g.M(), g2.M())
	}
	for _, e := range g.Edges() {
		if !g2.HasEdge(e.U, e.V) {
			t.Fatalf("edge %v lost in round trip", e)
		}
	}
}

func TestCompleteAndRing(t *testing.T) {
	k := Complete(6)
	if k.M() != 15 {
		t.Fatalf("K6 has %d edges, want 15", k.M())
	}
	if k.MinDegree() != 5 || k.MaxDegree() != 5 {
		t.Fatal("K6 not 5-regular")
	}
	r := Ring(10)
	if r.M() != 10 || r.MinDegree() != 2 || r.MaxDegree() != 2 {
		t.Fatalf("Ring(10): m=%d min=%d max=%d", r.M(), r.MinDegree(), r.MaxDegree())
	}
	p := Path(5)
	if p.M() != 4 || p.MinDegree() != 1 {
		t.Fatalf("Path(5): m=%d min=%d", p.M(), p.MinDegree())
	}
}

func TestGridStructure(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 {
		t.Fatalf("grid n=%d", g.N())
	}
	// 3x4 grid: 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8 = 17.
	if g.M() != 17 {
		t.Fatalf("grid m=%d, want 17", g.M())
	}
	if !g.Connected() {
		t.Fatal("grid should be connected")
	}
}

func TestGNPDeterminism(t *testing.T) {
	g1 := GNP(500, 0.02, rng.New(7))
	g2 := GNP(500, 0.02, rng.New(7))
	if g1.M() != g2.M() {
		t.Fatalf("same seed produced different graphs: m=%d vs %d", g1.M(), g2.M())
	}
	e1, e2 := g1.Edges(), g2.Edges()
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, e1[i], e2[i])
		}
	}
}

func TestGNPEdgeCount(t *testing.T) {
	// E[m] = p * n(n-1)/2; check within 5 standard deviations.
	n, p := 1000, 0.01
	g := GNP(n, p, rng.New(3))
	mean := p * float64(n*(n-1)) / 2
	sd := mean * (1 - p)
	sd = sqrtf(sd)
	if diff := absf(float64(g.M()) - mean); diff > 5*sd {
		t.Fatalf("GNP edge count %d deviates from mean %.0f by %.0f (>5sd=%.0f)",
			g.M(), mean, diff, 5*sd)
	}
}

func TestGNPExtremes(t *testing.T) {
	if g := GNP(100, 0, rng.New(1)); g.M() != 0 {
		t.Fatal("GNP(p=0) has edges")
	}
	if g := GNP(20, 1, rng.New(1)); g.M() != 190 {
		t.Fatalf("GNP(p=1) m=%d, want 190", g.M())
	}
	if g := GNP(1, 0.5, rng.New(1)); g.N() != 1 || g.M() != 0 {
		t.Fatal("GNP(n=1) wrong")
	}
	if g := GNP(0, 0.5, rng.New(1)); g.N() != 0 {
		t.Fatal("GNP(n=0) wrong")
	}
}

func TestGNMExactCount(t *testing.T) {
	for _, tc := range []struct{ n, m int }{
		{10, 0}, {10, 5}, {10, 45}, {10, 40}, {50, 300},
	} {
		g := GNM(tc.n, tc.m, rng.New(uint64(tc.n*1000+tc.m)))
		if g.M() != tc.m {
			t.Errorf("GNM(%d,%d) produced %d edges", tc.n, tc.m, g.M())
		}
	}
}

func TestGNMPanicsWhenOverfull(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GNM with too many edges did not panic")
		}
	}()
	GNM(4, 7, rng.New(1))
}

func TestRandomRegular(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{10, 3}, {50, 4}, {100, 6}} {
		g, err := RandomRegular(tc.n, tc.d, rng.New(uint64(tc.n)))
		if err != nil {
			t.Fatalf("RandomRegular(%d,%d): %v", tc.n, tc.d, err)
		}
		for v := 0; v < g.N(); v++ {
			if g.Degree(NodeID(v)) != tc.d {
				t.Fatalf("vertex %d degree %d, want %d", v, g.Degree(NodeID(v)), tc.d)
			}
		}
	}
}

func TestRandomRegularRejectsBadParams(t *testing.T) {
	if _, err := RandomRegular(5, 3, rng.New(1)); err == nil {
		t.Fatal("odd n*d accepted")
	}
	if _, err := RandomRegular(4, 4, rng.New(1)); err == nil {
		t.Fatal("d >= n accepted")
	}
}

func TestBFSDistances(t *testing.T) {
	g := Path(5)
	res := g.BFS(0)
	for v := 0; v < 5; v++ {
		if res.Dist[v] != v {
			t.Fatalf("path dist[%d]=%d", v, res.Dist[v])
		}
	}
	if res.Ecc != 4 {
		t.Fatalf("ecc=%d", res.Ecc)
	}
	if res.Parent[0] != -1 || res.Parent[3] != 2 {
		t.Fatalf("parents wrong: %v", res.Parent)
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := FromEdges(4, []Edge{{U: 0, V: 1}})
	res := g.BFS(0)
	if res.Dist[2] != -1 || res.Dist[3] != -1 {
		t.Fatal("unreachable vertices should have dist -1")
	}
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestDiameterSmall(t *testing.T) {
	if d := Ring(10).Diameter(); d != 5 {
		t.Fatalf("Ring(10) diameter %d, want 5", d)
	}
	if d := Path(7).Diameter(); d != 6 {
		t.Fatalf("Path(7) diameter %d, want 6", d)
	}
	if d := Complete(8).Diameter(); d != 1 {
		t.Fatalf("K8 diameter %d, want 1", d)
	}
	if d := FromEdges(3, []Edge{{U: 0, V: 1}}).Diameter(); d != -1 {
		t.Fatalf("disconnected diameter %d, want -1", d)
	}
}

func TestDiameterSampledLowerBoundsExact(t *testing.T) {
	src := rng.New(5)
	g := GNP(300, 0.03, src)
	if !g.Connected() {
		t.Skip("sample graph disconnected")
	}
	exact := g.Diameter()
	sampled := g.DiameterSampled(5, rng.New(6))
	if sampled > exact {
		t.Fatalf("sampled diameter %d exceeds exact %d", sampled, exact)
	}
	if sampled < exact-1 {
		t.Fatalf("double sweep too weak: sampled %d vs exact %d", sampled, exact)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Complete(6)
	sub, orig := g.InducedSubgraph([]NodeID{5, 1, 3, 3})
	if sub.N() != 3 {
		t.Fatalf("induced n=%d, want 3 (dedup)", sub.N())
	}
	if sub.M() != 3 {
		t.Fatalf("induced m=%d, want 3", sub.M())
	}
	want := []NodeID{1, 3, 5}
	for i, v := range orig {
		if v != want[i] {
			t.Fatalf("orig mapping %v, want %v", orig, want)
		}
	}
}

func TestInducedSubgraphPreservesEdges(t *testing.T) {
	check := func(seed uint64) bool {
		g := GNP(60, 0.2, rng.New(seed))
		vs := []NodeID{}
		pick := rng.New(seed + 1)
		for v := 0; v < g.N(); v++ {
			if pick.Bernoulli(0.5) {
				vs = append(vs, NodeID(v))
			}
		}
		sub, orig := g.InducedSubgraph(vs)
		for u := 0; u < sub.N(); u++ {
			for v := u + 1; v < sub.N(); v++ {
				if sub.HasEdge(NodeID(u), NodeID(v)) != g.HasEdge(orig[u], orig[v]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestInducedSubgraphEdgeCases(t *testing.T) {
	g := Complete(6)

	// Empty vertex set: an empty (not nil-panicking) subgraph.
	sub, orig := g.InducedSubgraph(nil)
	if sub.N() != 0 || sub.M() != 0 || len(orig) != 0 {
		t.Fatalf("empty set: n=%d m=%d orig=%v", sub.N(), sub.M(), orig)
	}
	sub, orig = g.InducedSubgraph([]NodeID{})
	if sub.N() != 0 || sub.M() != 0 || len(orig) != 0 {
		t.Fatalf("empty slice: n=%d m=%d orig=%v", sub.N(), sub.M(), orig)
	}

	// A set that is all duplicates of one vertex: single isolated vertex.
	sub, orig = g.InducedSubgraph([]NodeID{4, 4, 4})
	if sub.N() != 1 || sub.M() != 0 || len(orig) != 1 || orig[0] != 4 {
		t.Fatalf("all-duplicates set: n=%d m=%d orig=%v", sub.N(), sub.M(), orig)
	}

	// Full set: an exact round trip, identity mapping, every edge kept.
	all := make([]NodeID, g.N())
	for v := range all {
		all[v] = NodeID(v)
	}
	sub, orig = g.InducedSubgraph(all)
	if sub.N() != g.N() || sub.M() != g.M() {
		t.Fatalf("full set: n=%d m=%d, want %d, %d", sub.N(), sub.M(), g.N(), g.M())
	}
	for i, v := range orig {
		if int(v) != i {
			t.Fatalf("full set mapping not identity: %v", orig)
		}
	}
	for _, e := range g.Edges() {
		if !sub.HasEdge(e.U, e.V) {
			t.Fatalf("full-set round trip lost edge %v", e)
		}
	}

	// Full set given in reverse plus duplicates: same graph after dedup,
	// mapping still sorted ascending.
	rev := append(append([]NodeID{}, all...), all...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	sub, orig = g.InducedSubgraph(rev)
	if sub.N() != g.N() || sub.M() != g.M() {
		t.Fatalf("reversed full set: n=%d m=%d", sub.N(), sub.M())
	}
	for i := 1; i < len(orig); i++ {
		if orig[i-1] >= orig[i] {
			t.Fatalf("mapping not strictly ascending: %v", orig)
		}
	}
}

// TestHCThresholdPMonotone pins the shape of the threshold function: for
// fixed (n, delta) it grows with c, for fixed (c, delta) it shrinks with n,
// and for fixed (n, c) it shrinks as delta grows (denser regimes at smaller
// exponents).
func TestHCThresholdPMonotone(t *testing.T) {
	n := 10_000
	prev := 0.0
	for _, c := range []float64{0.5, 1, 1.5, 2, 4, 8, 16} {
		p := HCThresholdP(n, c, 0.5)
		if p <= prev {
			t.Fatalf("not monotone in c: p(%v)=%v <= p(prev)=%v", c, p, prev)
		}
		prev = p
	}
	if HCThresholdP(n, 2, 0.3) <= HCThresholdP(n, 2, 0.5) {
		t.Fatal("not anti-monotone in delta")
	}
	if HCThresholdP(n, 2, 0.5) <= HCThresholdP(4*n, 2, 0.5) {
		t.Fatal("not anti-monotone in n")
	}
}

func TestHCThresholdPClampAndSmallN(t *testing.T) {
	// n < 2 has no meaningful threshold at all.
	for _, n := range []int{-1, 0, 1} {
		if p := HCThresholdP(n, 86, 0.5); p != 0 {
			t.Fatalf("n=%d threshold %v, want 0", n, p)
		}
	}
	// n = 2 is the smallest n with a defined value; huge c must clamp.
	if p := HCThresholdP(2, 100, 1); p != 1 {
		t.Fatalf("n=2 huge c: %v, want clamp to 1", p)
	}
	// c = 0 collapses to 0 at every n and delta.
	if p := HCThresholdP(1000, 0, 0.5); p != 0 {
		t.Fatalf("c=0: %v, want 0", p)
	}
	// The clamp boundary: delta = 0 makes p = c·ln n, always clamped for
	// c·ln n >= 1.
	if p := HCThresholdP(1000, 1, 0); p != 1 {
		t.Fatalf("delta=0: %v, want 1", p)
	}
	// Every output lies in [0, 1] across a parameter sweep.
	for _, n := range []int{2, 3, 10, 1000} {
		for _, c := range []float64{0, 0.1, 1, 86} {
			for _, delta := range []float64{0, 0.25, 0.5, 1} {
				if p := HCThresholdP(n, c, delta); p < 0 || p > 1 {
					t.Fatalf("HCThresholdP(%d, %v, %v) = %v out of [0, 1]", n, c, delta, p)
				}
			}
		}
	}
}

func TestHCThresholdP(t *testing.T) {
	if p := HCThresholdP(1, 86, 0.5); p != 0 {
		t.Fatalf("n=1 threshold %v, want 0", p)
	}
	// Small n with large c must clamp to 1.
	if p := HCThresholdP(4, 86, 1); p != 1 {
		t.Fatalf("clamp failed: %v", p)
	}
	// The paper's analysis constant c=86 needs astronomically large n before
	// p < 1; practical experiments use small c. Check an un-clamped case.
	p := HCThresholdP(100_000, 2, 0.5)
	if p <= 0 || p >= 1 {
		t.Fatalf("threshold out of range: %v", p)
	}
	// Monotone in n (for fixed c, delta) once un-clamped.
	if HCThresholdP(1_000_000, 2, 0.5) >= p {
		t.Fatal("threshold should decrease with n")
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func sqrtf(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton's method is plenty for test tolerances.
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}
