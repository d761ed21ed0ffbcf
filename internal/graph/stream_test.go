package graph

// Differential tests pinning the streaming CSR constructions — the fused
// G(n,p) fill, the packed-pair builder tail, the G(n,M) sampler and its dense
// complement — byte-identical to the reference newCSR layout, plus property
// coverage that forces the chunked counting-sort scatter onto graphs small
// enough to cross-check exhaustively.

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"dhc/internal/rng"
)

// forcedChunked pushes every arena through the deferred-scatter chunked path
// regardless of size (directBytes=1), with stage and region sizes small
// enough that moderate test graphs cross several flush and region
// boundaries. The stageCap floor of 1024 still applies, so multi-flush
// coverage needs > 1024 deferred writes.
var forcedChunked = scatterTuning{directBytes: 1, stageCap: 1024, regionBytes: 256}

// assertSameCSR asserts two graphs share byte-identical CSR arrays — the
// strongest form of the "same Encode bytes" contract, since every encoding
// (edge list, DOT, Neighbors) is a pure function of (off, arena).
func assertSameCSR(t *testing.T, label string, want, got *Graph) {
	t.Helper()
	if want.N() != got.N() || want.M() != got.M() {
		t.Fatalf("%s: shape (n=%d, m=%d), want (n=%d, m=%d)",
			label, got.N(), got.M(), want.N(), want.M())
	}
	wantOff, wantArena := want.Adjacency()
	gotOff, gotArena := got.Adjacency()
	if !slices.Equal(wantOff, gotOff) {
		t.Fatalf("%s: offset arrays differ", label)
	}
	if !slices.Equal(wantArena, gotArena) {
		t.Fatalf("%s: arena arrays differ", label)
	}
}

func TestStreamingGNPMatchesReference(t *testing.T) {
	sizes := []int{1000}
	if !testing.Short() {
		sizes = append(sizes, 100000)
	}
	for _, n := range sizes {
		p := 8 * math.Log(float64(n)) / float64(n)
		g := GNP(n, p, rng.New(uint64(n)+7))
		// Reference: the same realized edge set through the historical
		// sort-then-pack construction.
		ref := newCSR(n, g.Edges())
		assertSameCSR(t, "gnp vs newCSR", ref, g)
		// The chunked scatter must not change a single byte either.
		forced := gnpTuned(n, p, rng.New(uint64(n)+7), forcedChunked)
		assertSameCSR(t, "gnp forced-chunked vs default", g, forced)
		checkWellFormed(t, g)
	}
}

func TestStreamingGNMMatchesReference(t *testing.T) {
	n := 1000
	// Below and above the dense-regime switch, so both the direct sampler and
	// the complement path are cross-checked.
	for _, m := range []int{0, 1, 5000, 200000, 450000, 499500} {
		g := GNM(n, m, rng.New(uint64(m)*3+1))
		if g.M() != m {
			t.Fatalf("GNM(n=%d, m=%d) realized %d edges", n, m, g.M())
		}
		ref := newCSR(n, g.Edges())
		assertSameCSR(t, "gnm vs newCSR", ref, g)
		checkWellFormed(t, g)
	}
	if !testing.Short() {
		n = 100000
		m := 2000000
		g := GNM(n, m, rng.New(99))
		ref := newCSR(n, g.Edges())
		assertSameCSR(t, "gnm large vs newCSR", ref, g)
	}
}

// TestStreamingEncodeBytesIdentical locks the user-visible encoding: the
// streaming builder and the reference construction serialize to identical
// edge-list bytes.
func TestStreamingEncodeBytesIdentical(t *testing.T) {
	n := 500
	g := GNP(n, 0.02, rng.New(5))
	ref := newCSR(n, g.Edges())
	var a, b bytes.Buffer
	if err := g.WriteEdgeList(&a); err != nil {
		t.Fatal(err)
	}
	if err := ref.WriteEdgeList(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("streaming and reference edge-list encodings differ")
	}
}

// TestChunkedScatterFlushBoundaries drives the packed-pair tail through
// multiple stage flushes and region boundaries and cross-checks against both
// the direct path and newCSR.
func TestChunkedScatterFlushBoundaries(t *testing.T) {
	src := rng.New(42)
	n := 700
	var pairs []uint64
	for i := 0; i < 9000; i++ {
		u := NodeID(src.Intn(n))
		v := NodeID(src.Intn(n))
		if u == v {
			continue
		}
		pairs = append(pairs, packPair(u, v))
	}
	pairs = sortDedupPacked(pairs)
	if len(pairs) <= 4*forcedChunked.stageCap {
		t.Fatalf("want > %d pairs for multi-flush coverage, got %d",
			4*forcedChunked.stageCap, len(pairs))
	}
	direct := csrFromPackedPairs(n, pairs)
	chunked := csrFromPackedPairsTuned(n, pairs, forcedChunked)
	assertSameCSR(t, "chunked vs direct", direct, chunked)

	edges := make([]Edge, len(pairs))
	for i, e := range pairs {
		u, v := unpackPair(e)
		edges[i] = Edge{U: u, V: v}
	}
	assertSameCSR(t, "chunked vs newCSR", newCSR(n, edges), chunked)
	checkWellFormed(t, chunked)
}

// FuzzChunkedPacking cross-checks the chunked scatter against newCSR on
// arbitrary pair multisets (duplicates and self-pairs filtered the same way
// the builders do).
func FuzzChunkedPacking(f *testing.F) {
	f.Add(uint64(1), 16, 40)
	f.Add(uint64(2), 64, 2000)
	f.Add(uint64(3), 2, 1)
	f.Add(uint64(4), 300, 5000)
	f.Fuzz(func(t *testing.T, seed uint64, n, draws int) {
		if n < 2 || n > 512 {
			n = 2 + int(uint(n)%511)
		}
		if draws < 0 || draws > 10000 {
			draws = int(uint(draws) % 10001)
		}
		src := rng.New(seed)
		var pairs []uint64
		for i := 0; i < draws; i++ {
			u := NodeID(src.Intn(n))
			v := NodeID(src.Intn(n))
			if u == v {
				continue
			}
			pairs = append(pairs, packPair(u, v))
		}
		pairs = sortDedupPacked(pairs)
		got := csrFromPackedPairsTuned(n, pairs, forcedChunked)
		edges := make([]Edge, len(pairs))
		for i, e := range pairs {
			u, v := unpackPair(e)
			edges[i] = Edge{U: u, V: v}
		}
		assertSameCSR(t, "fuzz chunked vs newCSR", newCSR(n, edges), got)
	})
}

func TestMaxEdgesNoOverflow(t *testing.T) {
	cases := []struct {
		n    int
		want int64
	}{
		{0, 0}, {1, 0}, {2, 1}, {1000, 499500},
		// 10^7 vertices: n(n-1)/2 would wrap a 32-bit product.
		{10_000_000, 49_999_995_000_000},
	}
	for _, c := range cases {
		if got := MaxEdges(c.n); got != c.want {
			t.Fatalf("MaxEdges(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestValidateEdgeCount(t *testing.T) {
	cases := []struct {
		n      int
		m      int64
		wantOK bool
	}{
		{1000, 0, true},
		{1000, 499500, true},
		{1000, 499501, false},               // beyond MaxEdges
		{1000, -1, false},                   // negative
		{10_000_000, 1_000_000_000, true},   // 2m just fits int32
		{10_000_000, 1_100_000_000, false},  // 2m beyond int32
		{100_000, MaxEdges(100_000), false}, // representable pairs, 2m overflows
	}
	for _, c := range cases {
		err := ValidateEdgeCount(c.n, c.m)
		if c.wantOK && err != nil {
			t.Fatalf("ValidateEdgeCount(%d, %d): unexpected error %v", c.n, c.m, err)
		}
		if !c.wantOK && err == nil {
			t.Fatalf("ValidateEdgeCount(%d, %d): error expected", c.n, c.m)
		}
	}
}

// TestSBMLargePairIndexNoWrap regresses the n ≥ 10^5 block-pair indexing:
// two 50000-vertex blocks span 2.5·10^9 cross pairs, beyond int32, so any
// 32-bit wrap in the geometric-skip accumulator would lose or duplicate
// edges. Densities are tiny to keep the realized graph small.
func TestSBMLargePairIndexNoWrap(t *testing.T) {
	if testing.Short() {
		t.Skip("-short set")
	}
	n, k := 100000, 2
	g := SBM(n, k, 2e-6, 4e-7, rng.New(11))
	checkWellFormed(t, g)
	h := SBM(n, k, 2e-6, 4e-7, rng.New(11))
	assertSameCSR(t, "sbm determinism", g, h)
	if g.M() == 0 {
		t.Fatal("expected some edges at these densities")
	}
}
