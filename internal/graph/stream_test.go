package graph

// Differential tests pinning the streaming CSR constructions — the fused
// G(n,p) fill, the packed-pair builder tail, the G(n,M) sampler and its dense
// complement — byte-identical to the reference newCSR layout, plus property
// coverage that forces the chunked counting-sort scatter onto graphs small
// enough to cross-check exhaustively.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
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

// serialGNP is the reference G(n, p): iterateGNP's serial walk, one
// Geometric draw per skip, through newCSR. It returns the source's state
// after the walk too.
func serialGNP(n int, p float64, seed uint64) (*Graph, rng.Source) {
	src := rng.New(seed)
	var pairs []uint64
	iterateGNP(n, p, src, func(v, w NodeID) { pairs = append(pairs, packPair(v, w)) })
	slices.Sort(pairs)
	edges := make([]Edge, len(pairs))
	for i, e := range pairs {
		u, v := unpackPair(e)
		edges[i] = Edge{U: u, V: v}
	}
	return newCSR(n, edges), *src
}

// TestStreamingGNPMatchesReference checks every CSR byte of GNP, and the
// source's state after it, against a serial pass through newCSR. Small
// instances run at GOMAXPROCS 1, 2 and 4 with the parallel phases forced
// on: chunked staging, target-row ranges of 1–3 rows (n ≤ 16 at 2 and 4
// workers), skip blocks far shorter than the edge count, and arena
// reservations that fall short and regrow.
func TestStreamingGNPMatchesReference(t *testing.T) {
	parallel := forcedChunked
	parallel.parallelEdges = 1
	tunings := []struct {
		name string
		tune scatterTuning
	}{
		{"default", scatterTuning{}},
		{"forced-chunked", forcedChunked},
		{"parallel-chunked", parallel},
		{"parallel-block7", scatterTuning{parallelEdges: 1, skipBlock: 7}},
		{"parallel-block1-reserve1", scatterTuning{parallelEdges: 1, skipBlock: 1, reserve: 1}},
		{"parallel-chunked-block100-reserve64", scatterTuning{
			directBytes: 1, stageCap: 1024, regionBytes: 256,
			parallelEdges: 1, skipBlock: 100, reserve: 64}},
	}
	type instance struct {
		n    int
		p    float64
		seed uint64
	}
	var instances []instance
	for n := 2; n <= 16; n++ {
		instances = append(instances, instance{n, 0.5, uint64(n)})
	}
	instances = append(instances,
		instance{300, 0.3, 3},   // ~13k edges: many blocks and flushes per worker
		instance{1000, 0.05, 5}, // ~25k edges
		instance{1000, 8 * math.Log(1000) / 1000, 1007},
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, in := range instances {
			want, wantSrc := serialGNP(in.n, in.p, in.seed)
			for _, tc := range tunings {
				label := fmt.Sprintf("GOMAXPROCS=%d n=%d p=%v %s", procs, in.n, in.p, tc.name)
				src := rng.New(in.seed)
				got := gnpTuned(in.n, in.p, src, tc.tune)
				assertSameCSR(t, label, want, got)
				if *src != wantSrc {
					t.Fatalf("%s: source state after the build differs from the serial pass's", label)
				}
			}
		}
	}
	if testing.Short() {
		return
	}
	// At 10^5 vertices the arena exceeds defaultDirectBytes and the expected
	// edge count defaultParallelEdges, so the default tuning stages its writes
	// and, with two or more CPUs, runs the parallel phases.
	n := 100000
	p := 8 * math.Log(float64(n)) / float64(n)
	seed := uint64(n) + 7
	src := rng.New(seed)
	g := GNP(n, p, src)
	assertSameCSR(t, "gnp n=100000 vs newCSR", newCSR(n, g.Edges()), g)
	checkWellFormed(t, g)
	// The serial walk visits exactly g's edges and leaves its source where
	// GNP left src. (Cheaper than serialGNP's sort under -race.)
	ref, visited, missing := rng.New(seed), 0, 0
	iterateGNP(n, p, ref, func(v, w NodeID) {
		visited++
		if !g.HasEdge(v, w) {
			missing++
		}
	})
	if visited != g.M() || missing != 0 {
		t.Fatalf("gnp n=100000: serial walk visits %d pairs, %d of them missing; GNP has m=%d",
			visited, missing, g.M())
	}
	if *ref != *src {
		t.Fatal("gnp n=100000: source state after the build differs from the serial pass's")
	}
	// Tiny stages on the serial path; with 2+ workers they would multiply
	// the flushes, each clearing a count per row at rshift 0.
	forced := forcedChunked
	forced.parallelEdges = math.MaxInt
	assertSameCSR(t, "gnp n=100000 serial forced-chunked", g, gnpTuned(n, p, rng.New(seed), forced))
}

// csrSHA256 is the SHA-256 of g's CSR offsets followed by its arena, both
// little-endian.
func csrSHA256(g *Graph) string {
	off, arena := g.Adjacency()
	h := sha256.New()
	buf := make([]byte, 0, 4<<10)
	put := func(x uint32) {
		buf = binary.LittleEndian.AppendUint32(buf, x)
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	for _, o := range off {
		put(uint32(o))
	}
	for _, v := range arena {
		put(uint32(v))
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGNPDigestLarge pins G(2·10^5, 32 ln n/n) at graph seed 1: its CSR
// digest and the source's next Uint64 after the build, so a faster GNP must
// keep every byte and every draw. It needs ~0.5 GB and a few seconds, so it
// runs only with DHC_BIG set (and without -short):
//
//	DHC_BIG=1 go test -count=1 -run '^TestGNPDigestLarge$' -v ./internal/graph
func TestGNPDigestLarge(t *testing.T) {
	if testing.Short() || os.Getenv("DHC_BIG") == "" {
		t.Skip("set DHC_BIG=1 to build the 2·10^5-vertex pin (and do not pass -short)")
	}
	const (
		wantSHA  = "1219546d1c5f48e2c7db3c746f9f6a7b0f3e81cf48f6a75913a2ef4a52df37ac"
		wantNext = uint64(0x1bf98152d4565f76)
	)
	n := 200_000
	src := rng.New(1)
	g := GNP(n, HCThresholdP(n, 32, 1), src)
	if got := csrSHA256(g); got != wantSHA {
		t.Errorf("CSR digest %s, want %s", got, wantSHA)
	}
	if got := src.Uint64(); got != wantNext {
		t.Errorf("source's next Uint64 after the build %#x, want %#x", got, wantNext)
	}
	t.Logf("n=%d m=%d", g.N(), g.M())
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
