package graph

import (
	"errors"
	"fmt"
	"math"

	"dhc/internal/rng"
)

// ErrGeneration is returned when a randomized generator exhausts its retry
// budget (only possible for the random-regular configuration model).
var ErrGeneration = errors.New("graph: generation failed")

// iterateGNP enumerates the G(n, p) edge set of src by Batagelj–Brandes
// geometric skipping: pairs (v, w) with w < v are visited in row-major order,
// jumping over absent edges, so the cost is O(n + m) instead of O(n^2). The
// visit order is what lets GNP fill CSR rows pre-sorted: vertex x first sees
// all smaller neighbors (while v == x, w ascending) and then all larger ones
// (as w for ascending v > x).
func iterateGNP(n int, p float64, src *rng.Source, visit func(v, w NodeID)) {
	logq := math.Log1p(-p)
	v, w := 1, -1
	for v < n {
		w += 1 + src.Geometric(logq)
		for w >= v && v < n {
			w -= v
			v++
		}
		if v < n {
			visit(NodeID(v), NodeID(w))
		}
	}
}

// GNP samples an Erdős–Rényi G(n, p) random graph: every unordered pair is an
// edge independently with probability p. It builds the CSR arrays directly in
// two generator passes over the same RNG state (count degrees, rewind, fill
// rows), so peak memory is the final graph plus O(n) staging — no edge list
// and no hash set ever exist. The fill keeps the geometric-skip loop inline
// (no per-edge callback) and routes the random-access half of the writes
// through the chunked counting-sort scatter.
func GNP(n int, p float64, src *rng.Source) *Graph {
	return gnpTuned(n, p, src, scatterTuning{})
}

func gnpTuned(n int, p float64, src *rng.Source, tune scatterTuning) *Graph {
	if p <= 0 || n < 2 {
		return newCSR(max(n, 0), nil)
	}
	if p >= 1 {
		return Complete(n)
	}
	logq := math.Log1p(-p)
	saved := *src // snapshot for the second, identical pass
	off := make([]int32, n+1)
	fwd := make([]int32, n) // per-row count of smaller neighbors (v-side visits)
	var m int
	{
		v, w := 1, -1
		for v < n {
			w += 1 + src.Geometric(logq)
			for w >= v && v < n {
				w -= v
				v++
			}
			if v < n {
				off[v+1]++
				off[w+1]++
				fwd[v]++
				m++
			}
		}
	}
	guardHalfEdges(2 * int64(m))
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	arena := make([]NodeID, 2*m)
	// Row x's smaller neighbors stream in while v == x (sequential writes at
	// curF); its larger neighbors arrive as the w side of later rows (random
	// writes at curB, batched by the scatter). Same final layout as the old
	// single-cursor fill: [smaller ascending][larger ascending].
	curF := fwd // reuse: consumed left to right as the cursor initializer
	curB := make([]int32, n)
	for x := 0; x < n; x++ {
		f := off[x]
		curB[x] = f + fwd[x]
		curF[x] = f
	}
	sc := newDeferredScatter(arena, curB, n, tune)
	*src = saved
	{
		v, w := 1, -1
		for v < n {
			w += 1 + src.Geometric(logq)
			for w >= v && v < n {
				w -= v
				v++
			}
			if v < n {
				arena[curF[v]] = NodeID(w)
				curF[v]++
				sc.add(NodeID(w), NodeID(v))
			}
		}
	}
	sc.finish()
	return &Graph{n: n, m: m, off: off, arena: arena}
}

// samplePackedPairs draws uniformly random vertex pairs (rejecting
// self-loops) until exactly m distinct canonical pairs have been collected,
// deduplicating by sort between batches rather than with a hash set. The
// returned slice is sorted. The resulting edge set is uniform over m-subsets,
// like plain rejection sampling, and the RNG is consumed in exactly the order
// of the historical []Edge sampler.
func samplePackedPairs(n, m int, src *rng.Source) []uint64 {
	pairs := make([]uint64, 0, m)
	for {
		for need := m - len(pairs); need > 0; need-- {
			u := NodeID(src.Intn(n))
			v := NodeID(src.Intn(n))
			for u == v {
				u = NodeID(src.Intn(n))
				v = NodeID(src.Intn(n))
			}
			pairs = append(pairs, packPair(u, v))
		}
		pairs = sortDedupPacked(pairs)
		if len(pairs) == m {
			return pairs
		}
	}
}

// GNM samples a uniform graph with exactly m distinct edges among n vertices
// (the G(n, M) model). It panics if m exceeds the number of possible edges or
// the CSR half-edge range; use sweep/CLI-level validation (MaxEdges) to turn
// infeasible parameters into config errors before reaching this point.
func GNM(n, m int, src *rng.Source) *Graph {
	maxM := MaxEdges(n)
	if int64(m) > maxM {
		panic(fmt.Sprintf("graph: GNM m=%d exceeds max %d for n=%d", m, maxM, n))
	}
	if m <= 0 {
		return newCSR(n, nil)
	}
	guardHalfEdges(2 * int64(m))
	// Rejection sampling is fast while m << maxM; above half the density,
	// sample the complement instead.
	if int64(m) <= maxM/2 {
		return csrFromPackedPairs(n, samplePackedPairs(n, m, src))
	}
	// Dense regime: pick the maxM-m excluded edges as a graph, then stream
	// its complement row by row straight into the CSR arena.
	excl := int(maxM - int64(m))
	var exclG *Graph
	if excl > 0 {
		exclG = csrFromPackedPairs(n, samplePackedPairs(n, excl, src))
	} else {
		exclG = newCSR(n, nil)
	}
	return complement(exclG)
}

// RandomRegular samples a d-regular graph on n vertices using the
// Steger–Wormald pairing procedure: repeatedly pair two uniformly random
// remaining stubs, skipping pairs that would create a loop or multi-edge, and
// restart the whole construction only if no valid pair remains. For
// d = o(n^{1/3}) the output is asymptotically uniform and restarts are rare.
// Above half density (d > (n-1)/2), where the pairing jams almost surely, it
// samples the complement (n-1-d)-regular graph instead and complements it —
// complementation is a bijection on d-regular graphs, so uniformity carries
// over, and feasibility is unchanged (n·(n-1-d) has the parity of n·d).
// n*d must be even and d < n. The pairing needs online duplicate detection,
// so this generator keeps the hash-set Builder (n*d stays small).
func RandomRegular(n, d int, src *rng.Source) (*Graph, error) {
	if d >= n || d < 0 {
		return nil, fmt.Errorf("%w: degree %d invalid for n=%d", ErrGeneration, d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("%w: n*d must be even (n=%d, d=%d)", ErrGeneration, n, d)
	}
	if d > (n-1)/2 {
		gc, err := RandomRegular(n, n-1-d, src)
		if err != nil {
			return nil, err
		}
		return complement(gc), nil
	}
	const maxRestarts = 100
	for attempt := 0; attempt < maxRestarts; attempt++ {
		if g, ok := tryStegerWormald(n, d, src); ok {
			return g, nil
		}
	}
	return nil, fmt.Errorf("%w: pairing exhausted %d restarts (n=%d, d=%d)",
		ErrGeneration, maxRestarts, n, d)
}

// complement returns the loop-free complement graph: (u, v) is an edge iff
// u != v and (u, v) is not an edge of g. Each row of the complement is the
// sorted sequence [0, n) minus the vertex itself minus g's (sorted) row, so
// one pointer walk per row streams every row directly into the CSR arena —
// all writes sequential, no edge list.
func complement(g *Graph) *Graph {
	n := g.N()
	guardHalfEdges(2 * (MaxEdges(n) - int64(g.M())))
	off := make([]int32, n+1)
	for x := 0; x < n; x++ {
		off[x+1] = off[x] + int32(n-1-g.Degree(NodeID(x)))
	}
	arena := make([]NodeID, off[n])
	pos := 0
	for x := 0; x < n; x++ {
		nb := g.Neighbors(NodeID(x))
		i := 0
		for y := 0; y < n; y++ {
			if y == x {
				continue
			}
			for i < len(nb) && int(nb[i]) < y {
				i++
			}
			if i < len(nb) && int(nb[i]) == y {
				continue
			}
			arena[pos] = NodeID(y)
			pos++
		}
	}
	return &Graph{n: n, m: int(off[n]) / 2, off: off, arena: arena}
}

func tryStegerWormald(n, d int, src *rng.Source) (*Graph, bool) {
	stubs := make([]NodeID, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, NodeID(v))
		}
	}
	// seen holds the packed pairs added so far, for the duplicate test; b
	// builds the same pairs once stubs run out.
	seen := make(map[uint64]struct{}, n*d/2)
	b := NewBuilderCSR(n, n*d/2)
	add := func(u, v NodeID) {
		seen[packPair(u, v)] = struct{}{}
		b.Add(u, v)
	}
	for len(stubs) > 0 {
		paired := false
		// A bounded number of re-draws per pair keeps the loop O(nd) in
		// expectation; if we cannot find a valid pair we scan exhaustively
		// before declaring the attempt stuck.
		for try := 0; try < 50; try++ {
			i := src.Intn(len(stubs))
			j := src.Intn(len(stubs))
			if i == j {
				continue
			}
			u, v := stubs[i], stubs[j]
			if _, dup := seen[packPair(u, v)]; u == v || dup {
				continue
			}
			add(u, v)
			removeStubPair(&stubs, i, j)
			paired = true
			break
		}
		if paired {
			continue
		}
		if i, j, ok := findValidPair(stubs, seen); ok {
			add(stubs[i], stubs[j])
			removeStubPair(&stubs, i, j)
			continue
		}
		return nil, false // genuinely stuck; restart
	}
	return b.Build(), true
}

// removeStubPair deletes positions i and j (i != j) from the stub slice by
// swapping with the tail.
func removeStubPair(stubs *[]NodeID, i, j int) {
	s := *stubs
	if i < j {
		i, j = j, i
	}
	// Remove the larger index first so the smaller stays valid.
	s[i] = s[len(s)-1]
	s = s[:len(s)-1]
	s[j] = s[len(s)-1]
	s = s[:len(s)-1]
	*stubs = s
}

func findValidPair(stubs []NodeID, seen map[uint64]struct{}) (int, int, bool) {
	for i := 0; i < len(stubs); i++ {
		for j := i + 1; j < len(stubs); j++ {
			if _, dup := seen[packPair(stubs[i], stubs[j])]; stubs[i] != stubs[j] && !dup {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}

// Ring returns the n-cycle 0-1-...-(n-1)-0.
func Ring(n int) *Graph {
	b := NewBuilderCSR(n, n)
	for v := 0; v < n; v++ {
		b.Add(NodeID(v), NodeID((v+1)%n))
	}
	return b.Build()
}

// Path returns the n-vertex path 0-1-...-(n-1).
func Path(n int) *Graph {
	b := NewBuilderCSR(n, n)
	for v := 0; v+1 < n; v++ {
		b.Add(NodeID(v), NodeID(v+1))
	}
	return b.Build()
}

// Complete returns the complete graph K_n, streaming each row (all vertices
// but the row's own) directly into the CSR arena.
func Complete(n int) *Graph {
	if n < 0 {
		n = 0
	}
	guardHalfEdges(2 * MaxEdges(n))
	off := make([]int32, n+1)
	for x := 0; x < n; x++ {
		off[x+1] = off[x] + int32(n-1)
	}
	arena := make([]NodeID, off[n])
	pos := 0
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if y != x {
				arena[pos] = NodeID(y)
				pos++
			}
		}
	}
	return &Graph{n: n, m: int(MaxEdges(n)), off: off, arena: arena}
}

// Grid returns the rows x cols grid graph (no Hamiltonian cycle when both
// dimensions are odd; used for negative tests).
func Grid(rows, cols int) *Graph {
	b := NewBuilderCSR(rows*cols, 2*rows*cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.Add(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.Add(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build()
}

// HCThresholdP returns the paper's edge probability p = c ln(n) / n^delta for
// the G(n, p) model (Section II-B). delta = 1 is the connectivity threshold
// regime; delta = 1/2 is the DHC1 regime. The result is clamped to [0, 1].
func HCThresholdP(n int, c, delta float64) float64 {
	if n < 2 {
		return 0
	}
	p := c * math.Log(float64(n)) / math.Pow(float64(n), delta)
	if p > 1 {
		return 1
	}
	return p
}
