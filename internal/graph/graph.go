// Package graph provides the static undirected graphs on which the
// distributed Hamiltonian-cycle algorithms run: construction, random-graph
// generators (G(n,p), G(n,M), random regular, and deterministic families),
// and the structural queries the algorithms and their analyses need (BFS,
// connectivity, diameter, degree statistics, induced subgraphs).
//
// Graphs are immutable after Build and are stored in compressed-sparse-row
// (CSR) form: one flat neighbor arena of 2m NodeIDs plus n+1 int32 offsets.
// Row i of the arena (arena[off[i]:off[i+1]]) is the strictly sorted neighbor
// list of vertex i, so Neighbors is a slice view, HasEdge is a binary search,
// and the whole graph costs 8m + 4(n+1) bytes regardless of how it was
// built. The layout caps the half-edge count 2m at 2^31-1 (about a billion
// edges), far beyond what fits in memory for the sizes this repository runs.
//
// Two construction paths exist. Builder keeps a hash set of edges and
// supports incremental duplicate detection (HasEdge before Build), which the
// random-regular generator and edge-list decoding need. BuilderCSR is the
// streaming path: it appends edges to a flat list and sorts/deduplicates once
// at Build, never allocating per-edge map entries — this is what the G(n,p)
// and G(n,M) generators use, and what makes graphs with 10^8+ edges
// constructible. All algorithm state lives in the algorithm packages, never
// in the graph.
package graph

import (
	"fmt"
	"math"
	"sort"
)

// NodeID identifies a vertex. IDs are dense in [0, N).
type NodeID int32

// Edge is an undirected edge between two vertices.
type Edge struct {
	U, V NodeID
}

// Graph is an immutable undirected simple graph with vertices [0, n), stored
// as a CSR adjacency structure.
type Graph struct {
	n int
	m int
	// off[v]..off[v+1] delimit v's row in arena; len(off) == n+1.
	off []int32
	// arena holds all neighbor lists back to back; len(arena) == 2m and each
	// row is strictly increasing.
	arena []NodeID
}

// newCSR builds a Graph from canonical (U < V) edges that are sorted by
// (U, V) and distinct. Under that precondition every row comes out sorted
// without a per-row sort: row x first receives its smaller neighbors (as the
// V side of edges with V == x, whose U ascend), then its larger neighbors (as
// the U side of edges with U == x, whose V ascend).
//
// This is the reference construction: the streaming paths (csrFromPackedPairs
// and the generator fills in generate.go) must produce byte-identical arrays,
// and the differential tests pin them against this function.
func newCSR(n int, edges []Edge) *Graph {
	guardHalfEdges(2 * int64(len(edges)))
	off := make([]int32, n+1)
	for _, e := range edges {
		off[e.U+1]++
		off[e.V+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	arena := make([]NodeID, 2*len(edges))
	cur := make([]int32, n)
	copy(cur, off[:n])
	for _, e := range edges {
		arena[cur[e.U]] = e.V
		cur[e.U]++
		arena[cur[e.V]] = e.U
		cur[e.V]++
	}
	return &Graph{n: n, m: len(edges), off: off, arena: arena}
}

// maxHalfEdges is the int32 CSR offset range: 2m may not exceed it.
const maxHalfEdges = (1 << 31) - 1

// guardHalfEdges panics when a half-edge count would overflow the int32
// offset arrays (2m must stay below 2^31). It takes int64 so callers can pass
// pair counts that themselves exceed the int range on 32-bit platforms.
func guardHalfEdges(half int64) {
	if half > maxHalfEdges {
		panic(fmt.Sprintf("graph: %d half-edges exceed the int32 CSR offset range", half))
	}
}

// BuilderCSR is the streaming construction path: edges append as packed
// 8-byte pair keys (no per-edge hash-set entries, half the footprint of an
// []Edge) and are sorted and deduplicated once at Build. Peak memory is 8
// bytes per added edge plus the final CSR arrays, which is what makes
// 10^6-vertex random graphs constructible.
type BuilderCSR struct {
	n     int
	pairs []uint64
}

// NewBuilderCSR returns a streaming builder for a graph on n vertices,
// preallocating room for capacityHint edges (0 is fine). Hints are clamped to
// the largest edge count the CSR layout can represent, so generators may pass
// unvalidated density estimates without risking a wild allocation.
func NewBuilderCSR(n, capacityHint int) *BuilderCSR {
	if capacityHint < 0 {
		capacityHint = 0
	}
	limit := int64(maxHalfEdges / 2)
	if max := MaxEdges(n); max < limit {
		limit = max
	}
	if int64(capacityHint) > limit {
		capacityHint = int(limit)
	}
	return &BuilderCSR{n: n, pairs: make([]uint64, 0, capacityHint)}
}

// Add records the undirected edge (u, v). Self-loops and out-of-range
// endpoints are rejected (returning false); duplicates are accepted here and
// removed at Build.
func (b *BuilderCSR) Add(u, v NodeID) bool {
	if u == v || int(u) < 0 || int(u) >= b.n || int(v) < 0 || int(v) >= b.n {
		return false
	}
	b.pairs = append(b.pairs, packPair(u, v))
	return true
}

// Build sorts, deduplicates, and produces the immutable Graph. The builder's
// edge storage is consumed; the builder must not be reused.
func (b *BuilderCSR) Build() *Graph {
	g := csrFromPackedPairs(b.n, sortDedupPacked(b.pairs))
	b.pairs = nil
	return g
}

// FromEdges constructs a Graph on n vertices from an edge list. Self-loops,
// out-of-range endpoints, and duplicates are dropped.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilderCSR(n, len(edges))
	for _, e := range edges {
		b.Add(e.U, e.V)
	}
	return b.Build()
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v NodeID) int { return int(g.off[v+1] - g.off[v]) }

// Neighbors returns the sorted neighbor list of v. The returned slice is a
// view into the graph's arena and must not be modified.
func (g *Graph) Neighbors(v NodeID) []NodeID { return g.arena[g.off[v]:g.off[v+1]] }

// HasEdge reports whether (u, v) is an edge, by binary search over u's row.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if u == v || int(u) >= g.n || int(v) >= g.n || u < 0 || v < 0 {
		return false
	}
	list := g.arena[g.off[u]:g.off[u+1]]
	i := sort.Search(len(list), func(i int) bool { return list[i] >= v })
	return i < len(list) && list[i] == v
}

// Edges returns all edges in canonical (U < V) order, sorted.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(NodeID(u)) {
			if NodeID(u) < v {
				out = append(out, Edge{U: NodeID(u), V: v})
			}
		}
	}
	return out
}

// MinDegree returns the minimum degree, or 0 for an empty graph.
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	min := g.Degree(0)
	for v := 1; v < g.n; v++ {
		if d := g.Degree(NodeID(v)); d < min {
			min = d
		}
	}
	return min
}

// MaxDegree returns the maximum degree.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(NodeID(v)); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the mean degree 2m/n, or 0 for an empty graph.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(g.n)
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.n, g.m)
}

// MemBytes returns the resident size of the CSR arrays in bytes
// (8m for the arena plus 4(n+1) for the offsets). Benchmarks report this as
// the construction-memory denominator.
func (g *Graph) MemBytes() int64 {
	return int64(len(g.arena))*4 + int64(len(g.off))*4
}

// Adjacency exposes the raw CSR arrays — offsets and the neighbor arena — as
// read-only views, for engines that mirror per-edge state in a flat arena of
// their own (e.g. the rotation machine's unused-edge tracking). Neither slice
// may be modified.
func (g *Graph) Adjacency() (off []int32, arena []NodeID) { return g.off, g.arena }

// InducedSubgraph returns the subgraph induced by the given vertex set,
// along with the mapping from new (dense) ids to original ids. The i-th
// entry of the returned slice is the original id of new vertex i. Vertices
// are relabeled in increasing original-id order; the input may be unsorted
// and hold duplicates.
//
// It sorts and deduplicates a copy of the set, then builds through
// InducedSubgraphIndexed with a table of its own. Callers that build many
// subgraphs of one graph (the step engine's partition classes) call
// InducedSubgraphIndexed directly with a reused table.
func (g *Graph) InducedSubgraph(vertices []NodeID) (*Graph, []NodeID) {
	orig := make([]NodeID, len(vertices))
	copy(orig, vertices)
	sort.Slice(orig, func(i, j int) bool { return orig[i] < orig[j] })
	orig = dedupe(orig)
	return g.InducedSubgraphIndexed(orig, make([]int32, g.n)), orig
}

// InducedSubgraphIndexed returns the subgraph induced by members, which must
// be strictly ascending; new vertex i is members[i]. index is the caller's
// membership table: at least g.N() entries, all zero on entry, and all zero
// again on every exit (a panic included). While the build runs, index[v]
// holds v's new id plus one, so 0 means "not a member".
//
// Each member's row is read once. For every neighbor w the loop writes
// index[w]-1 into a row buffer of the members' maximum degree and advances
// the write position only when w is a member, with no branch on membership;
// the kept prefix is then appended to the arena. Because members ascend and
// the parent's rows are sorted, relabeled neighbors arrive in row order. The
// arena is reserved from the members' row sum scaled by |members|/n (the
// expected share of neighbors inside the set) plus a few standard
// deviations, so on random graphs it is written without regrowth.
func (g *Graph) InducedSubgraphIndexed(members []NodeID, index []int32) *Graph {
	if len(index) < g.n {
		panic(fmt.Sprintf("graph: induced index table has %d entries for %d vertices", len(index), g.n))
	}
	defer func() {
		for _, v := range members {
			index[v] = 0
		}
	}()
	rowSum, maxDeg := 0, 0
	for i, v := range members {
		if i > 0 && v <= members[i-1] {
			panic(fmt.Sprintf("graph: induced members not strictly ascending at %d", i))
		}
		index[v] = int32(i) + 1
		d := g.Degree(v)
		rowSum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	sub := len(members)
	reserve := rowSum // the full set keeps every neighbor
	if sub < g.n {
		want := float64(rowSum) * float64(sub) / float64(g.n)
		reserve = min(rowSum, int(want+4*math.Sqrt(want)))
	}
	off := make([]int32, sub+1)
	arena := make([]NodeID, 0, reserve)
	row := make([]NodeID, maxDeg)
	for i, v := range members {
		k := 0
		for _, w := range g.Neighbors(v) {
			j := index[w]
			row[k] = NodeID(j - 1)
			k += int(uint32(-j) >> 31) // 1 when w is a member (j > 0)
		}
		arena = append(arena, row[:k]...)
		off[i+1] = int32(len(arena))
	}
	return &Graph{n: sub, m: len(arena) / 2, off: off, arena: arena}
}

func dedupe(s []NodeID) []NodeID {
	if len(s) == 0 {
		return s
	}
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
