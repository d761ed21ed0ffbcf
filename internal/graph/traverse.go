package graph

import "dhc/internal/rng"

// BFSResult holds single-source breadth-first-search output.
type BFSResult struct {
	Source NodeID
	// Dist[v] is the hop distance from Source, or -1 if unreachable.
	Dist []int
	// Parent[v] is the BFS-tree parent of v, or -1 for the source and
	// unreachable vertices.
	Parent []NodeID
	// Order lists reached vertices in visit order (source first).
	Order []NodeID
	// Ecc is the eccentricity of the source within its component.
	Ecc int
}

// BFS runs breadth-first search from src.
func (g *Graph) BFS(src NodeID) *BFSResult {
	res := &BFSResult{
		Source: src,
		Dist:   make([]int, g.n),
		Parent: make([]NodeID, g.n),
		Order:  make([]NodeID, 0, g.n),
	}
	for i := range res.Dist {
		res.Dist[i] = -1
		res.Parent[i] = -1
	}
	res.Dist[src] = 0
	queue := make([]NodeID, 0, g.n)
	queue = append(queue, src)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		res.Order = append(res.Order, v)
		if res.Dist[v] > res.Ecc {
			res.Ecc = res.Dist[v]
		}
		for _, w := range g.Neighbors(v) {
			if res.Dist[w] < 0 {
				res.Dist[w] = res.Dist[v] + 1
				res.Parent[w] = v
				queue = append(queue, w)
			}
		}
	}
	return res
}

// Ecc computes the eccentricity of src within its component and the number
// of vertices reached, using int32 distances and no parent/order arrays —
// 8 bytes per vertex of transient state against BFS's 20. This is the lean
// core behind connectivity checks and broadcast bounds on the step engine's
// per-partition hot path, where a full BFSResult is pure overhead.
func (g *Graph) Ecc(src NodeID) (ecc, reached int) {
	dist := make([]int32, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]NodeID, 1, g.n)
	queue[0] = src
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		d := dist[v]
		if int(d) > ecc {
			ecc = int(d)
		}
		for _, w := range g.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = d + 1
				queue = append(queue, w)
			}
		}
	}
	return ecc, len(queue)
}

// Connected reports whether the graph is connected (vacuously true for n<=1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	_, reached := g.Ecc(0)
	return reached == g.n
}

// Diameter computes the exact diameter by running BFS from every vertex.
// It returns -1 for a disconnected graph. Cost is O(n(n+m)); use
// DiameterSampled for large graphs.
func (g *Graph) Diameter() int {
	if g.n == 0 {
		return 0
	}
	diam := 0
	for v := 0; v < g.n; v++ {
		res := g.BFS(NodeID(v))
		if len(res.Order) != g.n {
			return -1
		}
		if res.Ecc > diam {
			diam = res.Ecc
		}
	}
	return diam
}

// DiameterSampled lower-bounds the diameter by running BFS from `samples`
// random vertices plus, for each, the farthest vertex found (a standard
// double-sweep heuristic that is exact on trees and near-exact on random
// graphs). Returns -1 if the graph is disconnected.
func (g *Graph) DiameterSampled(samples int, src *rng.Source) int {
	if g.n == 0 {
		return 0
	}
	if samples < 1 {
		samples = 1
	}
	best := 0
	for i := 0; i < samples; i++ {
		start := NodeID(src.Intn(g.n))
		res := g.BFS(start)
		if len(res.Order) != g.n {
			return -1
		}
		// Double sweep: BFS again from the farthest vertex.
		far := res.Order[len(res.Order)-1]
		res2 := g.BFS(far)
		if res2.Ecc > best {
			best = res2.Ecc
		}
	}
	return best
}
