package stepsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"dhc/internal/bitset"
	"dhc/internal/cycle"
	"dhc/internal/graph"
	"dhc/internal/rng"
	"dhc/internal/rotation"
	"dhc/internal/upcast"
)

// Upcast simulates the Section III algorithm's round cost exactly from the
// BFS-tree structure: election + tree build (O(D)), a pipelined upcast whose
// duration is the maximum per-tree-edge load plus the tree depth, the free
// local solve, and a downcast of the same shape.
func Upcast(g *graph.Graph, seed uint64) (*cycle.Cycle, Cost, error) {
	return NewSession().Upcast(context.Background(), g, seed)
}

// Upcast simulates the Section III algorithm, honoring ctx around the root's
// local solve attempts. Each node samples upcast.SamplesPerNode(n) edges and
// the root retries upcast.RootAttempts times, as in the exact engine.
func (s *Session) Upcast(ctx context.Context, g *graph.Graph, seed uint64) (*cycle.Cycle, Cost, error) {
	n := g.N()
	src := rng.New(seed)
	s.Hooks.phase("run")
	samplesPerNode := upcast.SamplesPerNode(n)
	// One BFS gives B, the connectivity check and the upcast tree.
	bfs := g.BFS(0)
	b := rotation.BroadcastBound(bfs.Ecc)
	cost := Cost{B: b}
	if len(bfs.Order) != n {
		return nil, cost, fmt.Errorf("%w: graph disconnected", ErrFailed)
	}
	// Samples per node and the sampled subgraph. The streaming builder
	// accepts the duplicate (v samples u, u samples v) adds and resolves
	// them at Build.
	builder := graph.NewBuilderCSR(n, n*samplesPerNode)
	samples := make([]int, n)
	for v := 0; v < n; v++ {
		nbs := g.Neighbors(graph.NodeID(v))
		k := samplesPerNode
		if k >= len(nbs) {
			k = len(nbs)
			for _, nb := range nbs {
				builder.Add(graph.NodeID(v), nb)
			}
		} else {
			perm := src.Perm(len(nbs))
			for _, i := range perm[:k] {
				builder.Add(graph.NodeID(v), nbs[i])
			}
		}
		samples[v] = k
	}
	// Per-tree-edge upcast load = total samples in the child's subtree.
	// Computed by accumulating from the deepest nodes upward.
	load := make([]int64, n)
	for i := len(bfs.Order) - 1; i >= 0; i-- {
		v := bfs.Order[i]
		if v == bfs.Source {
			continue
		}
		load[v] += int64(samples[v])
		load[bfs.Parent[v]] += load[v]
	}
	var maxLoad, depth int64
	for v := 0; v < n; v++ {
		if graph.NodeID(v) != bfs.Source && load[v] > maxLoad {
			maxLoad = load[v]
		}
		if int64(bfs.Dist[v]) > depth {
			depth = int64(bfs.Dist[v])
		}
	}
	// Election + BFS + count + pipelined upcast + downcast (same shape:
	// one successor id routed to each node).
	cost.Rounds = 4*b + (maxLoad + depth) + (int64(n) / maxInt64(1, int64(g.Degree(bfs.Source)))) + depth + 8
	sampled := builder.Build()
	intr := interruptOf(ctx)
	var hc *cycle.Cycle
	var err error
	for a := 0; a < upcast.RootAttempts; a++ {
		if ctx.Err() != nil {
			return nil, cost, canceled(ctx)
		}
		hc, _, err = rotation.Solve(sampled, src, rotation.Config{Interrupt: intr})
		if err == nil {
			break
		}
		if errors.Is(err, rotation.ErrInterrupted) {
			return nil, cost, canceled(ctx)
		}
	}
	if err != nil {
		return nil, cost, fmt.Errorf("%w: root solve: %v", ErrFailed, err)
	}
	if verr := hc.Verify(g); verr != nil {
		return nil, cost, fmt.Errorf("%w: %v", ErrFailed, verr)
	}
	return hc, cost, nil
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Trivial charges the trivial CONGEST upper bound the paper cites in
// Section I-A: collect every edge at one node (m messages pipelined over the
// collector's degree, bounded below by m/deg + D) and solve locally. It
// returns the round cost without materializing the collection.
func Trivial(g *graph.Graph, seed uint64) (*cycle.Cycle, Cost, error) {
	b := broadcastBound(g)
	deg := g.Degree(0)
	if deg == 0 {
		return nil, Cost{}, fmt.Errorf("%w: isolated collector", ErrFailed)
	}
	cost := Cost{
		B:      b,
		Rounds: int64(g.M())/int64(deg) + 2*b + 4,
	}
	src := rng.New(seed)
	var hc *cycle.Cycle
	var err error
	for a := 0; a < 20; a++ {
		hc, _, err = rotation.Solve(g, src, rotation.Config{})
		if err == nil {
			break
		}
	}
	if err != nil {
		return nil, cost, fmt.Errorf("%w: %v", ErrFailed, err)
	}
	return hc, cost, nil
}

// Levy reconstructs the three-phase structure of Levy, Louchard & Petit
// (2004) — initial cycle, √n disjoint paths, patching — as described in the
// paper's related-work section: the original is not publicly available, so
// the paper's description is the only specification. Phase A grows disjoint
// paths in parallel linking rounds (the MacKenzie–Stout style core they adapt);
// Phase B merges paths into one cycle; Phase C patches leftover vertices in
// sequentially, each patch paying a broadcast. The sequential patching tail
// is what gives this baseline its characteristically worse scaling.
func Levy(g *graph.Graph, seed uint64) (*cycle.Cycle, Cost, error) {
	n := g.N()
	src := rng.New(seed)
	b := broadcastBound(g)
	cost := Cost{B: b}

	// Phase A: parallel path growth. Every vertex starts as a singleton
	// path; in each parallel round, every path head proposes a random edge
	// to another path's tail; non-conflicting proposals link. Charged one
	// round per linking round.
	type pathID = int
	pathOf := make([]pathID, n)
	heads := make([]graph.NodeID, n) // per path
	tails := make([]graph.NodeID, n)
	succ := make([]graph.NodeID, n)
	for v := 0; v < n; v++ {
		pathOf[v] = v
		heads[v] = graph.NodeID(v)
		tails[v] = graph.NodeID(v)
		succ[v] = -1
	}
	alive := make(map[pathID]bool, n)
	for v := 0; v < n; v++ {
		alive[v] = true
	}
	target := int(math.Ceil(math.Sqrt(float64(n)))) // stop at ~√n paths
	for round := 0; len(alive) > target; round++ {
		if round > 4*n {
			break
		}
		cost.Rounds++
		// Each live path head proposes one random neighbor that is some
		// path's tail in a different path.
		claimed := make(map[pathID]pathID) // target path -> proposer
		for p := range alive {
			h := heads[p]
			nbs := g.Neighbors(h)
			if len(nbs) == 0 {
				continue
			}
			w := nbs[src.Intn(len(nbs))]
			q := pathOf[w]
			if q == p || !alive[q] || tails[q] != w {
				continue
			}
			if _, taken := claimed[q]; !taken {
				claimed[q] = p
			}
		}
		if len(claimed) == 0 {
			continue
		}
		// Apply non-conflicting links: p's head attaches to q's tail.
		for q, p := range claimed {
			if !alive[p] || !alive[q] || p == q {
				continue
			}
			succ[heads[p]] = tails[q]
			heads[p] = heads[q]
			// Relabel q's vertices lazily: walk q's chain.
			for w := tails[q]; ; w = succ[w] {
				pathOf[w] = p
				if w == heads[p] || succ[w] < 0 {
					break
				}
			}
			delete(alive, q)
			cost.Steps++
		}
	}

	// Phase B+C: collect the surviving paths and patch them into one cycle
	// with bridge merges; isolated stragglers are absorbed by rotation.
	// Each merge/patch pays a broadcast (sequential tail).
	var pieces []*cycle.Cycle
	seen := bitset.Make(n)
	for p := range alive {
		var order []graph.NodeID
		for w := tails[p]; ; w = succ[w] {
			order = append(order, w)
			seen.Add(int(w))
			if w == heads[p] || succ[w] < 0 {
				break
			}
		}
		// A path becomes a "cycle piece" only if its ends close or it is
		// long enough to merge; single vertices are handled below.
		pieces = append(pieces, cycle.FromOrder(order))
	}
	for v := 0; v < n; v++ {
		if !seen.Has(v) {
			pieces = append(pieces, cycle.FromOrder([]graph.NodeID{graph.NodeID(v)}))
		}
	}
	sort.Slice(pieces, func(i, j int) bool { return pieces[i].Len() > pieces[j].Len() })
	// Greedy sequential patching: absorb each piece into the main one by
	// rotation-style search over the piece boundary, charged D per patch.
	hc, patched, err := patchPieces(g, pieces, src)
	cost.Steps += patched
	cost.Rounds += patched * (b + 2)
	if err != nil {
		return nil, cost, fmt.Errorf("%w: %v", ErrFailed, err)
	}
	if verr := hc.Verify(g); verr != nil {
		return nil, cost, fmt.Errorf("%w: %v", ErrFailed, verr)
	}
	return hc, cost, nil
}

// patchPieces folds all pieces into one Hamiltonian cycle by running the
// rotation machine seeded with the largest piece as the initial path. The
// number of rotation steps is returned for round charging.
func patchPieces(g *graph.Graph, pieces []*cycle.Cycle, src *rng.Source) (*cycle.Cycle, int64, error) {
	// Use the rotation machine over the whole graph but pre-walk the
	// largest piece: equivalent to Levy's "extend the initial cycle".
	m := rotation.New(g, pieces[0].At(0), src, rotation.Config{})
	var steps int64
	for {
		ev, err := m.Step()
		if err != nil {
			return nil, steps, err
		}
		steps++
		if ev.Kind == rotation.Closed {
			return m.Path().CloseCycle(), steps, nil
		}
	}
}
