// Package stepsim executes the paper's algorithms at rotation-step
// granularity and charges synchronous-round costs the same way the exact
// CONGEST engine does (one round per extension, BroadcastRounds+2 per
// rotation, O(B) per phase of scaffolding). It exists because an exact
// per-edge simulation of G(n, c·ln n/√n) has Θ(n^1.5·ln n) edges and is too
// slow beyond n ≈ a few thousand, while the theorems are about asymptotic
// shape: stepsim reproduces the round/step counts for n up to 10^6 in
// seconds. Agreement with the exact engine on overlapping sizes is checked
// by crosscheck tests (see crosscheck_test.go at the repository root).
//
// Options.Workers parallelizes the phases with per-class independence.
// Phase 1 of DHC1/DHC2 — one independent DRA run per color class — shards
// across a bounded worker pool. Phase 2 of DHC2 — the ⌈log₂ K⌉ pairwise
// merge levels of the merge tree — runs each level's independent pair
// merges on the same pool (the levels themselves are inherently sequential:
// level l+1 consumes level l's outputs). DHC1's phase 2, a single hypernode
// rotation over all K partitions, has no such independent units and stays
// sequential. All sharded paths follow the same deterministic-merge
// discipline as
// internal/congest's parallel executor: every unit of work draws from a
// private RNG stream split off the run seed (per partition in phase 1, per
// pair from the level stream in phase 2), and results are merged in
// partition-id / pair-index order, so any Workers value (including 0 and 1)
// produces byte-identical cycles and costs.
package stepsim

import (
	"context"
	"errors"
	"fmt"

	"dhc/internal/arena"
	"dhc/internal/core"
	"dhc/internal/cycle"
	"dhc/internal/graph"
	"dhc/internal/rng"
	"dhc/internal/rotation"
)

// ErrFailed is returned when a simulated run fails to build a Hamiltonian
// cycle.
var ErrFailed = errors.New("stepsim: run failed")

// Hooks are optional observer callbacks for a run's lifecycle. All callbacks
// are best-effort and observe only: a run is byte-identical with or without
// them. They are invoked from the goroutine driving the run (never from pool
// workers).
type Hooks struct {
	// OnPhase fires when a run enters a named phase ("run", "phase1",
	// "phase2").
	OnPhase func(phase string)
	// OnRestart fires when the run burns a run-level restart attempt — a
	// failed standalone rotation attempt or a failed DHC1 phase-2 hypernode
	// rotation — with the cumulative count of reported restarts, which is
	// strictly increasing within one run. Per-partition restarts in phase 1
	// happen on pool workers and are aggregated into Cost.Restarts instead
	// of being reported individually, so DHC2 reports none.
	OnRestart func(restarts int)
}

func (h Hooks) phase(name string) {
	if h.OnPhase != nil {
		h.OnPhase(name)
	}
}

func (h Hooks) restart(restarts int64) {
	if h.OnRestart != nil {
		h.OnRestart(int(restarts))
	}
}

// Session is a reusable step-engine runner: the per-worker scratch buffers
// (vertex-indexed tables sized to the graph, used by phase 1's subgraph
// builds and phase 2's bridge scans) survive across runs on same-sized
// graphs. The Hooks field may be set between runs. Not safe for concurrent
// use.
type Session struct {
	// Hooks receives the session's lifecycle callbacks.
	Hooks Hooks

	scratchN  int
	scratches []*workerScratch
}

// NewSession returns an empty session; the first run sizes it.
func NewSession() *Session { return &Session{} }

// workerScratches returns one reusable scratch buffer per pool worker for a
// pool of min(workers, items) goroutines (at least one) on graphs of n
// vertices, reallocating only when the graph size changed.
func (s *Session) workerScratches(n, workers, items int) []*workerScratch {
	poolSize := workers
	if poolSize > items {
		poolSize = items
	}
	if poolSize < 1 {
		poolSize = 1
	}
	if s.scratchN != n {
		s.scratches, s.scratchN = nil, n
	}
	for len(s.scratches) < poolSize {
		s.scratches = append(s.scratches, &workerScratch{pos: make([]int32, n)})
	}
	return s.scratches[:poolSize]
}

// canceled wraps a context's error once cancellation was observed, keeping
// context.Canceled / context.DeadlineExceeded matchable with errors.Is.
func canceled(ctx context.Context) error {
	return fmt.Errorf("stepsim: run canceled: %w", ctx.Err())
}

// interruptOf returns the amortized cancellation poll wired into rotation
// machines, or nil when ctx can never be cancelled.
func interruptOf(ctx context.Context) func() bool {
	if ctx.Done() == nil {
		return nil
	}
	return func() bool { return ctx.Err() != nil }
}

// Options configures the DHC simulations.
type Options struct {
	// NumColors overrides the partition count K (0 derives it from n and,
	// for DHC2, Delta).
	NumColors int
	// Delta is DHC2's sparsity exponent (0 < δ ≤ 1); ignored by DHC1.
	Delta float64
	// Workers bounds the worker pool shared by phase 1 (partition DRA runs)
	// and DHC2's phase-2 merge tree (pair merges within a level); values
	// <= 1 run sequentially. Results are identical for every value.
	Workers int
}

// Cost is the round/step accounting of a simulated run.
type Cost struct {
	Rounds     int64
	Steps      int64
	Extensions int64
	Rotations  int64
	// B is the broadcast bound used to price rotations.
	B int64
	// Phase1Rounds / Phase2Rounds split the total for the DHC algorithms.
	Phase1Rounds int64
	Phase2Rounds int64
	// Restarts counts failed rotation attempts (of partitions, of the
	// standalone DRA and of DHC1's phase 2); their steps and rounds are in
	// the totals above.
	Restarts int64
}

// broadcastBound charges rotation.BroadcastBound of ecc(0), the bound every
// exact algorithm defaults to, from the allocation-lean eccentricity scan.
// Each DHC partition is charged its own bound instead (solvePartition), as
// the exact engine's partitions measure it: 2·ecc+1 for the partition
// leader, its smallest id, which is the induced subgraph's vertex 0. The
// exact DHC scaffolding windows still wait core.defaultB, floored at
// 3⌈log₂ n⌉+6, where scaffolding charges the largest partition bound, and
// so do exact DHC2's merge levels from the first one whose union of
// partitions some node lacks a neighbor in (core's mergePhase.B); the step
// engine charges every merge level the largest partition bound.
func broadcastBound(g *graph.Graph) int64 {
	if g.N() == 0 {
		return 1
	}
	ecc, _ := g.Ecc(0)
	return rotation.BroadcastBound(ecc)
}

// chargeRotationRounds prices a machine run like the adaptive exact engine:
// extensions cost one round, rotations cost B+2 (broadcast settle plus the
// probe/response exchange).
func chargeRotationRounds(st rotation.Stats, b int64) int64 {
	return st.Extensions + st.Rotations*(b+2) + 2
}

// DRA simulates the standalone Distributed Rotation Algorithm on g, with
// rotation.Attempts attempts.
func DRA(g *graph.Graph, seed uint64) (*cycle.Cycle, Cost, error) {
	return NewSession().DRA(context.Background(), g, seed)
}

// DRA simulates the standalone Distributed Rotation Algorithm on g, honoring
// ctx between rotation-step batches.
func (s *Session) DRA(ctx context.Context, g *graph.Graph, seed uint64) (*cycle.Cycle, Cost, error) {
	s.Hooks.phase("run")
	return rotate(ctx, g, rng.New(seed), broadcastBound(g), s.Hooks.restart)
}

// rotate runs DRA on g, the step engine's one restart loop: at most
// rotation.Attempts attempts, each from a start vertex drawn from src, as the
// exact engine's dra.State restarts. Every attempt is charged — its rotation
// rounds at broadcast bound b, and for a failed one a restart plus the
// failure flood and quiet period (2b+2 rounds). onRestart, if non-nil, sees
// the restart count after each failure. A run that exhausts its attempts
// returns ErrFailed wrapping the last attempt's error; a cancelled one, the
// context's error.
func rotate(ctx context.Context, g *graph.Graph, src *rng.Source, b int64, onRestart func(int64)) (*cycle.Cycle, Cost, error) {
	cost := Cost{B: b}
	intr := interruptOf(ctx)
	var err error
	for a := 0; a < rotation.Attempts; a++ {
		if ctx.Err() != nil {
			return nil, cost, canceled(ctx)
		}
		m := rotation.New(g, graph.NodeID(src.Intn(g.N())), src, rotation.Config{Interrupt: intr})
		var hc *cycle.Cycle
		var st rotation.Stats
		hc, st, err = m.Run()
		cost.Steps += st.Steps
		cost.Extensions += st.Extensions
		cost.Rotations += st.Rotations
		cost.Rounds += chargeRotationRounds(st, b)
		if err == nil {
			return hc, cost, nil
		}
		if errors.Is(err, rotation.ErrInterrupted) {
			return nil, cost, canceled(ctx)
		}
		cost.Restarts++
		if onRestart != nil {
			onRestart(cost.Restarts)
		}
		cost.Rounds += 2*b + 2
	}
	return nil, cost, fmt.Errorf("%w: %v", ErrFailed, err)
}

// partition assigns each vertex one of k colors uniformly, mirroring DHC
// Phase 1. The classes are views into one flat arena: colors are drawn once
// (in the same RNG order as ever), counted, and scattered, so the whole
// partition costs two exact-size allocations instead of K append-grown
// slices — class contents are identical (ascending vertex ids per class).
func partition(n, k int, src *rng.Source) [][]graph.NodeID {
	colors := make([]uint32, n)
	counts := make([]int32, k+1)
	for v := 0; v < n; v++ {
		c := src.Intn(k)
		colors[v] = uint32(c)
		counts[c+1]++
	}
	for c := 0; c < k; c++ {
		counts[c+1] += counts[c]
	}
	flat := make([]graph.NodeID, n)
	cur := make([]int32, k)
	copy(cur, counts[:k])
	for v := 0; v < n; v++ {
		c := colors[v]
		flat[cur[c]] = graph.NodeID(v)
		cur[c]++
	}
	classes := make([][]graph.NodeID, k)
	for c := 0; c < k; c++ {
		classes[c] = flat[counts[c]:counts[c+1]:counts[c+1]]
	}
	return classes
}

// phase1Result carries per-partition subcycles in original vertex ids.
type phase1Result struct {
	cycles []*cycle.Cycle // per color
	// maxRounds is the slowest partition's DRA cost (they run in parallel).
	maxRounds int64
	steps     int64
	restarts  int64
	sizes     []int
	scopeB    int64 // max partition broadcast bound
}

// partOutcome is one partition's fully independent result, produced by
// solvePartition from the partition's private RNG stream. Outcomes are
// merged in partition-id order, never in completion order.
type partOutcome struct {
	cyc  *cycle.Cycle
	cost Cost // cost.B is the partition's broadcast bound
	err  error
}

// solvePartition runs DRA (rotate) on the subgraph induced by class, drawing
// all randomness from the partition's private stream. The class is
// ascending (partition's order), so it is the subgraph's id map as is; the
// build borrows the worker's scratch table. ctx is polled between attempts
// and inside the rotation machine's step batches.
func solvePartition(ctx context.Context, g *graph.Graph, c int, class []graph.NodeID, src *rng.Source, sc *workerScratch) partOutcome {
	out := partOutcome{cost: Cost{B: 1}}
	if len(class) < 3 {
		out.err = fmt.Errorf("%w: partition %d has %d nodes", ErrFailed, c, len(class))
		return out
	}
	sub := g.InducedSubgraphIndexed(class, sc.pos)
	// One BFS gives both the connectivity check and B.
	ecc, reached := sub.Ecc(0)
	if reached != sub.N() {
		out.err = fmt.Errorf("%w: partition %d disconnected", ErrFailed, c)
		return out
	}
	hc, cost, err := rotate(ctx, sub, src, rotation.BroadcastBound(ecc), nil)
	out.cost = cost
	switch {
	case err == nil:
		out.cyc = hc.Relabel(class)
	case errors.Is(err, ErrFailed):
		out.err = fmt.Errorf("%w: partition %d exhausted %d attempts", ErrFailed, c, rotation.Attempts)
	default:
		out.err = err
	}
	return out
}

// runPhase1 colors the graph once from the main stream, then solves the K
// color classes — sequentially or on a pool of workers — each with its own
// restarts, as the exact engine's partitions restart (dra.State); a
// partition that exhausts them fails the run. Each class only ever touches
// its own split stream and its own outcome slot (and its worker's scratch,
// which every build leaves zeroed), and outcomes are folded in partition-id
// order, so the result is a pure function of the seed for every workers
// value.
func (s *Session) runPhase1(ctx context.Context, g *graph.Graph, k int, src *rng.Source, workers int) (*phase1Result, error) {
	if ctx.Err() != nil {
		return nil, canceled(ctx)
	}
	scratches := s.workerScratches(g.N(), workers, k)
	classes := partition(g.N(), k, src)
	streams := make([]*rng.Source, k)
	for c := 0; c < k; c++ {
		streams[c] = src.Split(uint64(c) + 1)
	}
	outs := make([]partOutcome, k)
	arena.RunPool(len(scratches), k, func(w, c int) {
		outs[c] = solvePartition(ctx, g, c, classes[c], streams[c], scratches[w])
	})

	res := &phase1Result{
		cycles: make([]*cycle.Cycle, k),
		sizes:  make([]int, k),
		scopeB: 1,
	}
	for c := 0; c < k; c++ {
		out := outs[c]
		if out.err != nil {
			return nil, out.err
		}
		res.cycles[c] = out.cyc
		res.sizes[c] = len(classes[c])
		res.steps += out.cost.Steps
		res.restarts += out.cost.Restarts
		if out.cost.Rounds > res.maxRounds {
			res.maxRounds = out.cost.Rounds
		}
		if out.cost.B > res.scopeB {
			res.scopeB = out.cost.B
		}
	}
	return res, nil
}

// scaffolding is the Phase 1 setup cost in rounds (color exchange, scoped
// election, scope BFS, size count, barrier), matching internal/core's
// schedule.
func scaffolding(b int64) int64 { return 4*b + 8 + 2*b + 2 }

// startDHC is the opening DHC1 and DHC2 share: it seeds the run's source,
// runs phase 1 over k colours and prices it. Only their phase 2 differs,
// and it draws from the returned source.
func (s *Session) startDHC(ctx context.Context, g *graph.Graph, seed uint64, k, workers int) (*phase1Result, *rng.Source, Cost, error) {
	src := rng.New(seed)
	s.Hooks.phase("phase1")
	p1, err := s.runPhase1(ctx, g, k, src, workers)
	if err != nil {
		return nil, nil, Cost{}, err
	}
	return p1, src, Cost{
		B:            p1.scopeB,
		Steps:        p1.steps,
		Restarts:     p1.restarts,
		Phase1Rounds: scaffolding(p1.scopeB) + p1.maxRounds,
	}, nil
}

// DHC1 simulates Algorithm 2: Phase 1 partitioning plus the hypernode
// rotation of Phase 2 (with port orientations; see internal/core/hyper.go).
func DHC1(g *graph.Graph, seed uint64, opts Options) (*cycle.Cycle, Cost, error) {
	return NewSession().DHC1(context.Background(), g, seed, opts)
}

// DHC1 simulates Algorithm 2, honoring ctx between partitions, attempts and
// rotation-step batches.
func (s *Session) DHC1(ctx context.Context, g *graph.Graph, seed uint64, opts Options) (*cycle.Cycle, Cost, error) {
	numColors, _ := core.Colors(g.N(), opts.NumColors, 0.5) // δ = 1/2 is in range: no error
	p1, src, cost, err := s.startDHC(ctx, g, seed, numColors, opts.Workers)
	if err != nil {
		return nil, Cost{}, err
	}
	gb := broadcastBound(g)
	if numColors == 1 {
		cost.Rounds = cost.Phase1Rounds
		hc := p1.cycles[0]
		if err := hc.Verify(g); err != nil {
			return nil, cost, fmt.Errorf("%w: %v", ErrFailed, err)
		}
		return hc, cost, nil
	}
	var hc *cycle.Cycle
	var p2rounds int64
	ok := false
	s.Hooks.phase("phase2")
	for a := 0; a < rotation.Attempts; a++ {
		if ctx.Err() != nil {
			return nil, cost, canceled(ctx)
		}
		var steps int64
		hc, steps, err = hyperRotation(g, p1.cycles, src)
		// Selection flood + port announcement + rotation steps priced at
		// the global broadcast bound (hyper floods are global).
		p2rounds += gb + 2 + steps*(gb+2)
		cost.Steps += steps
		if err == nil {
			ok = true
			break
		}
		cost.Restarts++
		s.Hooks.restart(int64(a + 1))
		p2rounds += 2*gb + 2
	}
	cost.Phase2Rounds = p2rounds
	cost.Rounds = cost.Phase1Rounds + cost.Phase2Rounds
	if !ok {
		return nil, cost, fmt.Errorf("%w: phase 2: %v", ErrFailed, err)
	}
	if err := hc.Verify(g); err != nil {
		return nil, cost, fmt.Errorf("%w: %v", ErrFailed, err)
	}
	return hc, cost, nil
}

// DHC2 simulates Algorithm 3: Phase 1 partitioning plus ⌈log₂ K⌉ parallel
// pairwise merge levels.
func DHC2(g *graph.Graph, seed uint64, opts Options) (*cycle.Cycle, Cost, error) {
	return NewSession().DHC2(context.Background(), g, seed, opts)
}

// DHC2 simulates Algorithm 3, honoring ctx between partitions, merge levels
// and rotation-step batches.
func (s *Session) DHC2(ctx context.Context, g *graph.Graph, seed uint64, opts Options) (*cycle.Cycle, Cost, error) {
	numColors, err := core.Colors(g.N(), opts.NumColors, opts.Delta)
	if err != nil {
		return nil, Cost{}, fmt.Errorf("stepsim: %w", err)
	}
	p1, src, cost, err := s.startDHC(ctx, g, seed, numColors, opts.Workers)
	if err != nil {
		return nil, Cost{}, err
	}
	s.Hooks.phase("phase2")
	hc, levels, err := s.runMergeTree(ctx, g, p1.cycles, src, opts.Workers)
	if err != nil {
		return nil, cost, err
	}
	// Each level costs 2B+10 rounds (probe exchanges plus two scoped
	// broadcasts), mirroring internal/core/merge.go.
	cost.Phase2Rounds = levels * (2*p1.scopeB + 10)
	cost.Rounds = cost.Phase1Rounds + cost.Phase2Rounds
	if err := hc.Verify(g); err != nil {
		return nil, cost, fmt.Errorf("%w: %v", ErrFailed, err)
	}
	return hc, cost, nil
}

// mergeTreeTag namespaces the phase-2 level streams within the run's split
// space, away from the phase-1 partition indices.
const mergeTreeTag = uint64(0xD4C2) << 32

// mergeOutcome is one pair's result slot, written only by the worker that
// owns the pair and read only after the level's pool drains.
type mergeOutcome struct {
	cyc *cycle.Cycle
	err error
}

// runMergeTree collapses the per-partition subcycles into one cycle through
// ⌈log₂ K⌉ pairwise merge levels (paper Algorithm 3, Phase 2). The levels
// are inherently sequential, but within a level every pair merge is
// independent — exactly the parallelism the paper's round bound counts on —
// so with workers > 1 the pairs of a level run on a bounded worker pool.
//
// Determinism: pair i of level l draws all randomness from
// src.Split(mergeTreeTag+l).Split(i+1), a pure function of the run seed, and
// outcomes land in a pre-sized slot array folded in pair-index order (first
// error in pair order wins), so every workers value produces byte-identical
// results. Each worker owns one reusable scratch buffer across all levels,
// keeping the bridge scan allocation-free per pair.
func (s *Session) runMergeTree(ctx context.Context, g *graph.Graph, cycles []*cycle.Cycle, src *rng.Source, workers int) (*cycle.Cycle, int64, error) {
	if len(cycles) == 1 {
		return cycles[0], 0, nil
	}
	scratches := s.workerScratches(g.N(), workers, len(cycles)/2)
	levels := int64(0)
	for len(cycles) > 1 {
		if ctx.Err() != nil {
			return nil, levels, canceled(ctx)
		}
		levels++
		levelSrc := src.Split(mergeTreeTag + uint64(levels))
		pairs := len(cycles) / 2
		outs := make([]mergeOutcome, pairs)
		arena.RunPool(len(scratches), pairs, func(w, i int) {
			outs[i].cyc, outs[i].err = mergePair(
				g, cycles[2*i], cycles[2*i+1], levelSrc.Split(uint64(i)+1), scratches[w])
		})
		next := make([]*cycle.Cycle, 0, (len(cycles)+1)/2)
		for i := 0; i < pairs; i++ {
			if outs[i].err != nil {
				return nil, levels, fmt.Errorf("%w: merge level %d pair %d: %v",
					ErrFailed, levels, i, outs[i].err)
			}
			next = append(next, outs[i].cyc)
		}
		if len(cycles)%2 == 1 {
			next = append(next, cycles[len(cycles)-1])
		}
		cycles = next
	}
	return cycles[0], levels, nil
}

// workerScratch is one pool worker's reusable vertex-indexed table, shared
// by both phases: pos[v] is v's index in the set being scanned plus one
// (0 = absent) — the color class whose subgraph phase 1 builds
// (graph.InducedSubgraphIndexed), or the second cycle of phase 2's bridge
// scan (mergePair). It is sized to the full graph and kept by the Session;
// each user stamps only its set's entries and wipes them on every exit, so
// the table is all zero between uses and repeated builds and scans allocate
// nothing for it.
type workerScratch struct {
	pos []int32
}

// mergePair finds a bridge between two cycles (paper Fig. 3) and merges
// them. It mirrors the distributed bridge search: for each cycle edge
// (v -> u) of the first cycle, a neighbor w on the second cycle bridges if
// (v, w) and (u, succ(w)) — or (u, pred(w)) — are graph edges.
func mergePair(g *graph.Graph, c1, c2 *cycle.Cycle, src *rng.Source, sc *workerScratch) (*cycle.Cycle, error) {
	for i := 0; i < c2.Len(); i++ {
		sc.pos[c2.At(i)] = int32(i) + 1
	}
	defer func() {
		for i := 0; i < c2.Len(); i++ {
			sc.pos[c2.At(i)] = 0
		}
	}()
	// Scan first-cycle edges in random rotation order so merges do not
	// systematically favor low ids.
	offset := src.Intn(c1.Len())
	for i := 0; i < c1.Len(); i++ {
		v := c1.At(offset + i)
		u := c1.At(offset + i + 1)
		for _, w := range g.Neighbors(v) {
			pw := sc.pos[w]
			if pw == 0 {
				continue
			}
			wi := int(pw - 1)
			wSucc := c2.At(wi + 1)
			wPred := c2.At(wi - 1)
			if g.HasEdge(u, wSucc) {
				b := cycle.Bridge{
					E1: cycle.OrientedEdge{V: v, U: u},
					E2: cycle.OrientedEdge{V: w, U: wSucc},
				}
				return cycle.MergeTwo(c1, c2, b)
			}
			if g.HasEdge(u, wPred) {
				b := cycle.Bridge{
					E1:      cycle.OrientedEdge{V: v, U: u},
					E2:      cycle.OrientedEdge{V: wPred, U: w},
					Crossed: true,
				}
				return cycle.MergeTwo(c1, c2, b)
			}
		}
	}
	return nil, errors.New("no bridge found")
}
