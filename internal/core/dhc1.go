package core

import (
	"context"
	"fmt"
	"math"

	"dhc/internal/arena"
	"dhc/internal/congest"
	"dhc/internal/cycle"
	"dhc/internal/dra"
	"dhc/internal/graph"
	"dhc/internal/rotation"
)

// DHC1Options configures a DHC1 run (paper Algorithm 2, for p = c·ln n/√n).
// The step budgets are derived, not set: each partition's DRA gets the
// Theorem 2 budget for its counted size, and the hypernode rotation 4× the
// budget for K (covering probe rejections).
type DHC1Options struct {
	// NumColors overrides the number of partitions K (default round(√n)).
	NumColors int
	// B bounds broadcast/BFS settling times (0 = defaultB).
	B int64
}

// dhc1Node is the per-node program: shared Phase 1, then the hypernode
// rotation of Phase 2.
type dhc1Node struct {
	cfg   phase1Config
	numK  int32
	p1    phase1
	hp    hyperPhase
	stage int
}

var _ congest.Node = (*dhc1Node)(nil)

func (d *dhc1Node) Init(ctx *congest.Context) {
	d.stage = 1
	d.p1 = d.p1.recycled(d.cfg)
	d.p1.init(ctx)
	d.armWake(ctx)
}

// armWake declares this node's next self-scheduled invocation to the
// event-driven simulator; everything else is driven by deliveries.
func (d *dhc1Node) armWake(ctx *congest.Context) {
	var w int64
	switch {
	case d.stage == 1:
		w = d.p1.nextWake(ctx.Round())
	case d.numK == 1:
		w = ctx.Round() + 1 // one more invocation to halt, as in the dense sweep
	default:
		w = d.hp.nextWake(ctx.Round())
	}
	if w > 0 {
		ctx.WakeAt(w)
	}
}

func (d *dhc1Node) Round(ctx *congest.Context, inbox []congest.Envelope) {
	if d.stage == 1 {
		if d.p1.tick(ctx, inbox) {
			d.stage = 2
			if d.numK == 1 {
				// Single partition: Phase 1's cycle is the answer.
				if d.p1.succeeded() {
					ctx.Halt()
					return
				}
			}
			d.hp = hyperPhase{B: d.cfg.B, K: d.numK}
			var cycindex int32
			succ, pred := graph.NodeID(-1), graph.NodeID(-1)
			if d.p1.succeeded() {
				cycindex = d.p1.dra.CycleIndex()
				succ, pred = d.p1.dra.Succ(), d.p1.dra.Pred()
			}
			d.hp.start(d.p1.color, cycindex, int32(d.p1.scopeSize), succ, pred,
				d.p1.treeNeighbors(ctx), d.p1.phase2Start)
		}
		d.armWake(ctx)
		return
	}
	if d.numK == 1 {
		ctx.Halt()
		return
	}
	if ctx.Round() >= d.hp.phaseStart {
		if d.hp.tick(ctx, inbox, d.p1.leader, d.p1.scopePorts) {
			ctx.Halt()
			return
		}
	}
	d.armWake(ctx)
}

// RunDHC1 executes DHC1 on g on a fresh in-process Network and returns the
// verified Hamiltonian cycle.
func RunDHC1(g *graph.Graph, seed uint64, opts DHC1Options, netOpts congest.Options) (*Result, error) {
	return NewDHC1Session().Run(context.Background(), new(congest.Network), g, seed, opts, netOpts)
}

// DHC1Session is a reusable DHC1 program set: the per-node program slice
// survives across Run calls, so repeated trials on same-sized graphs skip
// its allocations. The session binds programs and extracts the cycle; the
// executor is the caller's. Not safe for concurrent use.
type DHC1Session struct {
	progs []*dhc1Node
	nodes []congest.Node
}

// NewDHC1Session returns an empty session; the first Run sizes it.
func NewDHC1Session() *DHC1Session { return &DHC1Session{} }

// Run resets ex to g and the session's programs and executes one DHC1
// trial, honoring ctx at the executor's amortized cancellation checkpoint. A
// cancelled run returns ctx's error and leaves the session reusable.
func (sess *DHC1Session) Run(ctx context.Context, ex congest.Runner, g *graph.Graph, seed uint64, opts DHC1Options, netOpts congest.Options) (*Result, error) {
	n := g.N()
	if n < 3 {
		return nil, fmt.Errorf("core: need n >= 3, got %d", n)
	}
	numColors := opts.NumColors
	if numColors <= 0 {
		numColors = int(math.Round(math.Sqrt(float64(n))))
	}
	if numColors > n/3 {
		numColors = n / 3
	}
	if numColors < 1 {
		numColors = 1
	}
	b := opts.B
	if b == 0 {
		b = defaultB(g)
	}
	cfg := phase1Config{NumColors: int32(numColors), B: b}
	if netOpts.MaxRounds == 0 {
		scope := 3 * n / numColors
		steps := rotation.DefaultMaxSteps(scope)
		hyperSteps := 4 * rotation.DefaultMaxSteps(numColors)
		netOpts.MaxRounds = 4*b + 8 + steps*(b+3) + hyperSteps*(b+4) + 8*b + 2048
	}
	sess.progs = arena.Resize(sess.progs, n)
	sess.nodes = arena.Resize(sess.nodes, n)
	for i := 0; i < n; i++ {
		if sess.progs[i] == nil {
			sess.progs[i] = &dhc1Node{}
		}
		p := sess.progs[i]
		*p = dhc1Node{cfg: cfg, numK: int32(numColors), p1: p.p1.recycled(cfg)}
		sess.nodes[i] = p
	}
	if err := ex.Reset(g, sess.nodes, netOpts); err != nil {
		return nil, err
	}
	counters, err := ex.RunContext(ctx, seed)
	if err != nil {
		return nil, fmt.Errorf("dhc1: %w", err)
	}
	res := &Result{
		Counters:       counters,
		PartitionSizes: make([]int, numColors),
	}
	hc, err := extractDHC1(g, sess.progs, numColors, res)
	if err != nil {
		return nil, err
	}
	res.Cycle = hc
	return res, nil
}

// extractDHC1 reassembles the full Hamiltonian cycle from per-node states:
// partition subcycles from Phase 1 plus hypernode (index, orientation, port)
// assignments from Phase 2.
func extractDHC1(g *graph.Graph, progs []*dhc1Node, numColors int, res *Result) (*cycle.Cycle, error) {
	hyper := make([]cycle.Hypernode, numColors)
	succ := make([]graph.NodeID, g.N())
	colorSteps := make([]int64, numColors)
	var hyperSteps int64
	for v, p := range progs {
		if !p.p1.succeeded() {
			return nil, fmt.Errorf("%w: node %d partition DRA failed", ErrNoHC, v)
		}
		res.Phase1Rounds = p.p1.phase2Start
		c := int(p.p1.color)
		if c < 0 || c >= numColors {
			return nil, fmt.Errorf("%w: node %d has invalid color %d", ErrNoHC, v, c)
		}
		res.PartitionSizes[c]++
		if s := p.p1.dra.Steps(); s > colorSteps[c] {
			colorSteps[c] = s
		}
		succ[v] = p.p1.dra.Succ()
		if numColors > 1 {
			if p.hp.status != dra.Succeeded {
				return nil, fmt.Errorf("%w: node %d phase 2 status %d", ErrNoHC, v, p.hp.status)
			}
			if p.hp.steps > hyperSteps {
				hyperSteps = p.hp.steps
			}
			if p.hp.isUPort {
				hyper[c].U = graph.NodeID(v)
				hyper[c].Pos = p.hp.hypIdx
				hyper[c].Reversed = p.hp.reverse
			}
			if p.hp.isVPort {
				hyper[c].V = graph.NodeID(v)
			}
		}
	}
	for _, s := range colorSteps {
		res.Steps += s
	}
	res.Steps += hyperSteps
	var hc *cycle.Cycle
	var err error
	if numColors == 1 {
		hc, err = cycle.FromSuccessors(succ, 0)
	} else {
		hc, err = cycle.SpliceHypernodes(succ, hyper)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoHC, err)
	}
	if err := hc.Verify(g); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoHC, err)
	}
	return hc, nil
}
