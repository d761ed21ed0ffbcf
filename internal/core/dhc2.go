package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"dhc/internal/arena"
	"dhc/internal/congest"
	"dhc/internal/cycle"
	"dhc/internal/graph"
	"dhc/internal/metrics"
	"dhc/internal/rotation"
)

// ErrNoHC is returned when a run terminates without producing a valid
// Hamiltonian cycle (a low-probability event on graphs above the threshold,
// certain on graphs below it).
var ErrNoHC = errors.New("core: run did not produce a Hamiltonian cycle")

// DHC2Options configures a DHC2 run (Algorithm 3). Each partition's DRA gets
// the Theorem 2 step budget for its counted size.
type DHC2Options struct {
	// Delta is the sparsity exponent δ of p = c·ln n / n^δ; the number of
	// partitions is K = round(n^{1-δ}). Must be in (0, 1].
	Delta float64
	// NumColors overrides K directly when positive (Delta then unused).
	NumColors int
	// B bounds every broadcast/BFS settling time. Zero selects
	// max(2·ecc(0)+1, 3·⌈log₂ n⌉+6), safe whp for threshold random
	// graphs and their partitions.
	B int64
}

// dhc2Node is the per-node program: Phase 1 (shared) then tree merging.
type dhc2Node struct {
	cfg   phase1Config
	p1    phase1
	mp    mergePhase
	stage int
}

var _ congest.Node = (*dhc2Node)(nil)

func (d *dhc2Node) Init(ctx *congest.Context) {
	d.stage = 1
	d.p1 = d.p1.recycled(d.cfg)
	d.p1.init(ctx)
	d.armWake(ctx)
}

// armWake declares this node's next self-scheduled invocation to the
// event-driven simulator; everything else is driven by deliveries.
func (d *dhc2Node) armWake(ctx *congest.Context) {
	var w int64
	if d.stage == 1 {
		w = d.p1.nextWake(ctx.Round())
	} else {
		w = d.mp.nextWake(ctx.Round())
	}
	if w > 0 {
		ctx.WakeAt(w)
	}
}

func (d *dhc2Node) Round(ctx *congest.Context, inbox []congest.Envelope) {
	if d.stage == 1 {
		if d.p1.tick(ctx, inbox) {
			d.stage = 2
			d.mp = d.mp.recycled(d.cfg.B, d.cfg.NumColors)
			succ, pred := graph.NodeID(-1), graph.NodeID(-1)
			if d.p1.dra != nil {
				succ, pred = d.p1.dra.Succ(), d.p1.dra.Pred()
			}
			d.mp.start(d.p1.color, succ, pred, d.p1.phase2Start)
		}
		d.armWake(ctx)
		return
	}
	if ctx.Round() >= d.mp.levelStart {
		if d.mp.tick(ctx, inbox) {
			ctx.Halt()
			return
		}
	}
	d.armWake(ctx)
}

// Result carries a successful run's output and cost.
type Result struct {
	Cycle    *cycle.Cycle
	Counters *metrics.Counters
	// PartitionSizes are the Phase 1 color-class sizes.
	PartitionSizes []int
	// Steps is the rotation-step total across phases: the per-partition DRA
	// step counts (every attempt, summed over partitions — the partitions
	// run concurrently but steps meter work, not time) plus, for DHC1, the
	// phase-2 hypernode rotation steps. It mirrors the step engine's Cost.
	// Steps accounting so the crosscheck suite can pin the two engines
	// against each other.
	Steps int64
	// Phase1Rounds is the common Phase 2 start round, i.e. the cost of
	// Phase 1 including its barrier.
	Phase1Rounds int64
	// MergeLevels is ⌈log₂ K⌉ for DHC2 (0 for DHC1).
	MergeLevels int
}

// defaultB returns the broadcast bound used when the caller does not set one.
func defaultB(g *graph.Graph) int64 {
	ecc := int64(g.BFS(0).Ecc)
	logB := int64(3*intLog2(g.N()) + 6)
	if 2*ecc+1 > logB {
		return 2*ecc + 1
	}
	return logB
}

func intLog2(n int) int {
	l := 0
	for v := n - 1; v > 0; v >>= 1 {
		l++
	}
	return l
}

// RunDHC2 executes DHC2 on g on a fresh in-process Network and returns the
// verified Hamiltonian cycle.
func RunDHC2(g *graph.Graph, seed uint64, opts DHC2Options, netOpts congest.Options) (*Result, error) {
	return NewDHC2Session().Run(context.Background(), new(congest.Network), g, seed, opts, netOpts)
}

// DHC2Session is a reusable DHC2 program set: the per-node program slice
// survives across Run calls, so repeated trials on same-sized graphs skip
// its allocations. The session binds programs and extracts the cycle; the
// executor is the caller's. Not safe for concurrent use.
type DHC2Session struct {
	progs []*dhc2Node
	nodes []congest.Node
}

// NewDHC2Session returns an empty session; the first Run sizes it.
func NewDHC2Session() *DHC2Session { return &DHC2Session{} }

// Run resets ex to g and the session's programs and executes one DHC2
// trial, honoring ctx at the executor's amortized cancellation checkpoint. A
// cancelled run returns ctx's error and leaves the session reusable.
func (sess *DHC2Session) Run(ctx context.Context, ex congest.Runner, g *graph.Graph, seed uint64, opts DHC2Options, netOpts congest.Options) (*Result, error) {
	n := g.N()
	if n < 3 {
		return nil, fmt.Errorf("core: need n >= 3, got %d", n)
	}
	numColors := opts.NumColors
	if numColors <= 0 {
		if opts.Delta <= 0 || opts.Delta > 1 {
			return nil, fmt.Errorf("core: delta %v outside (0, 1]", opts.Delta)
		}
		numColors = int(math.Round(math.Pow(float64(n), 1-opts.Delta)))
	}
	if numColors > n/3 {
		numColors = n / 3 // partitions must be able to hold a 3-cycle
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
		netOpts.MaxRounds = dhc2RoundBudget(n, numColors, b)
	}
	sess.progs = arena.Resize(sess.progs, n)
	sess.nodes = arena.Resize(sess.nodes, n)
	for i := 0; i < n; i++ {
		if sess.progs[i] == nil {
			sess.progs[i] = &dhc2Node{}
		}
		p := sess.progs[i]
		*p = dhc2Node{cfg: cfg, p1: p.p1.recycled(cfg), mp: p.mp.recycled(cfg.B, cfg.NumColors)}
		sess.nodes[i] = p
	}
	if err := ex.Reset(g, sess.nodes, netOpts); err != nil {
		return nil, err
	}
	counters, err := ex.RunContext(ctx, seed)
	if err != nil {
		return nil, fmt.Errorf("dhc2: %w", err)
	}
	res := &Result{
		Counters:       counters,
		PartitionSizes: make([]int, numColors),
		MergeLevels:    int((&mergePhase{K: int32(numColors)}).levels()),
	}
	colorSteps := make([]int64, numColors)
	succ := make([]graph.NodeID, n)
	for v, p := range sess.progs {
		if !p.p1.succeeded() {
			return nil, fmt.Errorf("%w: node %d partition DRA failed", ErrNoHC, v)
		}
		if c := int(p.p1.color); c >= 0 && c < numColors {
			res.PartitionSizes[c]++
			if s := p.p1.dra.Steps(); s > colorSteps[c] {
				colorSteps[c] = s
			}
		}
		res.Phase1Rounds = p.p1.phase2Start
		succ[v] = p.mp.succ
	}
	for _, s := range colorSteps {
		res.Steps += s
	}
	hc, err := cycle.FromSuccessors(succ, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: merged pointers: %v", ErrNoHC, err)
	}
	if err := hc.Verify(g); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoHC, err)
	}
	res.Cycle = hc
	return res, nil
}

// dhc2RoundBudget upper-bounds a run's rounds for the simulator's watchdog:
// Phase 1 scaffolding + worst-case DRA (every step pays a broadcast) +
// merge levels.
func dhc2RoundBudget(n, numColors int, b int64) int64 {
	scope := 3 * n / numColors // generous partition-size bound
	steps := rotation.DefaultMaxSteps(scope)
	levels := int64((&mergePhase{K: int32(numColors)}).levels())
	return 4*b + 8 + steps*(b+3) + levels*(2*b+10) + 4*b + 1024
}
