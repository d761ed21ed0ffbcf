package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"dhc/internal/congest"
	"dhc/internal/cycle"
	"dhc/internal/graph"
	"dhc/internal/rotation"
)

// ErrNoHC is returned when a run terminates without producing a valid
// Hamiltonian cycle (a low-probability event on graphs above the threshold,
// certain on graphs below it).
var ErrNoHC = errors.New("core: run did not produce a Hamiltonian cycle")

// Options configures a DHC1 or DHC2 run. The step budgets are derived, not
// set: each partition's DRA gets the Theorem 2 budget for its counted size,
// and DHC1's hypernode rotation 4× the budget for K (covering probe
// rejections).
type Options struct {
	// Delta is DHC2's sparsity exponent δ of p = c·ln n / n^δ, giving K =
	// round(n^{1-δ}); it must be in (0, 1]. DHC1 is the δ = 1/2 algorithm
	// and ignores it.
	Delta float64
	// NumColors overrides K directly when positive (Delta then unused).
	NumColors int
	// B bounds the settling times that are fixed before anything is
	// measured: the global BFS, each partition's election, BFS tree and
	// size count, and those of DHC2's merge levels whose unions of
	// partitions not every node vouches for (mergePhase.B). Zero selects
	// defaultB, safe whp for
	// threshold random graphs and their partitions. The partitions'
	// rotations and restarts and DHC1's hypernode phase wait bounds the run
	// measures itself (see phase1), whatever B is.
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
			if !d.p1.everySucceeded() {
				ctx.Halt() // no subcycles to merge
				return
			}
			d.stage = 2
			tight := d.p1.phase2B()
			d.mp = d.mp.recycled(d.cfg.NumColors)
			d.mp.start(d.p1.color, d.p1.dra.Succ(), d.p1.dra.Pred(), d.p1.phase2Start,
				tight, max(tight, d.cfg.B), d.p1.vouchedMergeLevels())
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

// defaultB returns the broadcast bound used when the caller does not set one:
// rotation.BroadcastBound of ecc(0), floored at 3⌈log₂ n⌉+6. The floor is
// for the partition windows timed before a partition has measured itself
// (election, BFS tree, size count): a colour class can have a larger
// diameter than the whole graph. Once its count is in, a partition waits
// its own measured bound instead.
func defaultB(g *graph.Graph) int64 {
	ecc, _ := g.Ecc(0)
	return max(rotation.BroadcastBound(ecc), int64(3*bits.Len(uint(g.N()-1))+6))
}

// Colors resolves the partition count K of a DHC run on n vertices, in both
// engines: numColors when positive, else round(n^{1-δ}) (DHC1 passes
// δ = 1/2, for which math.Pow is exactly math.Sqrt), clamped to [1, n/3] so
// that every partition can hold a 3-cycle.
func Colors(n, numColors int, delta float64) (int, error) {
	if numColors <= 0 {
		if delta <= 0 || delta > 1 {
			return 0, fmt.Errorf("delta %v outside (0, 1]", delta)
		}
		numColors = int(math.Round(math.Pow(float64(n), 1-delta)))
	}
	return max(1, min(numColors, n/3)), nil
}

// binding is a DHC session's Options and what it resolves from them per
// graph.
type binding struct {
	opts Options
	cfg  phase1Config
}

// bind resolves K at δ and B for g, and returns Phase 1's share of the round
// budget: the scaffolding plus a worst-case partition DRA in which every
// step pays a broadcast, over a generous 3n/K partition-size bound.
func (a *binding) bind(g *graph.Graph, delta float64) (int64, error) {
	k, err := Colors(g.N(), a.opts.NumColors, delta)
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	b := a.opts.B
	if b == 0 {
		b = defaultB(g)
	}
	a.cfg = phase1Config{NumColors: int32(k), B: b}
	return 4*b + 8 + rotation.DefaultMaxSteps(3*g.N()/k)*(b+3), nil
}

// tallyPhase1 checks node v's partition DRA and folds its Phase 1 outcome
// into res: partition sizes, the Phase 2 start round, and Steps as the sum
// over partitions of each one's step count, the maximum of its nodes' views
// (kept per colour in steps).
func tallyPhase1(res *congest.Result, steps []int64, v int, p *phase1) error {
	if !p.succeeded() {
		return fmt.Errorf("%w: node %d partition DRA failed", ErrNoHC, v)
	}
	res.Phase1Rounds = p.phase2Start
	c := int(p.color)
	if c < 0 || c >= len(steps) {
		return fmt.Errorf("%w: node %d has invalid color %d", ErrNoHC, v, c)
	}
	res.PartitionSizes[c]++
	if s := p.dra.Steps(); s > steps[c] {
		res.Steps += s - steps[c]
		steps[c] = s
	}
	return nil
}

// DHC2Session is a reusable DHC2 program set: the per-node programs and
// their per-port tables survive across Run calls.
type DHC2Session = congest.Session[dhc2Node, *dhc2Node]

// NewDHC2Session returns an empty session that runs DHC2 under opts; the
// first Run sizes it.
func NewDHC2Session(opts Options) *DHC2Session {
	return congest.NewSession[dhc2Node]("dhc2", &dhc2Algorithm{binding{opts: opts}})
}

// dhc2Algorithm is DHC2's part of a Session.
type dhc2Algorithm struct{ binding }

// Bind implements congest.Algorithm.
func (a *dhc2Algorithm) Bind(g *graph.Graph, netOpts *congest.Options) error {
	budget, err := a.bind(g, a.opts.Delta)
	if err != nil {
		return err
	}
	a.cfg.MergeLevels = numMergeLevels(a.cfg.NumColors)
	if netOpts.MaxRounds == 0 {
		// Phase 2 adds the merge levels, each waiting at most the larger of
		// B and the largest partition bound, 2(B+2)+1 for a count of depth
		// B+2.
		b, levels := a.cfg.B, int64(a.cfg.MergeLevels)
		netOpts.MaxRounds = budget + levels*(4*b+20) + 4*b + 1024
	}
	return nil
}

// Recycle implements congest.Algorithm, keeping the per-port tables.
func (a *dhc2Algorithm) Recycle(p *dhc2Node) {
	*p = dhc2Node{cfg: a.cfg, p1: p.p1.recycled(a.cfg), mp: p.mp.recycled(a.cfg.NumColors)}
}

// Extract implements congest.Algorithm: the merged successors form the cycle.
func (a *dhc2Algorithm) Extract(g *graph.Graph, progs []*dhc2Node, res *congest.Result) error {
	res.PartitionSizes = make([]int, a.cfg.NumColors)
	steps, succ := make([]int64, a.cfg.NumColors), make([]graph.NodeID, len(progs))
	for v, p := range progs {
		if err := tallyPhase1(res, steps, v, &p.p1); err != nil {
			return err
		}
		succ[v] = p.mp.succ
	}
	var err error
	if res.Cycle, err = cycle.FromVerifiedSuccessors(g, succ); err != nil {
		return fmt.Errorf("%w: merged pointers: %v", ErrNoHC, err)
	}
	return nil
}
