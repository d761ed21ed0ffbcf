package core

import (
	"fmt"

	"dhc/internal/congest"
	"dhc/internal/cycle"
	"dhc/internal/dra"
	"dhc/internal/graph"
	"dhc/internal/rotation"
)

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
	if d.stage == 1 {
		w = d.p1.nextWake(ctx.Round())
	} else {
		w = d.hp.nextWake(ctx.Round())
	}
	if w > 0 {
		ctx.WakeAt(w)
	}
}

func (d *dhc1Node) Round(ctx *congest.Context, inbox []congest.Envelope) {
	if d.stage == 1 {
		if d.p1.tick(ctx, inbox) {
			if d.numK == 1 || !d.p1.everySucceeded() {
				// A single partition's cycle is the answer, and a failed
				// partition leaves no cycle to find.
				ctx.Halt()
				return
			}
			d.stage = 2
			d.hp = hyperPhase{B: d.p1.phase2B(), K: d.numK}
			st := d.p1.dra
			d.hp.start(d.p1.color, st.CycleIndex(), int32(d.p1.scopeSize), st.Succ(), st.Pred(),
				d.p1.treeNeighbors(ctx), d.p1.phase2Start)
		}
		d.armWake(ctx)
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

// DHC1Session is a reusable DHC1 program set: the per-node programs and
// their per-port tables survive across Run calls.
type DHC1Session = congest.Session[dhc1Node, *dhc1Node]

// NewDHC1Session returns an empty session that runs DHC1 under opts; the
// first Run sizes it.
func NewDHC1Session(opts Options) *DHC1Session {
	return congest.NewSession[dhc1Node]("dhc1", &dhc1Algorithm{binding{opts: opts}})
}

// dhc1Algorithm is DHC1's part of a Session (paper Algorithm 2, for
// p = c·ln n/√n, so K defaults to round(√n)).
type dhc1Algorithm struct{ binding }

// Bind implements congest.Algorithm.
func (a *dhc1Algorithm) Bind(g *graph.Graph, netOpts *congest.Options) error {
	budget, _ := a.bind(g, 0.5) // δ = 1/2 is in range: no error
	if netOpts.MaxRounds == 0 {
		// Phase 2 adds the hypernode rotation, 4× the budget for K.
		b, hyperSteps := a.cfg.B, 4*rotation.DefaultMaxSteps(int(a.cfg.NumColors))
		netOpts.MaxRounds = budget + hyperSteps*(b+4) + 8*b + 2048
	}
	return nil
}

// Recycle implements congest.Algorithm, keeping phase 1's per-port tables.
func (a *dhc1Algorithm) Recycle(p *dhc1Node) {
	*p = dhc1Node{cfg: a.cfg, numK: a.cfg.NumColors, p1: p.p1.recycled(a.cfg)}
}

// Extract implements congest.Algorithm: it reassembles the full Hamiltonian
// cycle from per-node states, partition subcycles from Phase 1 plus
// hypernode (index, orientation, port) assignments from Phase 2.
func (a *dhc1Algorithm) Extract(g *graph.Graph, progs []*dhc1Node, res *congest.Result) error {
	numColors := int(a.cfg.NumColors)
	res.PartitionSizes = make([]int, numColors)
	steps, succ := make([]int64, numColors), make([]graph.NodeID, g.N())
	hyper := make([]cycle.Hypernode, numColors)
	for v, p := range progs {
		if err := tallyPhase1(res, steps, v, &p.p1); err != nil {
			return err
		}
		succ[v] = p.p1.dra.Succ()
	}
	var err error
	if numColors == 1 {
		res.Cycle, err = cycle.FromVerifiedSuccessors(g, succ)
	} else if err = a.tallyPhase2(progs, res, hyper); err == nil {
		if res.Cycle, err = cycle.SpliceHypernodes(succ, hyper); err == nil {
			err = res.Cycle.Verify(g)
		}
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNoHC, err)
	}
	return nil
}

// tallyPhase2 checks that every node's hypernode rotation succeeded, adds
// its step count to res, and fills hyper with each partition's ports.
func (a *dhc1Algorithm) tallyPhase2(progs []*dhc1Node, res *congest.Result, hyper []cycle.Hypernode) error {
	var steps int64
	for v, p := range progs {
		if p.hp.status != dra.Succeeded {
			return fmt.Errorf("node %d phase 2 status %d", v, p.hp.status)
		}
		steps = max(steps, p.hp.steps)
		c := p.p1.color
		if p.hp.isUPort {
			hyper[c].U = graph.NodeID(v)
			hyper[c].Pos = p.hp.hypIdx
			hyper[c].Reversed = p.hp.reverse
		}
		if p.hp.isVPort {
			hyper[c].V = graph.NodeID(v)
		}
	}
	res.Steps += steps
	return nil
}
