// Package core implements the paper's primary contribution: the
// fully-distributed Hamiltonian-cycle algorithms DHC1 (Algorithm 2, for
// p = c·ln n/√n) and DHC2 (Algorithm 3, for p = c·ln n/n^δ).
//
// Both algorithms share Phase 1: every node picks one of K colors uniformly
// at random, the color classes induce ~K partitions of expected size n/K,
// and each partition runs an independent Distributed Rotation Algorithm
// (package dra) in parallel to build its own sub-Hamiltonian-cycle. DHC1
// uses K = round(√n); DHC2 uses K = round(n^{1-δ}).
//
// Phase 1 needs three pieces of scaffolding the paper assumes implicitly:
// the partition must agree on an initial head (scoped min-id election), the
// DRA success test needs the partition size |V_i| (scoped BFS + convergecast
// count), and the network must agree when Phase 2 starts even though
// partitions finish DRA at different times (a global barrier over a BFS tree
// rooted at node 0). All three cost O(diameter) rounds per use and stay
// within the paper's round budgets.
package core

import (
	"math"

	"dhc/internal/arena"
	"dhc/internal/congest"
	"dhc/internal/dra"
	"dhc/internal/graph"
	"dhc/internal/proto"
	"dhc/internal/wire"
)

// Tags for concurrent protocol instances.
const (
	tagGlobalTree int32 = 0   // network-wide BFS tree (barrier substrate)
	tagScopeTree  int32 = 1   // per-partition BFS tree (size count)
	tagPhase1DRA  int32 = 100 // DRA sessions of Phase 1 (tag 100+attempt)
	tagPhase2DRA  int32 = 2   // hypernode rotation of DHC1 Phase 2
)

// phase1Config parameterizes the shared first phase.
type phase1Config struct {
	// NumColors is K, the number of partitions.
	NumColors int32
	// B upper-bounds every broadcast/BFS settling time (global and scope
	// diameters).
	B int64
}

// phase1 is the per-node state of the shared first phase. The embedding node
// calls init from congest.Node.Init and tick once per round; tick returns
// true once Phase 1 (including the global barrier) is complete at this node.
type phase1 struct {
	cfg phase1Config

	color int32
	// nbColor[port] is the color the neighbor on that port announced, -1
	// until it has (see recordColors); nbKnown counts the announced ports.
	nbColor []int32
	nbKnown int
	// scopePorts caches the in-scope (same-color) neighbors as ascending
	// ports once colors are known. It is the scope of every phase-1 flood
	// (election, partition tree, DRA) and of the later phases' partition
	// floods: each is one SendPorts call over it. It is filled once, in the
	// election round, when every neighbor's color is in.
	scopePorts []int32

	elect  proto.Flooder
	leader bool

	// The machines live in the node's own object; one that has not started
	// holds no children or barrier facts, so memoryWords reads 0 for it.
	globalBFS proto.BFSState
	barrier   proto.Barrier
	scopeBFS  proto.BFSState
	counter   *proto.Counter

	dra       *dra.State
	scopeSize int

	phase2Start int64 // common start round for Phase 2, set at barrier release
	arrived     bool
}

// Phase boundaries, in absolute rounds (B = cfg.B):
//
//	round 0 (Init): pick color, announce to neighbors, start global BFS
//	rounds 1..B:    global BFS settles; round 1 records neighbor colors and
//	                starts the scoped election
//	rounds 2..B+1:  scoped election settles
//	round B+2:      scope leader starts the partition BFS
//	rounds B+3..2B+2: partition BFS settles
//	round 2B+3:     partition size convergecast begins
//	rounds ..4B+7:  count settles everywhere
//	round 4B+8:     per-partition DRA begins (adaptive length, restarts
//	                included: see dra.State)
//	then:           global barrier 0; Phase 2 starts at barrier.StartRound(0)
func (p *phase1) electStart() int64    { return 1 }
func (p *phase1) electEnd() int64      { return p.cfg.B + 1 }
func (p *phase1) scopeBFSStart() int64 { return p.cfg.B + 2 }
func (p *phase1) countStart() int64    { return 2*p.cfg.B + 3 }
func (p *phase1) draStart() int64      { return 4*p.cfg.B + 8 }

// recycled returns a zero phase under cfg that keeps the backing arrays of
// p's per-port tables: init refills nbColor and the election round refills
// scopePorts, so a reused program does not reallocate them. The machines
// that point into the phase (the barrier, the counter) are set up after the
// copy, by init and tick.
func (p *phase1) recycled(cfg phase1Config) phase1 {
	return phase1{cfg: cfg, nbColor: p.nbColor, scopePorts: p.scopePorts[:0]}
}

func (p *phase1) init(ctx *congest.Context) {
	p.color = int32(ctx.Rand().Intn(int(p.cfg.NumColors)))
	p.nbColor = unknownColors(p.nbColor, ctx.Degree())
	ctx.SendPorts(ctx.AllPorts(), -1, wire.Msg(wire.KindColor, p.color))
	p.globalBFS = *proto.NewBFSState(0, ctx.AllPorts())
	p.globalBFS.Tag = tagGlobalTree
	p.globalBFS.Start(ctx)
	// The barrier's tree is final by round B, and no barrier traffic flows
	// before the first partition finishes DRA, long after.
	p.barrier = *proto.NewBarrier(&p.globalBFS, p.cfg.B+2)
}

// unknownColors returns table resized to deg ports, every port unannounced.
func unknownColors(table []int32, deg int) []int32 {
	table = arena.Resize(table, deg)
	for i := range table {
		table[i] = -1
	}
	return table
}

// recordColors stores the colors announced by inbox's KindColor messages in
// the port-indexed table and returns how many ports became known. The inbox
// is sorted by sender and the neighbor list by id, so one merge walk finds
// every sender's port; the last of several announcements wins. Protocol
// colors are non-negative, so -1 can mark an unannounced port: a negative
// announcement (only a FaultHook can make one) is stored as MaxInt32, known
// but equal to no color.
func recordColors(ctx *congest.Context, inbox []congest.Envelope, table []int32) int {
	if !ctx.Received(wire.KindColor) {
		return 0
	}
	nbrs := ctx.Neighbors()
	port, known := 0, 0
	for _, env := range inbox {
		if env.Msg.Kind != wire.KindColor {
			continue
		}
		for nbrs[port] < env.From {
			port++
		}
		c := env.Msg.Arg(0)
		if c < 0 {
			c = math.MaxInt32
		}
		if table[port] < 0 {
			known++
		}
		table[port] = c
	}
	return known
}

// tick advances Phase 1 by one round; returns true once complete.
func (p *phase1) tick(ctx *congest.Context, inbox []congest.Envelope) bool {
	round := ctx.Round()

	// Color records arrive in round 1 and drive everything scoped.
	p.nbKnown += recordColors(ctx, inbox, p.nbColor)
	if round == p.electStart() {
		// All colors are in (announced at Init, delivered round 1): cache
		// the in-scope ports for the scoped flood hot paths.
		for port, c := range p.nbColor {
			if c == p.color {
				p.scopePorts = append(p.scopePorts, int32(port))
			}
		}
	}

	// Global tree building and barrier traffic flow on their own kinds and
	// can be absorbed every round.
	p.globalBFS.Absorb(ctx, inbox)
	p.barrier.Absorb(ctx, inbox)

	done := false
	switch {
	case round == p.electStart():
		p.elect = *proto.NewFlooder(ctx.ID(), p.scopePorts)
		p.elect.Start(ctx)
	case round > p.electStart() && round <= p.electEnd():
		p.elect.Absorb(ctx, inbox)
	case round == p.scopeBFSStart():
		p.elect.Absorb(ctx, inbox) // stragglers from the last send
		p.leader = p.elect.Best == ctx.ID()
		p.scopeBFS = *proto.NewBFSState(p.elect.Best, p.scopePorts)
		p.scopeBFS.Tag = tagScopeTree
		if p.leader {
			p.scopeBFS.Start(ctx)
		}
	case round > p.scopeBFSStart() && round < p.countStart():
		p.scopeBFS.Absorb(ctx, inbox)
	case round >= p.countStart() && round < p.draStart():
		if p.counter == nil {
			p.counter = proto.NewCounter(&p.scopeBFS, 1, tagScopeTree)
		}
		p.counter.Tick(ctx, inbox)
	case round >= p.draStart():
		done = p.tickDRA(ctx, inbox)
	}
	// Metering once per call: every component only grows within a call
	// except a DRA restart, which refills its unused list inside Tick,
	// before this point, so this one reading dominates any taken earlier in
	// the call.
	ctx.ObserveMemory(p.memoryWords())
	return done
}

func (p *phase1) tickDRA(ctx *congest.Context, inbox []congest.Envelope) bool {
	if p.dra == nil {
		p.scopeSize = 0
		if p.counter != nil && p.counter.Done() {
			p.scopeSize = int(p.counter.Total)
		}
		params := dra.Params{
			ScopeSize:       p.scopeSize,
			IsInitialHead:   p.leader,
			ScopePorts:      p.scopePorts,
			BroadcastRounds: p.cfg.B,
			StartRound:      p.draStart(),
			Tag:             tagPhase1DRA,
		}
		p.dra = dra.NewState(ctx, params)
	}
	p.dra.Tick(ctx, inbox)
	if p.dra.Status() != dra.Running && !p.arrived {
		p.arrived = true
		p.barrier.Arrive(ctx, 0)
	}
	if p.arrived && p.barrier.Released(0) {
		p.phase2Start = p.barrier.StartRound(0)
		return true
	}
	return false
}

// nextWake returns the next round this node must run even without incoming
// messages, declaring Phase 1's wake-up discipline for the event-driven
// simulator: each phase boundary performs empty-inbox work at every node
// (start the scoped election, create the partition BFS, seed the size
// convergecast, construct the DRA state), and the DRA declares its own
// wake-ups (its head's timer and its restarts). Everything in between —
// flood absorption, BFS adoption, convergecast propagation, barrier
// traffic — is message-driven. Returns 0 when only messages can advance
// this node.
func (p *phase1) nextWake(now int64) int64 {
	switch {
	case now < p.electStart():
		return p.electStart()
	case now < p.scopeBFSStart():
		return p.scopeBFSStart()
	case now < p.countStart():
		return p.countStart()
	case now < p.draStart():
		return p.draStart()
	}
	if p.dra == nil {
		return now + 1 // DRA state materializes on the next invocation
	}
	return p.dra.NextWake(now)
}

// memoryWords estimates retained state: neighbor colors (O(deg)), scope tree
// children, DRA state, and O(1) scalars.
func (p *phase1) memoryWords() int64 {
	words := int64(p.nbKnown) + 16 + int64(len(p.scopeBFS.Children)) +
		int64(len(p.globalBFS.Children)) + p.barrier.MemoryWords()
	if p.dra != nil {
		words += p.dra.MemoryWords()
	}
	return words
}

// treeNeighbors returns this node's global-BFS-tree neighbor list (parent,
// then children) for phase-wide flood routing: a tree flood costs O(n)
// messages instead of O(m) and settles within 2·depth <= 2·ecc(root) < B
// rounds. The root (its own parent) and unadopted nodes contribute only
// their children.
func (p *phase1) treeNeighbors(ctx *congest.Context) []graph.NodeID {
	t := &p.globalBFS
	nbrs := make([]graph.NodeID, 0, len(t.Children)+1)
	if t.Adopted() && t.Parent != ctx.ID() {
		nbrs = append(nbrs, t.Parent)
	}
	return append(nbrs, t.Children...)
}

// succeeded reports whether this node's partition completed its subcycle.
func (p *phase1) succeeded() bool {
	return p.dra != nil && p.dra.Status() == dra.Succeeded
}
