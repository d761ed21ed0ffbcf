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
	"slices"

	"dhc/internal/arena"
	"dhc/internal/congest"
	"dhc/internal/dra"
	"dhc/internal/graph"
	"dhc/internal/proto"
	"dhc/internal/rotation"
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
	// B upper-bounds every settling time that must be fixed before a
	// partition has measured its own: the global BFS, and the scoped
	// election, partition BFS and count, whose colour class may have a
	// larger diameter than the whole graph. DHC2's merge levels, whose
	// scopes are unions of colour classes, fall back to it from the first
	// level not every node vouches for (mergePhase.B). The partition's DRA
	// waits its own bound instead (see tickDRA), and the barrier measures
	// its tree.
	B int64
	// MergeLevels is how many DHC2 merge levels follow phase 1, 0 for DHC1.
	// Each node reports at the barrier how many of them it vouches for
	// (vouchedLevels).
	MergeLevels int32
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
	// colorScratch holds the distinct neighbor colors while vouchedLevels
	// runs; it is kept only so a reused program does not reallocate it.
	colorScratch []int32

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
	// scopeB is the partition's broadcast bound, announced with its size
	// (proto.Counter.Bound), and draAt the round its DRA starts: scopeB
	// rounds into the count, by when the announcement has reached the
	// whole partition tree. Both read 0 until this node's count completed.
	scopeB int64
	draAt  int64

	phase2Start int64 // common start round for Phase 2, set at barrier release
	// finishedAt is the round this node's partition DRA terminated in, and
	// arrived records its barrier arrival, one round later.
	finishedAt int64
	arrived    bool
}

// Phase boundaries, in absolute rounds (B = cfg.B, the global bound):
//
//	round 0 (Init): pick color, announce to neighbors, start global BFS
//	rounds 1..B:    global BFS settles; round 1 records neighbor colors and
//	                starts the scoped election
//	rounds 2..B+1:  scoped election settles
//	round B+2:      scope leader starts the partition BFS
//	rounds B+3..2B+2: partition BFS settles
//	round 2B+3:     partition size convergecast begins; it carries the
//	                partition tree's depth d up and announces the
//	                partition's bound Bp = 2d+1 down with the size, which
//	                reaches the whole partition by round 2B+3+2d
//	round 2B+3+Bp:  the partition's DRA begins (adaptive length, restarts
//	                included: see dra.State), waiting Bp after each
//	                rotation and 2Bp+2 before a restart; a node the count
//	                never reached waits until 4B+8, as if d were B+2
//	then:           global barrier 0, which each node arrives at one round
//	                after its partition finished, carrying the larger of Bp
//	                and its global tree level's bound, and 0 if the
//	                partition failed, else 1 + the merge levels it vouches
//	                for; Phase 2 starts at barrier.StartRound(0) if every
//	                partition succeeded (everySucceeded). DHC1's hypernode
//	                phase times its floods by the largest bound carried
//	                (phase2B); DHC2's merge levels do too while every node
//	                vouches for them (vouchedMergeLevels), and wait the
//	                larger of that and B from the first level one does not
func (p *phase1) electStart() int64    { return 1 }
func (p *phase1) electEnd() int64      { return p.cfg.B + 1 }
func (p *phase1) scopeBFSStart() int64 { return p.cfg.B + 2 }
func (p *phase1) countStart() int64    { return 2*p.cfg.B + 3 }

// draStart is the round the partition's DRA begins at this node: its
// measured start once the count completed here, else lastDRAStart.
func (p *phase1) draStart() int64 {
	if p.draAt > 0 {
		return p.draAt
	}
	return p.lastDRAStart()
}

// lastDRAStart is the latest round any partition's DRA begins in: by then a
// count of depth up to B+2 has completed.
func (p *phase1) lastDRAStart() int64 { return 4*p.cfg.B + 8 }

// recycled returns a zero phase under cfg that keeps the backing arrays of
// p's per-port tables: init refills nbColor and the election round refills
// scopePorts, so a reused program does not reallocate them. The machines
// that point into the phase (the barrier, the counter) are set up after the
// copy, by init and tick.
func (p *phase1) recycled(cfg phase1Config) phase1 {
	return phase1{cfg: cfg, nbColor: p.nbColor, scopePorts: p.scopePorts[:0], colorScratch: p.colorScratch[:0]}
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
	p.barrier = *proto.NewBarrier(&p.globalBFS)
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
		if p.draAt == 0 && p.counter.Done() {
			p.scopeB = p.counter.Bound
			p.draAt = min(p.countStart()+p.scopeB, p.lastDRAStart())
		}
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
		// The partition times its rotations and restarts by its own
		// measured bound; a node the count never reached keeps the global
		// bound.
		p.scopeSize = 0
		if p.draAt > 0 {
			p.scopeSize = int(p.counter.Total)
		} else {
			p.scopeB = p.cfg.B
		}
		params := dra.Params{
			ScopeSize:       p.scopeSize,
			IsInitialHead:   p.leader,
			ScopePorts:      p.scopePorts,
			BroadcastRounds: p.scopeB,
			StartRound:      p.draStart(),
			Tag:             tagPhase1DRA,
		}
		p.dra = dra.NewState(ctx, params)
	}
	p.dra.Tick(ctx, inbox)
	if p.dra.Status() != dra.Running && !p.arrived {
		// In the round the partition finished, this node forwarded its
		// terminal flood on partition edges; its barrier report waits a
		// round so that the two never share an edge's budget.
		if p.finishedAt == 0 {
			p.finishedAt = ctx.Round()
		} else if ctx.Round() > p.finishedAt {
			p.arrived = true
			treeB := rotation.BroadcastBound(int(p.globalBFS.Level))
			var grade int64
			if p.succeeded() {
				grade = 1 + int64(p.vouchedLevels())
			}
			p.barrier.Arrive(ctx, 0, max(p.scopeB, treeB), grade)
		}
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
// convergecast, construct the DRA state, arrive at the barrier the round
// after the DRA ended), and the DRA declares its own wake-ups (its head's
// timer and its restarts). Everything in between —
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
	if p.dra == nil || (p.finishedAt > 0 && !p.arrived) {
		// DRA state materializes, or the barrier arrival happens, on the
		// next invocation.
		return now + 1
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
// messages instead of O(m) and settles within 2·depth < phase2B rounds.
// The root (its own parent) and unadopted nodes contribute only their
// children.
func (p *phase1) treeNeighbors(ctx *congest.Context) []graph.NodeID {
	t := &p.globalBFS
	nbrs := make([]graph.NodeID, 0, len(t.Children)+1)
	if t.Adopted() && t.Parent != ctx.ID() {
		nbrs = append(nbrs, t.Parent)
	}
	return append(nbrs, t.Children...)
}

// phase2B is the largest value any node arrived at the barrier with, so at
// least every partition's measured bound and the global tree's, 2·depth+1
// for the tree rooted at node 0. Every partition flood and every tree flood
// therefore settles within it, which covers every flood of DHC1's hypernode
// phase; a flood over a union of partitions may need longer (mergePhase.B).
// Valid once the barrier released.
func (p *phase1) phase2B() int64 { return p.barrier.Max(0) }

// everySucceeded reports whether every partition completed its subcycle, as
// the barrier learned from the arrivals. Without that there is nothing to
// join, so Phase 2 does not run: every node halts once the barrier released
// and the run ends without a cycle. Valid once the barrier released.
func (p *phase1) everySucceeded() bool { return p.barrier.Min(0) > 0 }

// vouchedMergeLevels is how many merge levels, from level 0, every node
// vouches for (vouchedLevels). Valid once the barrier released and
// everySucceeded.
func (p *phase1) vouchedMergeLevels() int32 { return int32(p.barrier.Min(0) - 1) }

// vouchedLevels returns how many of the cfg.MergeLevels merge levels, from
// level 0, this node vouches for. Level l's scope is the colour classes c
// with c>>l == color>>l, and the node vouches for it if it has a neighbor
// in each of them but its own. When every node of a scope does, any two of
// its nodes are at most one hop plus one partition's diameter apart, so the
// scope settles within the largest partition bound (mergePhase.B). Level 0's
// scope is the node's own class, and each level's scope holds the last
// one's, so the first level it cannot vouch for ends the count.
func (p *phase1) vouchedLevels() int32 {
	levels, k := p.cfg.MergeLevels, p.cfg.NumColors
	if levels <= 1 {
		return levels
	}
	cs := p.colorScratch[:0]
	for _, c := range p.nbColor {
		if c != p.color && c >= 0 && c < k {
			cs = append(cs, c)
		}
	}
	slices.Sort(cs)
	cs = slices.Compact(cs)
	p.colorScratch = cs
	for l := int32(1); l < levels; l++ {
		lo := p.color >> l << l
		hi := min(lo+1<<l, k)
		i, _ := slices.BinarySearch(cs, lo)
		j, _ := slices.BinarySearch(cs, hi)
		if int32(j-i) < hi-lo-1 {
			return l
		}
	}
	return levels
}

// succeeded reports whether this node's partition completed its subcycle.
func (p *phase1) succeeded() bool {
	return p.dra != nil && p.dra.Status() == dra.Succeeded
}
