// Package upcast implements the centralized algorithm of paper Section III:
// elect a leader, build a BFS tree, have every node sample Θ(log n) of its
// incident edges and upcast them to the root through the tree (pipelined,
// one message per tree edge per round), let the root compute a Hamiltonian
// cycle locally on the sampled subgraph, and downcast each node's cycle
// successor back along the tree.
//
// The algorithm works in the CONGEST model but is deliberately NOT fully
// distributed: the root stores Θ(n log n) words (every sampled edge) and
// internal tree nodes keep routing tables proportional to their subtree
// size. The memory metering exposes exactly this imbalance — experiment E7
// contrasts it with DHC1/DHC2.
package upcast

import (
	"errors"
	"fmt"
	"math"

	"dhc/internal/congest"
	"dhc/internal/cycle"
	"dhc/internal/graph"
	"dhc/internal/proto"
	"dhc/internal/rotation"
	"dhc/internal/wire"
)

// ErrNoHC is returned when the root cannot find a Hamiltonian cycle in the
// sampled subgraph.
var ErrNoHC = errors.New("upcast: sampled subgraph has no Hamiltonian cycle")

const treeTag int32 = 3

// SamplesPerNode returns c'·log n at c' = 3, ⌈3·ln n⌉: the number of incident
// edges each node samples (capped by its degree). The step engine's Upcast
// charges the same sample.
func SamplesPerNode(n int) int { return int(math.Ceil(3 * math.Log(float64(n)))) }

// RootAttempts is how many times the root retries the local rotation
// algorithm on the sampled subgraph (local computation is free in CONGEST).
// The step engine's Upcast retries as often.
const RootAttempts = 20

// node is the per-node program.
type node struct {
	b int64 // the graph's broadcast bound: election and BFS settling

	flood *proto.Flooder
	tree  *proto.BFSState
	count *proto.Counter

	samples []graph.Edge // own sampled incident edges
	queue   []wire.Message
	// route[v] is the child whose subtree contains v (root + internal).
	route map[graph.NodeID]graph.NodeID
	// root-only state
	collected []graph.Edge
	expect    int64
	solved    bool
	failed    bool

	// downcast output
	succ     graph.NodeID
	haveSucc bool
	doneSent bool
	childQ   map[graph.NodeID][]wire.Message
}

var _ congest.Node = (*node)(nil)

func (u *node) electEnd() int64   { return u.b + 1 }
func (u *node) bfsEnd() int64     { return 2*u.b + 1 }
func (u *node) countStart() int64 { return 2*u.b + 2 }
func (u *node) upcastAt() int64   { return 4*u.b + 8 }

func (u *node) Init(ctx *congest.Context) {
	u.flood = proto.NewFlooder(ctx.ID(), ctx.AllPorts())
	u.flood.Start(ctx)
	u.succ = -1
	u.route = make(map[graph.NodeID]graph.NodeID)
	u.childQ = make(map[graph.NodeID][]wire.Message)
	u.armWake(ctx)
}

func (u *node) Round(ctx *congest.Context, inbox []congest.Envelope) {
	round := ctx.Round()
	switch {
	case round <= u.electEnd():
		u.flood.Absorb(ctx, inbox)
		if round == u.electEnd() {
			u.tree = proto.NewBFSState(u.flood.Best, ctx.AllPorts())
			u.tree.Tag = treeTag
			u.tree.Start(ctx)
		}
	case round <= u.bfsEnd():
		u.tree.Absorb(ctx, inbox)
	case round == u.countStart():
		u.pickSamples(ctx)
		own := int64(len(u.samples))
		if u.isRoot(ctx) {
			own = 0 // the root keeps its samples local
		}
		u.count = proto.NewCounter(u.tree, own, treeTag)
		u.count.Tick(ctx, inbox)
	case round < u.upcastAt():
		u.count.Tick(ctx, inbox)
	default:
		u.tickUpcast(ctx, inbox)
	}
	u.observeMemory(ctx)
	if !ctx.Halted() {
		u.armWake(ctx)
	}
}

// armWake declares the wake-up discipline: the three phase boundaries
// (tree construction, sample pick + convergecast seed, upcast start)
// perform empty-inbox work at every node, and the pipeline phase keeps a
// node live while it has queued traffic to forward — or, at the root, a
// solve still pending — since pipelined sends happen one per round without
// any triggering delivery. Between those points the node is message-driven.
func (u *node) armWake(ctx *congest.Context) {
	round := ctx.Round()
	switch {
	case round < u.electEnd():
		ctx.WakeAt(u.electEnd())
	case round < u.countStart():
		ctx.WakeAt(u.countStart())
	case round < u.upcastAt():
		ctx.WakeAt(u.upcastAt())
	default:
		busy := len(u.queue) > 0 || (u.isRoot(ctx) && !u.solved)
		if !busy {
			for _, q := range u.childQ {
				if len(q) > 0 {
					busy = true
					break
				}
			}
		}
		if busy {
			ctx.WakeAt(round + 1)
		}
	}
}

func (u *node) isRoot(ctx *congest.Context) bool {
	return u.tree != nil && u.tree.IsRoot(ctx.ID())
}

// pickSamples draws SamplesPerNode(n) distinct incident edges uniformly.
func (u *node) pickSamples(ctx *congest.Context) {
	nbs := ctx.Neighbors()
	k := SamplesPerNode(ctx.N())
	if k >= len(nbs) {
		for _, nb := range nbs {
			u.samples = append(u.samples, graph.Edge{U: ctx.ID(), V: nb})
		}
		return
	}
	perm := ctx.Rand().Perm(len(nbs))
	for _, i := range perm[:k] {
		u.samples = append(u.samples, graph.Edge{U: ctx.ID(), V: nbs[i]})
	}
}

// tickUpcast runs the pipelined upcast, root solve, and downcast.
func (u *node) tickUpcast(ctx *congest.Context, inbox []congest.Envelope) {
	round := ctx.Round()
	if round == u.upcastAt() {
		// Enqueue own samples (origin = self) for the parent.
		if !u.isRoot(ctx) {
			for _, e := range u.samples {
				u.queue = append(u.queue, wire.Msg(wire.KindEdgeSample,
					int32(e.U), int32(e.V), int32(ctx.ID())))
			}
		} else {
			u.expect = u.count.Total
			u.collected = append(u.collected, u.samples...)
			u.route[ctx.ID()] = ctx.ID()
		}
	}
	if ctx.Received(wire.KindEdgeSample) || ctx.Received(wire.KindHCEdge) ||
		ctx.Received(wire.KindBroadcast) || ctx.Received(wire.KindSuccess) {
		u.absorb(ctx, inbox)
	}
	if u.failed {
		ctx.Halt()
		return
	}
	// Root: solve once everything arrived.
	if u.isRoot(ctx) && !u.solved && u.expect <= 0 && round > u.upcastAt() {
		u.solveAtRoot(ctx)
		if u.failed {
			// The failure flood is out; the root has nothing left to send.
			ctx.Halt()
			return
		}
	}
	// Pipelined forwarding: one message per edge per round.
	if len(u.queue) > 0 && !u.isRoot(ctx) {
		ctx.Send(u.tree.Parent, u.queue[0])
		u.queue = u.queue[1:]
	}
	doneAllChildren := true
	for _, child := range u.tree.Children {
		q := u.childQ[child]
		if len(q) == 0 {
			continue
		}
		ctx.Send(child, q[0])
		u.childQ[child] = q[1:]
		if len(q) > 1 || q[0].Kind != wire.KindBroadcast {
			doneAllChildren = false
		}
	}
	// Halt when our successor arrived, the done marker passed through, and
	// all queues drained.
	if u.haveSucc && u.doneSent && doneAllChildren && len(u.queue) == 0 {
		ctx.Halt()
	}
}

// absorb consumes this round's upcast traffic: samples to route upward or
// collect, cycle edges to route downward, the done marker and the failure
// flood.
func (u *node) absorb(ctx *congest.Context, inbox []congest.Envelope) {
	for _, env := range inbox {
		switch env.Msg.Kind {
		case wire.KindEdgeSample:
			origin := graph.NodeID(env.Msg.Arg(2))
			u.route[origin] = env.From
			if u.isRoot(ctx) {
				u.collected = append(u.collected,
					graph.Edge{U: graph.NodeID(env.Msg.Arg(0)), V: graph.NodeID(env.Msg.Arg(1))})
				u.expect--
			} else {
				u.queue = append(u.queue, env.Msg)
			}
		case wire.KindHCEdge:
			v := graph.NodeID(env.Msg.Arg(0))
			if v == ctx.ID() {
				u.succ = graph.NodeID(env.Msg.Arg(1))
				u.haveSucc = true
			} else if child, ok := u.route[v]; ok {
				u.childQ[child] = append(u.childQ[child], env.Msg)
			}
		case wire.KindBroadcast:
			// Done marker: enqueue behind routed traffic on every child.
			for _, child := range u.tree.Children {
				u.childQ[child] = append(u.childQ[child], env.Msg)
			}
			u.doneSent = true
		case wire.KindSuccess:
			// Failure flood from the root: forward the first copy only, so
			// copies arriving together do not share an edge in one round.
			if !u.failed {
				u.failed = true
				forward(ctx, env.Msg, env.From)
			}
		}
	}
}

// solveAtRoot builds the sampled subgraph, runs the sequential rotation
// algorithm (with retries — local computation is free in the model), and
// starts the downcast.
func (u *node) solveAtRoot(ctx *congest.Context) {
	u.solved = true
	sampled := graph.FromEdges(ctx.N(), u.collected)
	var hc *cycle.Cycle
	for a := 0; a < RootAttempts; a++ {
		c, _, err := rotation.Solve(sampled, ctx.Rand(), rotation.Config{})
		if err == nil {
			hc = c
			break
		}
	}
	if hc == nil {
		u.failed = true
		forward(ctx, wire.Msg(wire.KindSuccess, 0, treeTag), -1)
		return
	}
	// Walk the cycle in order, not a successor map, so every run queues the
	// downcast — and so puts it on the wire — in the same order.
	order := hc.Order()
	for i, v := range order {
		if v == ctx.ID() {
			u.succ = hc.At(i + 1)
		}
	}
	u.haveSucc = true
	for i, v := range order {
		if v == ctx.ID() {
			continue
		}
		s := hc.At(i + 1)
		child, ok := u.route[v]
		if !ok {
			// A node whose samples never reached us (possible only if it
			// had none); without a route the downcast cannot complete.
			u.failed = true
			forward(ctx, wire.Msg(wire.KindSuccess, 0, treeTag), -1)
			return
		}
		u.childQ[child] = append(u.childQ[child], wire.Msg(wire.KindHCEdge, int32(v), int32(s)))
	}
	for _, child := range u.tree.Children {
		u.childQ[child] = append(u.childQ[child], wire.Msg(wire.KindBroadcast, 1, treeTag))
	}
	u.doneSent = true
}

func (u *node) observeMemory(ctx *congest.Context) {
	words := int64(len(u.samples)*2+len(u.queue)*3+len(u.route)) + 16
	words += int64(len(u.collected) * 2)
	for _, q := range u.childQ {
		words += int64(len(q)) * 2
	}
	ctx.ObserveMemory(words)
}

func forward(ctx *congest.Context, m wire.Message, except graph.NodeID) {
	ctx.SendPorts(ctx.AllPorts(), except, m)
}

// Session is a reusable Upcast program set: the per-node program slice
// survives across Run calls.
type Session = congest.Session[node, *node]

// NewSession returns an empty Upcast session; the first Run sizes it.
func NewSession() *Session {
	return congest.NewSession[node]("upcast", new(algorithm))
}

// algorithm is Upcast's part of a Session: b is the current graph's
// broadcast bound.
type algorithm struct{ b int64 }

// Bind implements congest.Algorithm.
func (a *algorithm) Bind(g *graph.Graph, b int64, netOpts *congest.Options) error {
	n := g.N()
	a.b = b
	if netOpts.MaxRounds == 0 {
		// Upcast/downcast move O(n log n) messages over the root edges in
		// the worst (star) case.
		netOpts.MaxRounds = 8*b + int64(n)*int64(SamplesPerNode(n)+2) + 4096
	}
	return nil
}

// Recycle implements congest.Algorithm. The program's routing maps and queues
// are rebuilt by Init; a fresh value drops the previous trial's state.
func (a *algorithm) Recycle(p *node) { *p = node{b: a.b} }

// Extract implements congest.Algorithm: the downcast successors form the
// cycle.
func (a *algorithm) Extract(g *graph.Graph, progs []*node, res *congest.Result) error {
	succ := make([]graph.NodeID, len(progs))
	for v, p := range progs {
		if p.failed {
			return fmt.Errorf("%w (node %d saw failure flood)", ErrNoHC, v)
		}
		if !p.haveSucc {
			return fmt.Errorf("upcast: node %d never received its successor", v)
		}
		succ[v] = p.succ
	}
	var err error
	if res.Cycle, err = cycle.FromVerifiedSuccessors(g, succ); err != nil {
		return fmt.Errorf("upcast: %w", err)
	}
	return nil
}
