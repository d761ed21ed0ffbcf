// Package proto implements the reusable distributed primitives the paper's
// algorithms are built from: leader election by minimum-id flooding, BFS-tree
// construction, convergecast counting and a tree barrier. All primitives run
// in the CONGEST model via package congest and are written as embeddable
// state machines so algorithm nodes can compose them.
//
// Activity contract (for the event-driven simulator): every machine in this
// package is message-driven after its start call — an Absorb/Tick with an
// empty inbox is a no-op — with exactly two empty-inbox obligations the
// embedder must cover with congest.Context.WakeAt wake-ups: the round a
// machine is started in (Flooder.Start, BFSState.Start, the first
// Counter.Tick, which sends a leaf's count upward unprompted), and any
// deadline the embedder itself imposes (e.g. "read Leader after D rounds").
// Barrier.Arrive is driven by the embedder's own progress and so needs no
// wake-up of its own.
//
// The same holds per kind: an Absorb/Tick whose inbox holds none of the
// machine's message kinds is a no-op, and congest.Context.Received is how it
// knows without scanning. Every machine checks its kinds first and returns at
// once when none is present, so an embedder may hand each machine the full
// inbox every round and pay only for the messages that machine consumes.
package proto

import (
	"dhc/internal/congest"
	"dhc/internal/graph"
	"dhc/internal/wire"
)

// Flooder is a per-node state machine implementing min-id leader election by
// flooding: every node repeatedly forwards the smallest candidate id it has
// seen. After Rounds() rounds with no new information for `patience` rounds,
// the node with id == minimum considers itself leader.
//
// In a connected graph, flooding stabilizes after diameter rounds; callers
// that know an upper bound D on the diameter should run the flooder for D
// rounds and then read Leader.
type Flooder struct {
	// Best is the smallest id heard so far (initially the node's own).
	Best graph.NodeID
	// changed reports whether Best improved last round.
	changed bool
}

// NewFlooder initializes election state for the given node.
func NewFlooder(self graph.NodeID) *Flooder {
	return &Flooder{Best: self, changed: true}
}

// Start sends the initial candidate to all neighbors. Call from Init.
func (f *Flooder) Start(ctx *congest.Context) {
	f.sendBest(ctx)
	f.changed = false
}

// Absorb processes this round's candidate messages and forwards improvements.
// It returns true if Best changed.
func (f *Flooder) Absorb(ctx *congest.Context, inbox []congest.Envelope) bool {
	improved := false
	if ctx.Received(wire.KindCandidate) {
		for _, env := range inbox {
			if env.Msg.Kind != wire.KindCandidate {
				continue
			}
			if c := graph.NodeID(env.Msg.Arg(0)); c < f.Best {
				f.Best = c
				improved = true
			}
		}
	}
	if improved {
		f.sendBest(ctx)
	}
	f.changed = improved
	return improved
}

// sendBest sends the current candidate on every incident edge.
func (f *Flooder) sendBest(ctx *congest.Context) {
	ctx.SendPorts(ctx.AllPorts(), -1, wire.Msg(wire.KindCandidate, int32(f.Best)))
}

// BFSState is a per-node state machine that builds a BFS tree rooted at a
// designated node. The root sends KindBFSExplore in its start round; every
// node adopts the first explorer heard (ties broken by smallest sender id,
// which the simulator's sorted inboxes give us for free) and forwards the
// exploration. Children acknowledge adoption so parents learn their subtree
// edges.
type BFSState struct {
	Root     graph.NodeID
	Parent   graph.NodeID // -1 until adopted
	Level    int32        // hop distance from root; -1 until adopted
	Children []graph.NodeID
	// InScope, if non-nil, restricts the tree to a vertex subset: explore
	// messages are only sent on ports (indices into ctx.Neighbors()) it
	// reports in scope (DHC builds one tree per partition).
	InScope func(port int) bool
	// Tag distinguishes concurrent BFS instances (e.g. the global tree vs
	// per-partition trees); explore/ack messages carry it.
	Tag int32
}

// NewBFSState returns idle BFS state; the root adopts itself at Start.
func NewBFSState(root graph.NodeID) *BFSState {
	return &BFSState{Root: root, Parent: -1, Level: -1}
}

// NewScopedBFSState returns BFS state restricted to the neighbors on the
// ports inScope accepts.
func NewScopedBFSState(root graph.NodeID, inScope func(port int) bool) *BFSState {
	return &BFSState{Root: root, Parent: -1, Level: -1, InScope: inScope}
}

func (b *BFSState) sendExplore(ctx *congest.Context, except graph.NodeID) {
	for port, nb := range ctx.Neighbors() {
		if nb == except {
			continue
		}
		if b.InScope != nil && !b.InScope(port) {
			continue
		}
		ctx.SendPort(port, wire.Msg(wire.KindBFSExplore, b.Level, b.Tag))
	}
}

// Start begins exploration if this node is the root. Call from the round the
// BFS should begin.
func (b *BFSState) Start(ctx *congest.Context) {
	if ctx.ID() != b.Root {
		return
	}
	b.Parent = b.Root
	b.Level = 0
	b.sendExplore(ctx, -1)
}

// Absorb processes explore/ack messages for one round. It returns true if the
// node adopted a parent this round. After the BFS has quiesced (2*depth
// rounds), Parent/Level/Children are final.
func (b *BFSState) Absorb(ctx *congest.Context, inbox []congest.Envelope) bool {
	if !ctx.Received(wire.KindBFSExplore) && !ctx.Received(wire.KindBFSAck) {
		return false
	}
	adopted := false
	for _, env := range inbox {
		switch env.Msg.Kind {
		case wire.KindBFSExplore:
			if env.Msg.Arg(1) != b.Tag {
				continue
			}
			if b.Parent < 0 {
				b.Parent = env.From
				b.Level = env.Msg.Arg(0) + 1
				adopted = true
				ctx.Send(env.From, wire.Msg(wire.KindBFSAck, 0, b.Tag))
				b.sendExplore(ctx, env.From)
			}
		case wire.KindBFSAck:
			if env.Msg.Arg(1) != b.Tag {
				continue
			}
			b.Children = append(b.Children, env.From)
		}
	}
	return adopted
}

// Adopted reports whether this node has joined the tree.
func (b *BFSState) Adopted() bool { return b.Parent >= 0 }

// IsRoot reports whether this node is the tree root.
func (b *BFSState) IsRoot(self graph.NodeID) bool { return self == b.Root }
