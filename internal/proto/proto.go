// Package proto implements the reusable distributed primitives the paper's
// algorithms are built from: leader election by minimum-id flooding, BFS-tree
// construction, convergecast counting and a tree barrier. All primitives run
// in the CONGEST model via package congest and are written as embeddable
// state machines so algorithm nodes can compose them.
//
// A flood's scope is a port list: Flooder and BFSState flood with one
// congest.Context.SendPorts call over their Ports — ctx.AllPorts() for the
// whole graph, a colour class's ports for the subgraph the class induces.
//
// Activity contract (for the event-driven simulator): every machine in this
// package is message-driven after its start call — an Absorb/Tick with an
// empty inbox is a no-op — with exactly two empty-inbox obligations the
// embedder must cover with congest.Context.WakeAt wake-ups: the round a
// machine is started in (Flooder.Start, BFSState.Start, the first
// Counter.Tick, which sends a leaf's count upward unprompted), and any
// deadline the embedder itself imposes (e.g. "read Flooder.Best after D
// rounds").
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
// flooding: every node forwards each improvement of the smallest id it has
// seen on its Ports. Callers that know an upper bound D on the diameter of
// the subgraph the ports span run it for D rounds from Start; then every
// node's Best is that subgraph's minimum id, and the node it names leads.
type Flooder struct {
	// Best is the smallest id heard so far (initially the node's own).
	Best graph.NodeID
	// Ports are the ports (indices into ctx.Neighbors()) it floods on.
	Ports []int32
}

// NewFlooder initializes election state for the given node over ports.
func NewFlooder(self graph.NodeID, ports []int32) *Flooder {
	return &Flooder{Best: self, Ports: ports}
}

// Start sends the initial candidate on every port. Call in the round the
// election begins.
func (f *Flooder) Start(ctx *congest.Context) {
	f.sendBest(ctx)
}

// Absorb processes this round's candidate messages and forwards improvements.
// It returns true if Best changed.
func (f *Flooder) Absorb(ctx *congest.Context, inbox []congest.Envelope) bool {
	if !ctx.Received(wire.KindCandidate) {
		return false
	}
	improved := false
	for _, env := range inbox {
		if env.Msg.Kind != wire.KindCandidate {
			continue
		}
		if c := graph.NodeID(env.Msg.Arg(0)); c < f.Best {
			f.Best = c
			improved = true
		}
	}
	if improved {
		f.sendBest(ctx)
	}
	return improved
}

func (f *Flooder) sendBest(ctx *congest.Context) {
	ctx.SendPorts(f.Ports, -1, wire.Msg(wire.KindCandidate, int32(f.Best)))
}

// BFSState is a per-node state machine that builds a BFS tree rooted at a
// designated node over the edges on its Ports. The root sends
// KindBFSExplore in its start round; every node adopts the first explorer
// heard (ties broken by smallest sender id, which the simulator's sorted
// inboxes give us for free) and forwards the exploration. Children
// acknowledge adoption so parents learn their subtree edges.
type BFSState struct {
	Root     graph.NodeID
	Parent   graph.NodeID // -1 until adopted
	Level    int32        // hop distance from root; -1 until adopted
	Children []graph.NodeID
	// Ports are the ports (indices into ctx.Neighbors()) it explores on.
	Ports []int32
	// Tag distinguishes concurrent BFS instances (e.g. the global tree vs
	// per-partition trees); explore/ack messages carry it.
	Tag int32
}

// NewBFSState returns idle BFS state over ports; the root adopts itself at
// Start.
func NewBFSState(root graph.NodeID, ports []int32) *BFSState {
	return &BFSState{Root: root, Parent: -1, Level: -1, Ports: ports}
}

func (b *BFSState) sendExplore(ctx *congest.Context, except graph.NodeID) {
	ctx.SendPorts(b.Ports, except, wire.Msg(wire.KindBFSExplore, b.Level, b.Tag))
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
