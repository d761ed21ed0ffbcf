package proto

import (
	"math"

	"dhc/internal/congest"
	"dhc/internal/rotation"
	"dhc/internal/wire"
)

// Counter performs a convergecast sum over a settled BFS tree followed by a
// downward announcement of the total: leaves report their value to their
// parent; internal nodes forward the subtree sum once every child reported;
// the root adds its own value and floods the total down the tree. The DHC
// algorithms use it to count partition sizes (the |V| input of Algorithm 1's
// success test), and Upcast uses the same shape for congestion-free
// aggregation.
//
// The same messages measure the tree: each report also carries the deepest
// level of its subtree, so the root learns the tree's depth d, its own
// eccentricity in the tree's scope, and announces the scope's broadcast
// bound 2·d+1 (rotation.BroadcastBound) with the total. A scope of diameter
// at most 2·d settles any broadcast within that bound, whichever member
// starts it; the DHC partitions time their rotations by it.
//
// Values must fit in int32 (they are vertex counts, bounded by n, so they
// respect the CONGEST word size).
type Counter struct {
	tree    *BFSState
	tag     int32
	value   int64
	reports int
	sum     int64
	depth   int32 // deepest tree level in this node's subtree reported so far
	sentUp  bool
	// Total is the tree-wide sum, or -1 until the announcement arrives.
	Total int64
	// Bound is the tree scope's broadcast bound, 2·depth+1, announced with
	// Total; it is valid once Done.
	Bound int64
}

// NewCounter creates a counter over a final BFS tree. ownValue is this
// node's contribution; tag separates concurrent/sequential counting sessions.
func NewCounter(tree *BFSState, ownValue int64, tag int32) *Counter {
	return &Counter{tree: tree, tag: tag, value: ownValue, Total: -1}
}

// Tick processes one round. Call every round (with that round's inbox) from
// the first round after the tree is final until Total >= 0 at every node;
// that takes at most 2*depth+1 rounds. Only the first call performs
// empty-inbox work (a childless node reports its own value unprompted), so
// under event-driven execution the embedder schedules a wake-up for the
// starting round and lets deliveries drive the rest.
func (c *Counter) Tick(ctx *congest.Context, inbox []congest.Envelope) {
	if ctx.Received(wire.KindCount) || ctx.Received(wire.KindSizeAnnounce) {
		c.absorb(ctx, inbox)
	}
	if !c.sentUp && c.reports == len(c.tree.Children) {
		subtree := c.sum + c.value
		depth := max(c.depth, c.tree.Level)
		c.sentUp = true
		if c.tree.IsRoot(ctx.ID()) {
			c.Total = subtree
			c.Bound = rotation.BroadcastBound(int(depth))
			c.announceDown(ctx)
		} else {
			ctx.Send(c.tree.Parent, wire.Msg(wire.KindCount, int32(subtree), c.tag, depth))
		}
	}
}

func (c *Counter) absorb(ctx *congest.Context, inbox []congest.Envelope) {
	for _, env := range inbox {
		switch env.Msg.Kind {
		case wire.KindCount:
			if env.Msg.Arg(1) == c.tag {
				c.sum += int64(env.Msg.Arg(0))
				c.depth = max(c.depth, env.Msg.Arg(2))
				c.reports++
			}
		case wire.KindSizeAnnounce:
			if env.Msg.Arg(1) == c.tag && c.Total < 0 {
				c.Total = int64(env.Msg.Arg(0))
				c.Bound = int64(env.Msg.Arg(2))
				c.announceDown(ctx)
			}
		}
	}
}

func (c *Counter) announceDown(ctx *congest.Context) {
	for _, child := range c.tree.Children {
		ctx.Send(child, wire.Msg(wire.KindSizeAnnounce, int32(c.Total), c.tag, int32(c.Bound)))
	}
}

// Done reports whether this node knows the total.
func (c *Counter) Done() bool { return c.Total >= 0 }

// Barrier synchronizes global phase transitions over a network-wide BFS
// tree: every node Arrives at numbered barriers in order, with two values; a
// node reports "subtree at barrier s" to its parent once it has arrived and
// all children reported, carrying the largest first value, the smallest
// second value and the deepest tree level of its subtree; the root then
// releases the barrier down the tree with the tree-wide largest and
// smallest. One barrier costs O(tree depth) rounds — within the paper's
// round budgets, which are all Ω(diameter) — and the reports measure that
// depth, so the release needs no bound on it.
type Barrier struct {
	tree *BFSState
	seqs map[int32]*barrierSeq
	// words is MemoryWords: one word per fact recorded across all
	// barriers (a child report seen, arrived, reported up, released).
	words int64
}

// barrierSeq is one barrier's state at this node.
type barrierSeq struct {
	childReports int
	arrived      bool
	sentUp       bool
	released     bool
	startRound   int64
	// max is the largest first value arrived with in this node's subtree
	// so far, and after the release the tree-wide largest; min is the
	// smallest second value, likewise; depth is the deepest tree level
	// reported from the subtree so far.
	max, min int64
	depth    int32
}

// NewBarrier creates barrier state over a final BFS tree.
func NewBarrier(tree *BFSState) *Barrier {
	return &Barrier{tree: tree, seqs: make(map[int32]*barrierSeq)}
}

// seq returns barrier seq's state, creating it on first use.
func (b *Barrier) seq(seq int32) *barrierSeq {
	st := b.seqs[seq]
	if st == nil {
		st = &barrierSeq{min: math.MaxInt32}
		b.seqs[seq] = st
	}
	return st
}

// Arrive marks this node's arrival at barrier seq with two non-negative
// values that fit in int32: hi joins the tree-wide largest (Max), lo the
// tree-wide smallest (Min). It is idempotent: a second arrival changes
// nothing.
func (b *Barrier) Arrive(ctx *congest.Context, seq int32, hi, lo int64) {
	st := b.seq(seq)
	if st.arrived {
		return
	}
	st.arrived = true
	st.max = max(st.max, hi)
	st.min = min(st.min, lo)
	b.words++
	b.maybeSendUp(ctx, seq, st)
}

// Absorb processes barrier traffic for one round.
func (b *Barrier) Absorb(ctx *congest.Context, inbox []congest.Envelope) {
	if !ctx.Received(wire.KindBarrierUp) && !ctx.Received(wire.KindBarrierGo) {
		return
	}
	for _, env := range inbox {
		seq := env.Msg.Arg(0)
		switch env.Msg.Kind {
		case wire.KindBarrierUp:
			st := b.seq(seq)
			if st.childReports == 0 {
				b.words++
			}
			st.childReports++
			st.max = max(st.max, int64(env.Msg.Arg(1)))
			st.min = min(st.min, int64(env.Msg.Arg(3)))
			st.depth = max(st.depth, env.Msg.Arg(2))
			b.maybeSendUp(ctx, seq, st)
		case wire.KindBarrierGo:
			st := b.seq(seq)
			if !st.released {
				st.max, st.min = int64(env.Msg.Arg(2)), int64(env.Msg.Arg(3))
				b.release(ctx, seq, st, int64(env.Msg.Arg(1)))
			}
		}
	}
}

func (b *Barrier) maybeSendUp(ctx *congest.Context, seq int32, st *barrierSeq) {
	if st.sentUp || !st.arrived || st.childReports != len(b.tree.Children) {
		return
	}
	st.sentUp = true
	b.words++
	depth := max(st.depth, b.tree.Level)
	if b.tree.IsRoot(ctx.ID()) {
		// The release reaches a node at level k k rounds from now and is
		// read in that round, so the next phase starts one round after it
		// reached the deepest node.
		b.release(ctx, seq, st, ctx.Round()+int64(depth)+1)
	} else if b.tree.Adopted() {
		ctx.Send(b.tree.Parent, wire.Msg(wire.KindBarrierUp, seq, int32(st.max), depth, int32(st.min)))
	}
	// A node the tree never adopted (disconnected from the root) has nowhere
	// to report; it stays silent and the barrier never releases, so the run
	// ends at its round budget — the correct verdict on a network that
	// cannot agree on anything, and one the model allows us to observe.
}

// release records barrier seq released at startRound, with the tree-wide
// largest and smallest already in st, and passes it on to the children.
func (b *Barrier) release(ctx *congest.Context, seq int32, st *barrierSeq, startRound int64) {
	st.released = true
	b.words++
	st.startRound = startRound
	for _, child := range b.tree.Children {
		ctx.Send(child, wire.Msg(wire.KindBarrierGo, seq, int32(startRound), int32(st.max), int32(st.min)))
	}
}

// Released reports whether barrier seq has been released at this node.
func (b *Barrier) Released(seq int32) bool {
	st := b.seqs[seq]
	return st != nil && st.released
}

// StartRound returns the common round at which the phase following barrier
// seq begins (valid once Released(seq) is true). Every node receives the same
// value, giving the network a synchronized phase boundary.
func (b *Barrier) StartRound(seq int32) int64 {
	if st := b.seqs[seq]; st != nil {
		return st.startRound
	}
	return 0
}

// Max returns the largest hi any node arrived at barrier seq with (valid once
// Released(seq) is true); every node receives the same value.
func (b *Barrier) Max(seq int32) int64 {
	if st := b.seqs[seq]; st != nil {
		return st.max
	}
	return 0
}

// Min returns the smallest lo any node arrived at barrier seq with (valid
// once Released(seq) is true); every node receives the same value.
func (b *Barrier) Min(seq int32) int64 {
	if st := b.seqs[seq]; st != nil {
		return st.min
	}
	return 0
}

// MemoryWords estimates retained state for metering: one word per recorded
// fact, kept as a running count so reading it costs nothing.
func (b *Barrier) MemoryWords() int64 { return b.words }
