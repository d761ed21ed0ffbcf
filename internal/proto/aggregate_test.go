package proto

import (
	"testing"

	"dhc/internal/congest"
	"dhc/internal/graph"
	"dhc/internal/rng"
	"dhc/internal/rotation"
)

// countNode builds a BFS tree for bfsBudget rounds, then runs a Counter.
// Like every test program in this package it counts rounds, so every
// invocation re-arms a wake-up for the next round.
type countNode struct {
	bfs       *BFSState
	counter   *Counter
	bfsBudget int64
	value     int64
}

func (n *countNode) Init(ctx *congest.Context) {
	ctx.WakeAt(ctx.Round() + 1)
	n.bfs = NewBFSState(0, ctx.AllPorts())
	n.bfs.Start(ctx)
}

func (n *countNode) Round(ctx *congest.Context, inbox []congest.Envelope) {
	ctx.WakeAt(ctx.Round() + 1)
	if ctx.Round() <= n.bfsBudget {
		n.bfs.Absorb(ctx, inbox)
		return
	}
	if n.counter == nil {
		n.counter = NewCounter(n.bfs, n.value, 1)
	}
	n.counter.Tick(ctx, inbox)
	if n.counter.Done() {
		ctx.Halt()
	}
}

func TestCounterSumsTree(t *testing.T) {
	g := graph.GNP(120, 0.07, rng.New(14))
	if !g.Connected() {
		t.Skip("test graph disconnected")
	}
	progs := make([]*countNode, g.N())
	nodes := make([]congest.Node, g.N())
	wantTotal := int64(0)
	for i := range progs {
		progs[i] = &countNode{bfsBudget: int64(g.N()), value: int64(i % 5)}
		wantTotal += int64(i % 5)
		nodes[i] = progs[i]
	}
	net, err := congest.NewNetwork(g, nodes, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(3); err != nil {
		t.Fatal(err)
	}
	ecc, _ := g.Ecc(0)
	for v, p := range progs {
		if p.counter.Total != wantTotal {
			t.Fatalf("node %d learned total %d, want %d", v, p.counter.Total, wantTotal)
		}
		if want := rotation.BroadcastBound(ecc); p.counter.Bound != want {
			t.Fatalf("node %d learned bound %d, want %d (root eccentricity %d)", v, p.counter.Bound, want, ecc)
		}
	}
}

func TestCounterCountsNodes(t *testing.T) {
	// Counting with value 1 everywhere yields n — the partition-size use.
	g := graph.Ring(17)
	progs := make([]*countNode, g.N())
	nodes := make([]congest.Node, g.N())
	for i := range progs {
		progs[i] = &countNode{bfsBudget: int64(g.N()), value: 1}
		nodes[i] = progs[i]
	}
	net, err := congest.NewNetwork(g, nodes, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(4); err != nil {
		t.Fatal(err)
	}
	for v, p := range progs {
		if p.counter.Total != 17 {
			t.Fatalf("node %d counted %d, want 17", v, p.counter.Total)
		}
		if p.counter.Bound != 17 { // 2·8+1: the ring's far side is 8 hops from the root
			t.Fatalf("node %d learned bound %d, want 17", v, p.counter.Bound)
		}
	}
}

// barrierNode arrives at 3 successive barriers with node-dependent delays and
// records the rounds at which each release reached it.
type barrierNode struct {
	bfs        *BFSState
	barrier    *Barrier
	bfsBudget  int64
	arrivalGap int64
	nextSeq    int32
	releasedAt map[int32]int64
	arrivedAt  map[int32]int64
}

func (n *barrierNode) Init(ctx *congest.Context) {
	ctx.WakeAt(ctx.Round() + 1)
	n.bfs = NewBFSState(0, ctx.AllPorts())
	n.bfs.Start(ctx)
	n.releasedAt = make(map[int32]int64)
	n.arrivedAt = make(map[int32]int64)
}

func (n *barrierNode) Round(ctx *congest.Context, inbox []congest.Envelope) {
	ctx.WakeAt(ctx.Round() + 1)
	if ctx.Round() <= n.bfsBudget {
		n.bfs.Absorb(ctx, inbox)
		return
	}
	if n.barrier == nil {
		n.barrier = NewBarrier(n.bfs)
	}
	n.barrier.Absorb(ctx, inbox)
	// Arrive at barrier k once the previous barrier released, after a
	// node-specific delay.
	if n.nextSeq < 3 {
		prevDone := n.nextSeq == 0 || n.barrier.Released(n.nextSeq-1)
		if prevDone {
			if n.arrivedAt[n.nextSeq] == 0 {
				n.arrivedAt[n.nextSeq] = ctx.Round() + n.arrivalGap
			}
			if ctx.Round() >= n.arrivedAt[n.nextSeq] {
				n.barrier.Arrive(ctx, n.nextSeq, int64(ctx.ID())%11, n.low(ctx.ID()))
			}
		}
	}
	for s := int32(0); s < 3; s++ {
		if n.barrier.Released(s) && n.releasedAt[s] == 0 {
			n.releasedAt[s] = ctx.Round()
			if s == n.nextSeq {
				n.nextSeq++
			}
		}
	}
	if n.nextSeq >= 3 {
		ctx.Halt()
	}
}

// low is the second value node v arrives at the next barrier with: at
// barrier s, 3+s at node 7 and more elsewhere.
func (n *barrierNode) low(v graph.NodeID) int64 {
	if v == 7 {
		return 3 + int64(n.nextSeq)
	}
	return 4 + int64(n.nextSeq) + int64(v)%5
}

func TestBarrierSequencing(t *testing.T) {
	g := graph.GNP(80, 0.1, rng.New(19))
	if !g.Connected() {
		t.Skip("test graph disconnected")
	}
	progs := make([]*barrierNode, g.N())
	nodes := make([]congest.Node, g.N())
	for i := range progs {
		progs[i] = &barrierNode{bfsBudget: int64(g.N()), arrivalGap: int64(i % 7)}
		nodes[i] = progs[i]
	}
	net, err := congest.NewNetwork(g, nodes, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(5); err != nil {
		t.Fatal(err)
	}
	// Every barrier must release at every node, and no node may see
	// barrier s released before every node arrived at s.
	for s := int32(0); s < 3; s++ {
		var maxArrive, minRelease int64
		minRelease = 1 << 60
		for _, p := range progs {
			if p.arrivedAt[s] > maxArrive {
				maxArrive = p.arrivedAt[s]
			}
			if p.releasedAt[s] == 0 {
				t.Fatalf("barrier %d never released somewhere", s)
			}
			if p.releasedAt[s] < minRelease {
				minRelease = p.releasedAt[s]
			}
		}
		if minRelease < maxArrive {
			t.Fatalf("barrier %d released at round %d before last arrival at %d",
				s, minRelease, maxArrive)
		}
		// Every node agrees on the start round, which lies after the
		// release reached every node, and on the largest arrival value.
		start := progs[0].barrier.StartRound(s)
		for v, p := range progs {
			if got := p.barrier.StartRound(s); got != start || p.releasedAt[s] >= start {
				t.Fatalf("barrier %d: node %d released at %d with start round %d, node 0's %d",
					s, v, p.releasedAt[s], got, start)
			}
			if got := p.barrier.Max(s); got != 10 {
				t.Fatalf("barrier %d: node %d learned max %d, want 10", s, v, got)
			}
			if got, want := p.barrier.Min(s), int64(3+s); got != want {
				t.Fatalf("barrier %d: node %d learned min %d, want %d", s, v, got, want)
			}
		}
	}
}
