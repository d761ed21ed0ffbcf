package proto

import (
	"testing"

	"dhc/internal/congest"
	"dhc/internal/graph"
	"dhc/internal/rng"
	"dhc/internal/wire"
)

// electNode runs a Flooder for a fixed number of rounds then halts. The test
// programs in this file count rounds, so every invocation re-arms a wake-up
// for the next round.
type electNode struct {
	f      *Flooder
	rounds int
	budget int
}

func (e *electNode) Init(ctx *congest.Context) {
	ctx.WakeAt(ctx.Round() + 1)
	e.f = NewFlooder(ctx.ID())
	e.f.Start(ctx)
}

func (e *electNode) Round(ctx *congest.Context, inbox []congest.Envelope) {
	ctx.WakeAt(ctx.Round() + 1)
	e.f.Absorb(ctx, inbox)
	e.rounds++
	if e.rounds >= e.budget {
		ctx.Halt()
	}
}

func TestLeaderElection(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"ring", graph.Ring(16)},
		{"path", graph.Path(10)},
		{"gnp", graph.GNP(100, 0.08, rng.New(4))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.g.Connected() {
				t.Skip("test graph disconnected")
			}
			progs := make([]*electNode, tc.g.N())
			nodes := make([]congest.Node, tc.g.N())
			for i := range progs {
				progs[i] = &electNode{budget: tc.g.N()} // >= diameter
				nodes[i] = progs[i]
			}
			net, err := congest.NewNetwork(tc.g, nodes, congest.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := net.Run(1); err != nil {
				t.Fatal(err)
			}
			leaders := 0
			for i, p := range progs {
				if p.f.Best != 0 {
					t.Fatalf("node %d converged to %d, want 0", i, p.f.Best)
				}
				if p.f.IsLeader(graph.NodeID(i)) {
					leaders++
				}
			}
			if leaders != 1 {
				t.Fatalf("%d leaders, want exactly 1", leaders)
			}
		})
	}
}

// bfsNode runs BFSState for a fixed budget.
type bfsNode struct {
	b      *BFSState
	rounds int
	budget int
}

func (n *bfsNode) Init(ctx *congest.Context) {
	ctx.WakeAt(ctx.Round() + 1)
	n.b = NewBFSState(0)
	n.b.Start(ctx)
}

func (n *bfsNode) Round(ctx *congest.Context, inbox []congest.Envelope) {
	ctx.WakeAt(ctx.Round() + 1)
	n.b.Absorb(ctx, inbox)
	n.rounds++
	if n.rounds >= n.budget {
		ctx.Halt()
	}
}

func TestBFSTreeLevelsMatchGraphDistances(t *testing.T) {
	g := graph.GNP(150, 0.06, rng.New(9))
	if !g.Connected() {
		t.Skip("test graph disconnected")
	}
	want := g.BFS(0)
	progs := make([]*bfsNode, g.N())
	nodes := make([]congest.Node, g.N())
	for i := range progs {
		progs[i] = &bfsNode{budget: g.N()}
		nodes[i] = progs[i]
	}
	net, err := congest.NewNetwork(g, nodes, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(2); err != nil {
		t.Fatal(err)
	}
	for v, p := range progs {
		if !p.b.Adopted() {
			t.Fatalf("node %d never adopted a parent", v)
		}
		if int(p.b.Level) != want.Dist[v] {
			t.Fatalf("node %d level %d, BFS distance %d", v, p.b.Level, want.Dist[v])
		}
		if v != 0 {
			// Parent must be one level closer and adjacent.
			par := p.b.Parent
			if want.Dist[par] != want.Dist[v]-1 {
				t.Fatalf("node %d parent %d at distance %d, want %d",
					v, par, want.Dist[par], want.Dist[v]-1)
			}
			if !g.HasEdge(graph.NodeID(v), par) {
				t.Fatalf("node %d parent %d not adjacent", v, par)
			}
		}
	}
	// Children lists must mirror parent pointers.
	childCount := 0
	for v, p := range progs {
		for _, c := range p.b.Children {
			childCount++
			if progs[c].b.Parent != graph.NodeID(v) {
				t.Fatalf("node %d lists child %d whose parent is %d", v, c, progs[c].b.Parent)
			}
		}
	}
	if childCount != g.N()-1 {
		t.Fatalf("tree has %d child links, want %d", childCount, g.N()-1)
	}
}

// scopedNode floods a broadcast within its color class.
type scopedNode struct {
	color   int32
	colors  []int32
	sb      *ScopedBroadcaster
	gotMsgs []wire.Message
	rounds  int
	budget  int
}

func (s *scopedNode) Init(ctx *congest.Context) {
	ctx.WakeAt(ctx.Round() + 1)
	s.sb = NewScopedBroadcaster(func(v graph.NodeID) bool { return s.colors[v] == s.color })
	if ctx.ID() == 0 {
		s.sb.Originate(ctx, wire.Msg(wire.KindBroadcast, 7, 3))
	}
}

func (s *scopedNode) Round(ctx *congest.Context, inbox []congest.Envelope) {
	ctx.WakeAt(ctx.Round() + 1)
	s.gotMsgs = append(s.gotMsgs, s.sb.Absorb(ctx, inbox, wire.KindBroadcast)...)
	s.rounds++
	if s.rounds >= s.budget {
		ctx.Halt()
	}
}

func TestScopedBroadcastStaysInPartition(t *testing.T) {
	// Complete graph, two colors: evens (including origin 0) and odds.
	g := graph.Complete(10)
	colors := make([]int32, 10)
	for v := range colors {
		colors[v] = int32(v % 2)
	}
	progs := make([]*scopedNode, 10)
	nodes := make([]congest.Node, 10)
	for i := range progs {
		progs[i] = &scopedNode{color: colors[i], colors: colors, budget: 12}
		nodes[i] = progs[i]
	}
	net, err := congest.NewNetwork(g, nodes, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(5); err != nil {
		t.Fatal(err)
	}
	for v, p := range progs {
		inScope := colors[v] == 0 && v != 0
		if inScope && len(p.gotMsgs) != 1 {
			t.Fatalf("in-scope node %d received %d messages, want 1", v, len(p.gotMsgs))
		}
		if !inScope && v != 0 && len(p.gotMsgs) != 0 {
			t.Fatalf("out-of-scope node %d received %d messages, want 0", v, len(p.gotMsgs))
		}
	}
}

func TestScopedBroadcasterReset(t *testing.T) {
	sb := NewScopedBroadcaster(func(graph.NodeID) bool { return true })
	sb.seen[key(wire.Msg(wire.KindBroadcast, 1))] = true
	if sb.SeenCount() != 1 {
		t.Fatal("seen not recorded")
	}
	sb.Reset()
	if sb.SeenCount() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestKeyDistinguishesPayloads(t *testing.T) {
	a := key(wire.Msg(wire.KindBroadcast, 1, 2, 0))
	b := key(wire.Msg(wire.KindBroadcast, 1, 2, 1)) // different tag (arg 2)
	c := key(wire.Msg(wire.KindRotation, 1, 2, 0))  // different kind
	if a == b || a == c {
		t.Fatalf("keys collide: %v %v %v", a, b, c)
	}
}
