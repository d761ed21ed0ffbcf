package proto

import (
	"testing"

	"dhc/internal/congest"
	"dhc/internal/graph"
	"dhc/internal/rng"
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
	e.f = NewFlooder(ctx.ID(), ctx.AllPorts())
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
				if p.f.Best == graph.NodeID(i) {
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
	n.b = NewBFSState(0, ctx.AllPorts())
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
