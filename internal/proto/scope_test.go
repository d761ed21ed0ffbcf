package proto

import (
	"testing"

	"dhc/internal/congest"
	"dhc/internal/graph"
	"dhc/internal/rng"
	"dhc/internal/wire"
)

// twoClasses is a G(n, p) graph whose vertices are split at random into two
// colour classes, each inducing a connected subgraph.
type twoClasses struct {
	g     *graph.Graph
	class []int
	// members[c] lists class c's vertices ascending; sub[c] is the subgraph
	// they induce, with vertex i of sub[c] standing for members[c][i].
	members [2][]graph.NodeID
	sub     [2]*graph.Graph
}

func newTwoClasses(t *testing.T) *twoClasses {
	t.Helper()
	tc := &twoClasses{g: graph.GNP(120, 0.1, rng.New(11)), class: make([]int, 120)}
	src := rng.New(12)
	for v := range tc.class {
		tc.class[v] = src.Intn(2)
		tc.members[tc.class[v]] = append(tc.members[tc.class[v]], graph.NodeID(v))
	}
	for c := range tc.sub {
		tc.sub[c], _ = tc.g.InducedSubgraph(tc.members[c])
		if !tc.sub[c].Connected() {
			t.Fatalf("class %d does not induce a connected subgraph", c)
		}
	}
	return tc
}

// classPorts returns the ports of ctx's node whose neighbors share its class.
func (tc *twoClasses) classPorts(ctx *congest.Context) []int32 {
	var ports []int32
	for port, nb := range ctx.Neighbors() {
		if tc.class[nb] == tc.class[ctx.ID()] {
			ports = append(ports, int32(port))
		}
	}
	return ports
}

// run executes one program per vertex for n rounds under a FaultHook that
// fails t on any message of kind crossing between the classes.
func (tc *twoClasses) run(t *testing.T, nodes []congest.Node, kinds ...wire.Kind) {
	t.Helper()
	crossed := 0
	hook := func(round int64, from, to graph.NodeID, m wire.Message) (wire.Message, bool) {
		for _, k := range kinds {
			if m.Kind == k && tc.class[from] != tc.class[to] {
				crossed++
			}
		}
		return m, true
	}
	net, err := congest.NewNetwork(tc.g, nodes, congest.Options{FaultHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	counters, err := net.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if counters.Messages == 0 {
		t.Fatal("no messages sent")
	}
	if crossed > 0 {
		t.Fatalf("%d messages of kinds %v crossed between classes", crossed, kinds)
	}
}

// scopedElectNode runs a Flooder over its class's ports for a fixed budget.
type scopedElectNode struct {
	tc     *twoClasses
	f      *Flooder
	budget int64
}

func (e *scopedElectNode) Init(ctx *congest.Context) {
	ctx.WakeAt(ctx.Round() + 1)
	e.f = NewFlooder(ctx.ID(), e.tc.classPorts(ctx))
	e.f.Start(ctx)
}

func (e *scopedElectNode) Round(ctx *congest.Context, inbox []congest.Envelope) {
	ctx.WakeAt(ctx.Round() + 1)
	e.f.Absorb(ctx, inbox)
	if ctx.Round() >= e.budget {
		ctx.Halt()
	}
}

// TestScopedFlooderElectsPerClass: a Flooder over each node's same-class
// ports elects its class's minimum id at every member, and no candidate
// crosses between the classes.
func TestScopedFlooderElectsPerClass(t *testing.T) {
	tc := newTwoClasses(t)
	progs := make([]*scopedElectNode, tc.g.N())
	nodes := make([]congest.Node, tc.g.N())
	for v := range progs {
		progs[v] = &scopedElectNode{tc: tc, budget: int64(tc.g.N())}
		nodes[v] = progs[v]
	}
	tc.run(t, nodes, wire.KindCandidate)
	for v, p := range progs {
		if want := tc.members[tc.class[v]][0]; p.f.Best != want {
			t.Fatalf("node %d (class %d) elected %d, want the class minimum %d", v, tc.class[v], p.f.Best, want)
		}
	}
}

// scopedBFSNode builds a BFS tree over its class's ports from the class
// minimum for a fixed budget.
type scopedBFSNode struct {
	tc     *twoClasses
	b      *BFSState
	budget int64
}

func (n *scopedBFSNode) Init(ctx *congest.Context) {
	ctx.WakeAt(ctx.Round() + 1)
	n.b = NewBFSState(n.tc.members[n.tc.class[ctx.ID()]][0], n.tc.classPorts(ctx))
	n.b.Start(ctx)
}

func (n *scopedBFSNode) Round(ctx *congest.Context, inbox []congest.Envelope) {
	ctx.WakeAt(ctx.Round() + 1)
	n.b.Absorb(ctx, inbox)
	if ctx.Round() >= n.budget {
		ctx.Halt()
	}
}

// TestScopedBFSMatchesInducedSubgraph: a BFSState over each node's
// same-class ports builds, per class, the BFS tree of the class's induced
// subgraph — every level is the induced-subgraph distance from the class
// minimum, every parent a same-class neighbor one level up, the children
// lists mirror the parents — and no explore crosses between the classes.
func TestScopedBFSMatchesInducedSubgraph(t *testing.T) {
	tc := newTwoClasses(t)
	progs := make([]*scopedBFSNode, tc.g.N())
	nodes := make([]congest.Node, tc.g.N())
	for v := range progs {
		progs[v] = &scopedBFSNode{tc: tc, budget: int64(tc.g.N())}
		nodes[v] = progs[v]
	}
	tc.run(t, nodes, wire.KindBFSExplore, wire.KindBFSAck)
	for c, members := range tc.members {
		dist := tc.sub[c].BFS(0).Dist // members[0], the root, is vertex 0
		children := 0
		for i, v := range members {
			p := progs[v].b
			if int(p.Level) != dist[i] {
				t.Fatalf("class %d node %d: level %d, induced-subgraph distance %d", c, v, p.Level, dist[i])
			}
			if i > 0 {
				par := p.Parent
				if tc.class[par] != c || !tc.g.HasEdge(v, par) || progs[par].b.Level != p.Level-1 {
					t.Fatalf("class %d node %d: parent %d (class %d, level %d) is not a same-class neighbor one level up",
						c, v, par, tc.class[par], progs[par].b.Level)
				}
			}
			for _, ch := range p.Children {
				if progs[ch].b.Parent != v {
					t.Fatalf("node %d lists child %d whose parent is %d", v, ch, progs[ch].b.Parent)
				}
			}
			children += len(p.Children)
		}
		if children != len(members)-1 {
			t.Fatalf("class %d tree has %d child links, want %d", c, children, len(members)-1)
		}
	}
}
