package core

import (
	"math"
	"slices"
	"testing"

	"dhc/internal/congest"
	"dhc/internal/graph"
	"dhc/internal/rng"
	"dhc/internal/rotation"
	"dhc/internal/wire"
)

// TestPartitionBoundIsLeaderEccentricity: every partition's DRA waits
// 2·ecc+1 for its leader's eccentricity in the partition's induced subgraph
// — the measured depth its size count carried — and, since in this dense
// graph every node has a neighbor in every colour class, every merge level
// waits the largest of those bounds and the global tree's.
func TestPartitionBoundIsLeaderEccentricity(t *testing.T) {
	g := graph.GNP(256, 0.6, rng.New(4))
	sess := NewDHC2Session(Options{NumColors: 8})
	if _, err := sess.RunLocal(g, 2, congest.Options{}); err != nil {
		t.Fatal(err)
	}
	progs := sess.Programs()
	classes := make([][]graph.NodeID, 8)
	for v, p := range progs {
		classes[p.p1.color] = append(classes[p.p1.color], graph.NodeID(v))
	}
	rootEcc, _ := g.Ecc(0)
	maxB := rotation.BroadcastBound(rootEcc)
	for c, class := range classes {
		sub, _ := g.InducedSubgraph(class) // class[0], the leader, is sub's vertex 0
		ecc, reached := sub.Ecc(0)
		if reached != sub.N() {
			t.Fatalf("partition %d is disconnected", c)
		}
		want := rotation.BroadcastBound(ecc)
		maxB = max(maxB, want)
		for _, v := range class {
			if got := progs[v].p1.scopeB; got != want {
				t.Fatalf("node %d of partition %d waits %d, want %d (leader eccentricity %d)", v, c, got, want, ecc)
			}
		}
	}
	if got := vouchedOracle(g, progs, 3); got != 3 {
		t.Fatalf("oracle: nodes vouch for %d of 3 merge levels, want 3", got)
	}
	for v, p := range progs {
		if p.mp.tight != maxB || p.mp.tightLevels != 3 {
			t.Fatalf("node %d merges with bound %d for %d levels, want %d for 3", v, p.mp.tight, p.mp.tightLevels, maxB)
		}
	}
}

// vouchedOracle returns how many merge levels, from level 0, every node of
// g vouches for under the colours progs drew: at level l, a node must have
// a neighbor in every colour c != its own with c>>l == color>>l.
func vouchedOracle(g *graph.Graph, progs []*dhc2Node, levels int32) int32 {
	k := progs[0].cfg.NumColors
	vouched := levels
	for v, p := range progs {
		seen := make(map[int32]bool)
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			seen[progs[u].p1.color] = true
		}
		for l := int32(1); l < vouched; l++ {
			lo := p.p1.color >> l << l
			for c := lo; c < min(lo+1<<l, k); c++ {
				if c != p.p1.color && !seen[c] {
					vouched = l
				}
			}
		}
	}
	return vouched
}

// TestVouchedLevels: a node vouches for merge level l when it has a
// neighbor in every other colour class of its level-l scope, and the first
// level it cannot vouch for ends the count.
func TestVouchedLevels(t *testing.T) {
	for _, tc := range []struct {
		color, k, levels int32
		nb               []int32
		want             int32
	}{
		{color: 0, k: 8, levels: 3, nb: []int32{1, 2, 3, 4, 5, 6, 7}, want: 3},
		{color: 0, k: 8, levels: 3, nb: []int32{7, 3, 1, 1, 0, -1}, want: 2},      // no 2; there is no level 3
		{color: 5, k: 8, levels: 3, nb: []int32{0, 1, 2, 3, 6, 7}, want: 1},       // no 4
		{color: 5, k: 8, levels: 3, nb: []int32{4, 4, 5}, want: 2},                // level 2's scope is 4..7
		{color: 4, k: 5, levels: 3, nb: []int32{0, 1, 2, 3}, want: 3},             // 4 is alone up to level 2
		{color: 2, k: 5, levels: 3, nb: []int32{0, 1, 3, math.MaxInt32}, want: 3}, // a corrupted colour counts for nothing
		{color: 2, k: 5, levels: 3, nb: []int32{0, 1, math.MaxInt32, 9}, want: 1}, // so does one out of range
		{color: 3, k: 8, levels: 1, nb: nil, want: 1},                             // level 0 needs no neighbor
		{color: 3, k: 8, levels: 0, nb: nil, want: 0},                             // DHC1: no merge levels
	} {
		p := phase1{cfg: phase1Config{NumColors: tc.k, MergeLevels: tc.levels}, color: tc.color, nbColor: tc.nb}
		if got := p.vouchedLevels(); got != tc.want {
			t.Errorf("colour %d of %d, neighbors %v: vouched for %d of %d levels, want %d", tc.color, tc.k, tc.nb, got, tc.levels, tc.want)
		}
	}
}

// forgetfulNode is a test-only DHC2 program that records the bound each of
// its merge levels waits; if it forgets, then once its partition's DRA has
// started it drops its neighbors of its level-1 partner colour from the
// colour table it vouches from, so it can vouch for level 0 only.
type forgetfulNode struct {
	dhc2Node
	forget bool
	bounds []int64
}

func (m *forgetfulNode) Round(ctx *congest.Context, inbox []congest.Envelope) {
	if p := &m.p1; m.forget && p.dra != nil {
		for port, c := range p.nbColor {
			if c == p.color^1 {
				p.nbColor[port] = -1
			}
		}
	}
	m.dhc2Node.Round(ctx, inbox)
	if mp := &m.mp; m.stage == 2 && int(mp.level) == len(m.bounds) && mp.level < mp.levels() {
		m.bounds = append(m.bounds, mp.B)
	}
}

// TestMergeLevelsFallBackToGlobalBound: one node that cannot vouch for
// merge level 1 makes every node wait the wider bound, the larger of the
// largest partition bound and the global B, from level 1 on, while level
// 0, a single partition, keeps the partition bound. The run still yields a
// verified cycle, and phase 2 lasts exactly its levels' lengths.
func TestMergeLevelsFallBackToGlobalBound(t *testing.T) {
	g := graph.GNP(256, 0.6, rng.New(4))
	a := &dhc2Algorithm{binding{opts: Options{NumColors: 8}}}
	netOpts := congest.Options{}
	if err := a.Bind(g, &netOpts); err != nil {
		t.Fatal(err)
	}
	progs := make([]*dhc2Node, g.N())
	fns := make([]*forgetfulNode, g.N())
	nodes := make([]congest.Node, g.N())
	for v := range nodes {
		fns[v] = &forgetfulNode{dhc2Node: dhc2Node{cfg: a.cfg}, forget: v == 17}
		progs[v], nodes[v] = &fns[v].dhc2Node, fns[v]
	}
	net, err := congest.NewNetwork(g, nodes, netOpts)
	if err != nil {
		t.Fatal(err)
	}
	counters, err := net.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	res := &congest.Result{Counters: counters}
	if err := a.Extract(g, progs, res); err != nil {
		t.Fatal(err)
	}
	tight := progs[0].p1.phase2B()
	want := []int64{tight, max(tight, a.cfg.B), max(tight, a.cfg.B)}
	if want[1] == tight {
		t.Fatalf("global B %d is no wider than the partition bound %d: the test shows nothing", a.cfg.B, tight)
	}
	var length int64
	for _, b := range want {
		length += 2*b + 10
	}
	for v, f := range fns {
		if !slices.Equal(f.bounds, want) {
			t.Fatalf("node %d waited %v at its merge levels, want %v", v, f.bounds, want)
		}
		if got := f.mp.levelStart - f.p1.phase2Start; got != length {
			t.Fatalf("node %d: merge levels took %d rounds, want %d", v, got, length)
		}
	}
}

// blockPath is a path of blocks of size s: each block is a clique, and
// consecutive blocks are completely joined. It has a Hamiltonian cycle, and
// the ids put vertex 0 in the middle block, so the scope leader's depth d is
// half the eccentricity of the end blocks.
func blockPath(blocks, s int) *graph.Graph {
	mid := blocks / 2
	id := func(b, i int) graph.NodeID { return graph.NodeID(((b-mid+blocks)%blocks)*s + i) }
	var edges []graph.Edge
	for b := 0; b < blocks; b++ {
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				edges = append(edges, graph.Edge{U: id(b, i), V: id(b, j)})
			}
			for j := 0; b+1 < blocks && j < s; j++ {
				edges = append(edges, graph.Edge{U: id(b, i), V: id(b+1, j)})
			}
		}
	}
	return graph.FromEdges(blocks*s, edges)
}

// shortWaitNode is a test-only mutant of the DHC2 program: its partition DRA
// waits the leader's depth d after each rotation instead of the measured
// bound 2·d+1.
type shortWaitNode struct{ dhc2Node }

func (m *shortWaitNode) Round(ctx *congest.Context, inbox []congest.Envelope) {
	if p := &m.p1; p.draAt > 0 && p.dra == nil && ctx.Round() >= p.draAt {
		p.scopeB = (p.scopeB - 1) / 2
	}
	m.dhc2Node.Round(ctx, inbox)
}

// runBlockPath runs DHC2 with one colour, the whole block path as the one
// partition, either as is or as the short-wait mutant. It returns the
// extraction error, the bound the partition's DRA waited, and how many
// rounds past the rotation the last copy of any rotation flood arrived.
func runBlockPath(t *testing.T, mutant bool) (error, int64, int64) {
	t.Helper()
	g := blockPath(9, 6)
	a := &dhc2Algorithm{binding{opts: Options{NumColors: 1}}}
	var lastCopy int64
	netOpts := congest.Options{FaultHook: func(round int64, _, _ graph.NodeID, m wire.Message) (wire.Message, bool) {
		if m.Kind == wire.KindRotation {
			lastCopy = max(lastCopy, round+1-int64(m.Arg(3))) // delivered in round+1
		}
		return m, true
	}}
	if err := a.Bind(g, &netOpts); err != nil {
		t.Fatal(err)
	}
	progs := make([]*dhc2Node, g.N())
	nodes := make([]congest.Node, g.N())
	for v := range nodes {
		if mutant {
			m := &shortWaitNode{dhc2Node{cfg: a.cfg}}
			progs[v], nodes[v] = &m.dhc2Node, m
		} else {
			progs[v] = &dhc2Node{cfg: a.cfg}
			nodes[v] = progs[v]
		}
	}
	net, err := congest.NewNetwork(g, nodes, netOpts)
	if err != nil {
		t.Fatal(err)
	}
	counters, err := net.Run(1)
	if err != nil {
		return err, progs[0].p1.scopeB, lastCopy
	}
	return a.Extract(g, progs, &congest.Result{Counters: counters}), progs[0].p1.scopeB, lastCopy
}

// TestTooSmallBoundFailsLoudly: on a partition whose rotation points can sit
// twice the leader's depth d from the far end, the measured bound 2·d+1
// lets every copy of every rotation flood land before the new head may act,
// and the run verifies. A mutant that waits only d must be caught: by the
// cycle's verification, or by the DRA's consistency contract, which the
// test checks on every delivery — no rotation copy arrives after the new
// head may act. The contract is what catches it here. The mutant's cycle
// still verifies, because a rotation flood never overtakes the one before
// it: the next one starts within two hops of the last, and both travel one
// hop per round.
func TestTooSmallBoundFailsLoudly(t *testing.T) {
	err, bound, lastCopy := runBlockPath(t, false)
	if err != nil {
		t.Fatalf("measured bound: %v", err)
	}
	if bound != 9 { // d = 4 block hops from the middle block
		t.Fatalf("partition waited %d, want 9", bound)
	}
	if lastCopy > bound+1 {
		t.Fatalf("a rotation copy landed %d rounds after its rotation, after the new head acts at %d", lastCopy, bound+1)
	}
	err, bound, lastCopy = runBlockPath(t, true)
	if bound != 4 {
		t.Fatalf("mutant waited %d, want 4", bound)
	}
	if err == nil && lastCopy <= bound+1 {
		t.Fatalf("mutant waiting %d rounds went unnoticed: verified cycle, last rotation copy %d rounds after its rotation", bound, lastCopy)
	}
	t.Logf("mutant: err=%v, last rotation copy %d rounds after its rotation, new head acts after %d", err, lastCopy, bound+1)
}
