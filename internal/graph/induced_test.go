package graph

import (
	"sort"
	"testing"

	"dhc/internal/rng"
)

// checkInducedReference compares sub against a brute-force build of the
// subgraph induced by the ascending, distinct set orig: every member pair
// goes through g.HasEdge, giving each relabeled row in ascending order and
// the edge count m.
func checkInducedReference(t *testing.T, g, sub *Graph, orig []NodeID) {
	t.Helper()
	if sub.N() != len(orig) {
		t.Fatalf("induced n = %d, want %d", sub.N(), len(orig))
	}
	m := 0
	for i, u := range orig {
		var want []NodeID
		for j, v := range orig {
			if g.HasEdge(u, v) {
				want = append(want, NodeID(j))
				if i < j {
					m++
				}
			}
		}
		got := sub.Neighbors(NodeID(i))
		if len(got) != len(want) {
			t.Fatalf("row %d (vertex %d) = %v, want %v", i, u, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("row %d (vertex %d) = %v, want %v", i, u, got, want)
			}
		}
	}
	if sub.M() != m {
		t.Fatalf("induced m = %d, want %d", sub.M(), m)
	}
}

// sortedDistinct is the reference id map: the set's distinct vertices in
// ascending order.
func sortedDistinct(vs []NodeID) []NodeID {
	seen := map[NodeID]bool{}
	var out []NodeID
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func checkZero(t *testing.T, index []int32) {
	t.Helper()
	for v, x := range index {
		if x != 0 {
			t.Fatalf("index[%d] = %d after the build, want 0", v, x)
		}
	}
}

func sameCSR(a, b *Graph) bool {
	if a.n != b.n || a.m != b.m || len(a.arena) != len(b.arena) {
		return false
	}
	for i := range a.off {
		if a.off[i] != b.off[i] {
			return false
		}
	}
	for i := range a.arena {
		if a.arena[i] != b.arena[i] {
			return false
		}
	}
	return true
}

// TestInducedSubgraphMatchesReference pins the one-pass build against the
// brute-force reference on G(n, p) at several sizes, across the class sizes
// the step engine and sweep use: empty, one vertex, under n/64, about n/8,
// about n/2 and the full set. Every build on one graph shares a single index
// table, which must be all zero after each call, and a rebuild through the
// reused table must give the same CSR arrays as a fresh table. The same sets,
// shuffled and with duplicates, go through the sort/dedupe wrapper.
func TestInducedSubgraphMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{{0, 0}, {1, 0}, {50, 0.3}, {300, 0.05}, {2048, 0.02}} {
		g := GNP(tc.n, tc.p, rng.New(uint64(tc.n)))
		index := make([]int32, tc.n)
		pick := rng.New(7)
		for _, size := range []int{0, 1, tc.n/64 - 1, tc.n / 8, tc.n / 2, tc.n} {
			if size < 0 || size > tc.n {
				continue
			}
			shuffled := pickVertices(pick, tc.n, size)
			members := sortedDistinct(shuffled)
			sub := g.InducedSubgraphIndexed(members, index)
			checkZero(t, index)
			checkWellFormed(t, sub)
			checkInducedReference(t, g, sub, members)
			again := g.InducedSubgraphIndexed(members, index)
			checkZero(t, index)
			if fresh := g.InducedSubgraphIndexed(members, make([]int32, tc.n)); !sameCSR(again, fresh) || !sameCSR(sub, fresh) {
				t.Fatalf("n=%d size=%d: reused index table changed the build", tc.n, size)
			}
			wrapped, orig := g.InducedSubgraph(append(shuffled, shuffled[:size/2]...))
			checkIDMap(t, orig, members)
			if !sameCSR(wrapped, sub) {
				t.Fatalf("n=%d size=%d: wrapper build differs on unsorted input with duplicates", tc.n, size)
			}
		}
	}
}

func checkIDMap(t *testing.T, orig, want []NodeID) {
	t.Helper()
	if len(orig) != len(want) {
		t.Fatalf("id map has %d vertices, want %d", len(orig), len(want))
	}
	for i := range want {
		if orig[i] != want[i] {
			t.Fatalf("id map %v, want %v", orig, want)
		}
	}
}

// pickVertices draws size distinct vertices of [0, n) in random order.
func pickVertices(src *rng.Source, n, size int) []NodeID {
	perm := make([]NodeID, n)
	for i := range perm {
		perm[i] = NodeID(i)
	}
	for i := 0; i < size; i++ {
		j := i + src.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:size:size]
}

// TestInducedSubgraphIndexedContract covers the indexed build's
// preconditions: a member list that is not strictly ascending panics, and the
// index table is still wiped on that exit; a short table panics before
// touching it.
func TestInducedSubgraphIndexedContract(t *testing.T) {
	g := Complete(8)
	index := make([]int32, 8)
	mustPanic := func(name string, members []NodeID, index []int32) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		g.InducedSubgraphIndexed(members, index)
	}
	mustPanic("descending", []NodeID{1, 4, 2}, index)
	checkZero(t, index)
	mustPanic("duplicate", []NodeID{1, 4, 4}, index)
	checkZero(t, index)
	mustPanic("short table", []NodeID{1}, make([]int32, 7))
}

// FuzzInducedSubgraph turns byte pairs into a vertex list (unsorted, with
// duplicates) on a fixed small G(n, p) and checks the wrapper's id map and
// graph against the reference, then the indexed build over a reused table.
func FuzzInducedSubgraph(f *testing.F) {
	const n = 97
	g := GNP(n, 0.15, rng.New(5))
	index := make([]int32, n)
	f.Add([]byte{})
	f.Add([]byte{0, 1})
	f.Add([]byte{0, 3, 0, 1, 0, 3, 0, 96, 0, 2})
	f.Add([]byte{255, 255, 1, 0, 0, 0, 7, 7, 0, 50, 0, 51})
	f.Fuzz(func(t *testing.T, data []byte) {
		vs := make([]NodeID, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			vs = append(vs, NodeID((int(data[i])<<8|int(data[i+1]))%n))
		}
		sub, orig := g.InducedSubgraph(vs)
		checkIDMap(t, orig, sortedDistinct(vs))
		checkWellFormed(t, sub)
		checkInducedReference(t, g, sub, orig)
		if again := g.InducedSubgraphIndexed(orig, index); !sameCSR(sub, again) {
			t.Fatal("indexed build over the reused table differs from the wrapper")
		}
		checkZero(t, index)
	})
}
