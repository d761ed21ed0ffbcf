package cycle

import (
	"errors"
	"testing"

	"dhc/internal/graph"
	"dhc/internal/rng"
)

func TestFromOrderAndAccessors(t *testing.T) {
	c := FromOrder([]graph.NodeID{3, 1, 4, 0})
	if c.Len() != 4 {
		t.Fatalf("len=%d", c.Len())
	}
	if c.At(0) != 3 || c.At(4) != 3 || c.At(-1) != 0 || c.At(5) != 1 {
		t.Fatal("At modular indexing wrong")
	}
	ord := c.Order()
	ord[0] = 99
	if c.At(0) != 3 {
		t.Fatal("Order() must return a copy")
	}
}

func TestSuccessors(t *testing.T) {
	c := FromOrder([]graph.NodeID{0, 1, 2})
	succ := c.Successors()
	want := map[graph.NodeID]graph.NodeID{0: 1, 1: 2, 2: 0}
	for k, v := range want {
		if succ[k] != v {
			t.Fatalf("succ[%d]=%d, want %d", k, succ[k], v)
		}
	}
}

func TestFromSuccessorsRoundTrip(t *testing.T) {
	orig := FromOrder([]graph.NodeID{4, 2, 3, 1, 0})
	c, err := FromSuccessors(orig.Successors(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 5 {
		t.Fatalf("len=%d", c.Len())
	}
	for i := 0; i < 5; i++ {
		if c.At(i) != orig.At(i) {
			t.Fatalf("order differs at %d", i)
		}
	}
}

func TestFromSuccessorsErrors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		succ  []graph.NodeID
		start graph.NodeID
	}{
		{"empty table", nil, 0},
		// Two disjoint 2-cycles: walk closes early.
		{"early close", []graph.NodeID{1, 0, 3, 2}, 0},
		// 1's successor is missing.
		{"missing successor", []graph.NodeID{1, -1, 0}, 0},
		// 1's successor leaves the table.
		{"out of range", []graph.NodeID{1, 3, 0}, 0},
		{"start out of range", []graph.NodeID{1, 2, 0}, 3},
		// Rho shape: 0->1->2->1 revisits before closing.
		{"revisit", []graph.NodeID{1, 2, 1}, 0},
	} {
		if _, err := FromSuccessors(tc.succ, tc.start); !errors.Is(err, ErrNotCycle) {
			t.Errorf("%s: got %v, want ErrNotCycle", tc.name, err)
		}
	}
}

func TestVerifyAcceptsRing(t *testing.T) {
	g := graph.Ring(10)
	order := make([]graph.NodeID, 10)
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	if err := FromOrder(order).Verify(g); err != nil {
		t.Fatalf("ring traversal rejected: %v", err)
	}
}

func TestVerifyRejections(t *testing.T) {
	g := graph.Complete(5)
	tests := []struct {
		name  string
		order []graph.NodeID
		want  error
	}{
		{"too short", []graph.NodeID{0, 1, 2, 3}, ErrNotSpanning},
		{"repeat", []graph.NodeID{0, 1, 2, 3, 3}, ErrNotSpanning},
		{"out of range", []graph.NodeID{0, 1, 2, 3, 9}, ErrNotSpanning},
	}
	for _, tc := range tests {
		if err := FromOrder(tc.order).Verify(g); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	// Non-edge: path graph misses the closing edge 4-0.
	pg := graph.Path(5)
	if err := FromOrder([]graph.NodeID{0, 1, 2, 3, 4}).Verify(pg); !errors.Is(err, ErrNotSubgraph) {
		t.Error("closing non-edge accepted")
	}
	// n < 3.
	if err := FromOrder([]graph.NodeID{0, 1}).Verify(graph.Complete(2)); !errors.Is(err, ErrNotSpanning) {
		t.Error("2-cycle accepted")
	}
}

func TestRelabel(t *testing.T) {
	c := FromOrder([]graph.NodeID{0, 1, 2})
	table := []graph.NodeID{10, 20, 30}
	r := c.Relabel(table)
	if r.At(0) != 10 || r.At(1) != 20 || r.At(2) != 30 {
		t.Fatalf("relabel wrong: %v", r.Order())
	}
}

func TestPathExtendAndPositions(t *testing.T) {
	p := NewPath(7)
	if p.Len() != 1 || p.Head() != 7 || p.Tail() != 7 || p.Position(7) != 1 {
		t.Fatal("NewPath wrong")
	}
	p.Extend(3)
	p.Extend(9)
	if p.Head() != 9 || p.Len() != 3 {
		t.Fatal("Extend wrong")
	}
	if p.Position(3) != 2 || p.Position(9) != 3 || p.Position(42) != 0 {
		t.Fatal("positions wrong")
	}
	if p.At(1) != 7 || p.At(3) != 9 {
		t.Fatal("At wrong")
	}
	if !p.Contains(3) || p.Contains(4) {
		t.Fatal("Contains wrong")
	}
}

func TestPathExtendPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Extend did not panic")
		}
	}()
	p := NewPath(1)
	p.Extend(1)
}

func TestRotateMatchesPaperExample(t *testing.T) {
	// Paper Fig. 2: v1..vj vj+1..vh  ->  v1..vj vh vh-1..vj+1.
	p := NewPath(0)
	for v := graph.NodeID(1); v <= 5; v++ {
		p.Extend(v) // path 0 1 2 3 4 5, h = 6
	}
	p.Rotate(3) // j = 3 (vertex 2): suffix 3 4 5 reverses to 5 4 3
	want := []graph.NodeID{0, 1, 2, 5, 4, 3}
	got := p.Order()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after rotate: %v, want %v", got, want)
		}
	}
	if p.Head() != 3 {
		t.Fatalf("new head %d, want 3 (old v_{j+1})", p.Head())
	}
	// Renumbering rule i <- h + j + 1 - i must hold for the moved vertices.
	// Old positions 4,5,6 (vertices 3,4,5) map to 6,5,4.
	if p.Position(3) != 6 || p.Position(4) != 5 || p.Position(5) != 4 {
		t.Fatal("renumbering rule violated")
	}
}

func TestRotatePanicsOutOfRange(t *testing.T) {
	p := NewPath(0)
	p.Extend(1)
	for _, j := range []int{0, 2, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Rotate(%d) did not panic", j)
				}
			}()
			p.Rotate(j)
		}()
	}
	// RotateAt refuses the head (j = h) and a vertex off the path.
	for _, v := range []graph.NodeID{1, 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("RotateAt(%d) did not panic", v)
				}
			}()
			p.RotateAt(v)
		}()
	}
}

func TestRotatePreservesPathProperty(t *testing.T) {
	// Property: after any rotation at a position j where (head, v_j) is an
	// edge, the result is still a simple path in the graph.
	g := graph.Complete(20)
	src := rng.New(17)
	p := NewPath(0)
	for v := graph.NodeID(1); v < 20; v++ {
		p.Extend(v)
	}
	for iter := 0; iter < 200; iter++ {
		j := 1 + src.Intn(p.Len()-1)
		p.Rotate(j)
		if err := p.VerifyPath(g); err != nil {
			t.Fatalf("iteration %d: %v", iter, err)
		}
		if p.Len() != 20 {
			t.Fatalf("rotation changed length to %d", p.Len())
		}
		// Position map must stay consistent with order.
		for i := 1; i <= p.Len(); i++ {
			if p.Position(p.At(i)) != i {
				t.Fatalf("position map inconsistent at %d", i)
			}
		}
	}
}

func TestVerifyPathDetectsNonEdge(t *testing.T) {
	g := graph.Path(4) // edges 0-1,1-2,2-3
	p := NewPath(0)
	p.Extend(2)
	if err := p.VerifyPath(g); !errors.Is(err, ErrNotSubgraph) {
		t.Fatal("non-edge path accepted")
	}
}

func TestCloseCycle(t *testing.T) {
	p := NewPath(0)
	p.Extend(1)
	p.Extend(2)
	c := p.CloseCycle()
	if c.Len() != 3 {
		t.Fatalf("len=%d", c.Len())
	}
	if err := c.Verify(graph.Complete(3)); err != nil {
		t.Fatal(err)
	}
}
