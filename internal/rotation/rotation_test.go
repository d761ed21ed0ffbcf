package rotation

import (
	"errors"
	"math"
	"testing"

	"dhc/internal/graph"
	"dhc/internal/rng"
)

func TestSolveOnCompleteGraph(t *testing.T) {
	g := graph.Complete(50)
	hc, stats, err := Solve(g, rng.New(1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := hc.Verify(g); err != nil {
		t.Fatal(err)
	}
	if stats.Steps < int64(g.N()-1) {
		t.Fatalf("closed in %d steps, impossible below n-1", stats.Steps)
	}
}

func TestSolveOnDenseGNP(t *testing.T) {
	n := 300
	p := 6 * math.Log(float64(n)) / float64(n)
	g := graph.GNP(n, p, rng.New(2))
	hc, stats, err := Solve(g, rng.New(3), Config{})
	if err != nil {
		t.Fatalf("solve failed after %d steps: %v", stats.Steps, err)
	}
	if err := hc.Verify(g); err != nil {
		t.Fatal(err)
	}
}

func TestSolveRespectsTheorem2Budget(t *testing.T) {
	// On G(n, p) at the paper's density the process must close within the
	// 7 n ln n budget with overwhelming probability. Run several seeds.
	n := 200
	p := 8 * math.Log(float64(n)) / float64(n)
	budget := DefaultMaxSteps(n)
	for seed := uint64(0); seed < 10; seed++ {
		g := graph.GNP(n, p, rng.New(1000+seed))
		_, stats, err := Solve(g, rng.New(seed), Config{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if stats.Steps > budget {
			t.Fatalf("seed %d: %d steps exceeds budget %d", seed, stats.Steps, budget)
		}
	}
}

func TestSolveTooSmall(t *testing.T) {
	if _, _, err := Solve(graph.Complete(2), rng.New(1), Config{}); err == nil {
		t.Fatal("n=2 accepted")
	}
}

func TestStepBudgetError(t *testing.T) {
	g := graph.Complete(30)
	m := New(g, 0, rng.New(1), Config{MaxSteps: 3})
	var err error
	for i := 0; i < 10; i++ {
		if _, err = m.Step(); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrStepBudget) {
		t.Fatalf("got %v, want ErrStepBudget", err)
	}
}

func TestOutOfEdgesOnSparseGraph(t *testing.T) {
	// A path graph strands the head quickly: from an endpoint the head
	// walks forward; every edge gets consumed and no cycle exists.
	g := graph.Path(6)
	m := New(g, 0, rng.New(1), Config{})
	var err error
	for {
		if _, err = m.Step(); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrOutOfEdges) {
		t.Fatalf("got %v, want ErrOutOfEdges", err)
	}
}

func TestMachineStepEvents(t *testing.T) {
	g := graph.Complete(20)
	m := New(g, 0, rng.New(7), Config{})
	ext, rot := int64(0), int64(0)
	for {
		ev, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Kind {
		case Extended:
			ext++
		case Rotated:
			rot++
			if ev.J < 1 || ev.J >= ev.H {
				t.Fatalf("rotation event out of range: %+v", ev)
			}
			// J is Chosen's position: the prefix through v_j stays, and the
			// reversed suffix now starts at the old head.
			if p := m.Path(); p.At(ev.J) != ev.Chosen || p.At(ev.J+1) != ev.Head {
				t.Fatalf("rotation event %+v: path has %d at J and %d at J+1",
					ev, p.At(ev.J), p.At(ev.J+1))
			}
		case Closed:
			if ev.H != g.N() {
				t.Fatalf("closed with H=%d, want %d", ev.H, g.N())
			}
			stats := m.Stats()
			if stats.Extensions != ext || stats.Rotations != rot {
				t.Fatalf("stats mismatch: %+v vs counted %d/%d", stats, ext, rot)
			}
			if ext != int64(g.N()-1) {
				t.Fatalf("%d extensions, want n-1=%d", ext, g.N()-1)
			}
			if !m.Done() {
				t.Fatal("Done() false after close")
			}
			if _, err := m.Step(); err == nil {
				t.Fatal("Step after close succeeded")
			}
			return
		}
		if err := m.Path().VerifyPath(g); err != nil {
			t.Fatalf("path invalid mid-run: %v", err)
		}
	}
}

func TestDeterminism(t *testing.T) {
	g := graph.Complete(40)
	c1, s1, err1 := New(g, 0, rng.New(5), Config{}).Run()
	c2, s2, err2 := New(g, 0, rng.New(5), Config{}).Run()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if s1.Steps != s2.Steps {
		t.Fatalf("step counts differ: %d vs %d", s1.Steps, s2.Steps)
	}
	o1, o2 := c1.Order(), c2.Order()
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatal("cycles differ across identical seeds")
		}
	}
}

func TestThinningReducesUnusedLists(t *testing.T) {
	n := 400
	p := 0.5
	g := graph.GNP(n, p, rng.New(11))
	full := New(g, 0, rng.New(12), Config{})
	thin := New(g, 0, rng.New(12), Config{ThinningP: p})
	fullTotal, thinTotal := 0, 0
	for v := 0; v < n; v++ {
		fullTotal += full.UnusedCount(graph.NodeID(v))
		thinTotal += thin.UnusedCount(graph.NodeID(v))
	}
	if thinTotal >= fullTotal {
		t.Fatalf("thinned lists (%d) not smaller than full (%d)", thinTotal, fullTotal)
	}
	// q = 1 - sqrt(1-p) ≈ 0.293 for p=0.5, so the retained fraction of
	// entries should be about q/p ≈ 0.586. Allow wide slack.
	frac := float64(thinTotal) / float64(fullTotal)
	if frac < 0.5 || frac > 0.67 {
		t.Fatalf("retained fraction %.3f outside [0.5, 0.67]", frac)
	}
}

func TestThinnedSolveStillSucceeds(t *testing.T) {
	// With the analysis thinning active, the process still closes on a
	// sufficiently dense graph (this is exactly what Theorem 2's coupling
	// argues).
	n := 300
	p := 12 * math.Log(float64(n)) / float64(n)
	g := graph.GNP(n, p, rng.New(21))
	hc, _, err := Solve(g, rng.New(22), Config{ThinningP: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := hc.Verify(g); err != nil {
		t.Fatal(err)
	}
}

func TestRemovalsBoundedPerNode(t *testing.T) {
	// Event E2.1 of the analysis: no node should lose more than ~21 ln n
	// unused edges during a successful run (we check a looser 30 ln n).
	n := 500
	p := 8 * math.Log(float64(n)) / float64(n)
	g := graph.GNP(n, p, rng.New(31))
	_, stats, err := Solve(g, rng.New(32), Config{TrackRemovals: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.RemovalsPerNode == nil {
		t.Fatal("TrackRemovals did not allocate RemovalsPerNode")
	}
	bound := int64(30 * math.Log(float64(n)))
	for v, r := range stats.RemovalsPerNode {
		if r > bound {
			t.Fatalf("node %d lost %d unused edges, bound %d", v, r, bound)
		}
	}
}

func TestDefaultMaxSteps(t *testing.T) {
	if b := DefaultMaxSteps(1); b != 16 {
		t.Fatalf("tiny budget %d", b)
	}
	n := 1000
	want := int64(math.Ceil(7*float64(n)*math.Log(float64(n)))) + 16
	if b := DefaultMaxSteps(n); b != want {
		t.Fatalf("budget %d, want %d", b, want)
	}
}
