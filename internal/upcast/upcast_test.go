package upcast

import (
	"math"
	"testing"

	"dhc/internal/congest"
	"dhc/internal/graph"
	"dhc/internal/rng"
)

func TestRunOnDenseGNP(t *testing.T) {
	n := 200
	p := 0.3
	g := graph.GNP(n, p, rng.New(1))
	res, err := NewSession().RunLocal(g, 2, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycle.Len() != n {
		t.Fatalf("cycle covers %d of %d", res.Cycle.Len(), n)
	}
}

func TestRunOnThresholdGNP(t *testing.T) {
	// p at the sqrt(n) regime of Theorem 17.
	n := 400
	p := 3 * math.Log(float64(n)) / math.Sqrt(float64(n))
	g := graph.GNP(n, p, rng.New(3))
	res, err := NewSession().RunLocal(g, 4, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Cycle.Verify(g); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryConcentratesAtRoot(t *testing.T) {
	g := graph.GNP(300, 0.2, rng.New(5))
	res, err := NewSession().RunLocal(g, 6, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mem := res.Counters.MemoryDistribution()
	// The root stores all ~n*samples edges; the median node stores O(log n)
	// samples plus queues. The imbalance ratio must be large.
	if ratio := float64(mem.Max) / float64(mem.P50+1); ratio < 10 {
		t.Fatalf("memory balance ratio %.1f too small for a centralized algorithm (max=%d p50=%d)",
			ratio, mem.Max, mem.P50)
	}
	// The high-water is the root's.
	if mem.Max < int64(g.N()) {
		t.Fatalf("root memory %d words below n=%d: not storing the sampled graph?",
			mem.Max, g.N())
	}
}

func TestFailsOnSparseGraph(t *testing.T) {
	// Sampling from a path cannot produce a Hamiltonian-cycle-bearing
	// subgraph; the run must fail cleanly.
	g := graph.Path(40)
	if _, err := NewSession().RunLocal(g, 1, congest.Options{}); err == nil {
		t.Fatal("path accepted")
	}
}

// TestDeterministicAcrossExecutors: two runs of the same seed on fresh
// networks must produce the same cycle.
func TestDeterministicAcrossExecutors(t *testing.T) {
	g := graph.GNP(150, 0.25, rng.New(7))
	a, err := NewSession().RunLocal(g, 8, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSession().RunLocal(g, 8, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ao, bo := a.Cycle.Order(), b.Cycle.Order()
	for i := range ao {
		if ao[i] != bo[i] {
			t.Fatal("same-seed runs disagree")
		}
	}
}

func TestSampleCapRespectsDegree(t *testing.T) {
	// On a ring every node has degree 2 < 3 ln n: samples are capped, the
	// sampled graph equals the ring, and the ring IS its own HC.
	g := graph.Ring(50)
	res, err := NewSession().RunLocal(g, 9, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Cycle.Verify(g); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsTinyGraph(t *testing.T) {
	if _, err := NewSession().RunLocal(graph.Complete(2), 1, congest.Options{}); err == nil {
		t.Fatal("n=2 accepted")
	}
}
