package dra

import (
	"context"
	"errors"
	"math"
	"testing"

	"dhc/internal/congest"
	"dhc/internal/graph"
	"dhc/internal/rng"
	"dhc/internal/rotation"
)

func TestRunOnCompleteGraph(t *testing.T) {
	g := graph.Complete(24)
	res, err := NewSession(NodeOptions{}).RunLocal(g, 1, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycle.Len() != g.N() {
		t.Fatalf("cycle length %d", res.Cycle.Len())
	}
	if res.Counters.Rounds == 0 || res.Steps < int64(g.N()-1) {
		t.Fatalf("implausible metrics: rounds=%d steps=%d", res.Counters.Rounds, res.Steps)
	}
}

func TestRunOnThresholdGNP(t *testing.T) {
	n := 150
	p := 8 * math.Log(float64(n)) / float64(n)
	for seed := uint64(0); seed < 3; seed++ {
		g := graph.GNP(n, p, rng.New(100+seed))
		res, err := NewSession(NodeOptions{}).RunLocal(g, seed, congest.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Run verifies internally; double-check here for the test's sake.
		if err := res.Cycle.Verify(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestStepBudgetMatchesTheorem2(t *testing.T) {
	n := 120
	p := 10 * math.Log(float64(n)) / float64(n)
	g := graph.GNP(n, p, rng.New(7))
	res, err := NewSession(NodeOptions{}).RunLocal(g, 3, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	budget := rotation.DefaultMaxSteps(n)
	if res.Steps > budget {
		t.Fatalf("steps %d exceed Theorem 2 budget %d", res.Steps, budget)
	}
}

func TestRunFailsOnSparseGraph(t *testing.T) {
	// A path graph has no HC; the head strands and the failure broadcast
	// must terminate every node.
	g := graph.Path(12)
	if _, err := NewSession(NodeOptions{}).RunLocal(g, 1, congest.Options{}); err == nil {
		t.Fatal("path graph run succeeded")
	}
}

// TestRunRestartsUpToAttempts pins the standalone restart: a run with no
// Hamiltonian cycle ends only after rotation.Attempts attempts, each under
// its own tag (1 + attempt), and every node ends Failed rather than waiting
// on a restart.
func TestRunRestartsUpToAttempts(t *testing.T) {
	g := graph.Path(12)
	sess := NewSession(NodeOptions{})
	_, err := sess.Run(context.Background(), new(congest.Network), g, 1, congest.Options{})
	if !errors.Is(err, ErrFailed) {
		t.Fatalf("want ErrFailed, got %v", err)
	}
	var lastTag int32
	for v, p := range sess.Programs() {
		if p.state.Status() != Failed {
			t.Fatalf("node %d ends with status %d", v, p.state.Status())
		}
		lastTag = p.state.p.Tag
	}
	if want := int32(rotation.Attempts); lastTag != want {
		t.Fatalf("last attempt ran under tag %d, want %d (tag 1 + %d restarts)", lastTag, want, rotation.Attempts-1)
	}
}

// TestRunFailsOnStepBudget: every attempt stops at its step budget, and
// every node charges each failed attempt in full — the count the failure
// flood carries, not the node's own partial view of it.
func TestRunFailsOnStepBudget(t *testing.T) {
	g := graph.Complete(20)
	const maxSteps = 2
	sess := NewSession(NodeOptions{MaxSteps: maxSteps})
	if _, err := sess.RunLocal(g, 1, congest.Options{}); err == nil {
		t.Fatal("tiny step budget run succeeded")
	}
	for v, p := range sess.Programs() {
		if got, want := p.state.Steps(), int64(rotation.Attempts*maxSteps); got != want {
			t.Fatalf("node %d charges %d steps, want %d (%d attempts of %d)", v, got, want, rotation.Attempts, maxSteps)
		}
	}
}

func TestRunRejectsTinyGraph(t *testing.T) {
	if _, err := NewSession(NodeOptions{}).RunLocal(graph.Complete(2), 1, congest.Options{}); err == nil {
		t.Fatal("n=2 accepted")
	}
}

// TestDeterministicAcrossExecutors: two runs of the same seed on fresh
// networks must produce the same cycle and metering.
func TestDeterministicAcrossExecutors(t *testing.T) {
	n := 100
	p := 10 * math.Log(float64(n)) / float64(n)
	g := graph.GNP(n, p, rng.New(9))
	a, err := NewSession(NodeOptions{}).RunLocal(g, 5, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSession(NodeOptions{}).RunLocal(g, 5, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ao, bo := a.Cycle.Order(), b.Cycle.Order()
	for i := range ao {
		if ao[i] != bo[i] {
			t.Fatal("cycles differ between same-seed runs")
		}
	}
	if a.Counters.Rounds != b.Counters.Rounds ||
		a.Counters.Messages != b.Counters.Messages {
		t.Fatalf("metrics differ: %v vs %v", a.Counters, b.Counters)
	}
}

func TestCongestCompliance(t *testing.T) {
	// The default network options enforce O(log n) bits per edge per round;
	// a full run passing means every DRA message respected the budget.
	n := 80
	p := 12 * math.Log(float64(n)) / float64(n)
	g := graph.GNP(n, p, rng.New(13))
	res, err := NewSession(NodeOptions{}).RunLocal(g, 2, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	codec := wireCodecBits(n)
	if res.Counters.MaxMessageBits > 8*codec {
		t.Fatalf("message of %d bits exceeds 8*log(n)=%d", res.Counters.MaxMessageBits, 8*codec)
	}
}

func wireCodecBits(n int) int64 {
	bits := int64(1)
	for v := n - 1; v > 1; v >>= 1 {
		bits++
	}
	return bits
}

func TestMemoryIsSublinear(t *testing.T) {
	// Fully-distributed claim: each node's memory is O(np) = O(polylog)
	// words at threshold density, far below n.
	n := 200
	p := 8 * math.Log(float64(n)) / float64(n)
	g := graph.GNP(n, p, rng.New(17))
	res, err := NewSession(NodeOptions{}).RunLocal(g, 4, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	maxMem := res.Counters.MemoryDistribution().Max
	if maxMem == 0 {
		t.Fatal("memory not metered")
	}
	if maxMem > int64(n)/2 {
		t.Fatalf("per-node memory %d words is not o(n) for n=%d", maxMem, n)
	}
}

func TestExtractCycleRejectsIncompleteRun(t *testing.T) {
	g := graph.Complete(5)
	progs := make([]*Node, 5)
	for i := range progs {
		progs[i] = &Node{state: &State{status: Running}}
	}
	if err := new(algorithm).Extract(g, progs, &congest.Result{}); err == nil {
		t.Fatal("running states accepted")
	}
}

// TestPointerConsistency cross-checks pred/succ agreement: succ(pred(v)) == v
// for every node after a successful run.
func TestPointerConsistency(t *testing.T) {
	g := graph.Complete(30)
	nodes := make([]congest.Node, g.N())
	progs := make([]*Node, g.N())
	for i := range nodes {
		progs[i] = &Node{}
		nodes[i] = progs[i]
	}
	net, err := congest.NewNetwork(g, nodes, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(11); err != nil {
		t.Fatal(err)
	}
	for v, p := range progs {
		succ := p.state.Succ()
		if succ < 0 {
			t.Fatalf("node %d has no successor", v)
		}
		if progs[succ].state.Pred() != graph.NodeID(v) {
			t.Fatalf("pred(succ(%d)) = %d, want %d", v, progs[succ].state.Pred(), v)
		}
	}
}
