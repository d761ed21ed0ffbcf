package core

import (
	"errors"
	"testing"

	"dhc/internal/congest"
	"dhc/internal/graph"
	"dhc/internal/rng"
	"dhc/internal/wire"
)

// mergeLevels is ⌈log₂ K⌉ for a run's partition count K.
func mergeLevels(res *congest.Result) int32 {
	return (&mergePhase{K: int32(len(res.PartitionSizes))}).levels()
}

func TestDHC2OnCompleteGraph(t *testing.T) {
	g := graph.Complete(60)
	res, err := NewDHC2Session(Options{NumColors: 4}).RunLocal(g, 1, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycle.Len() != g.N() {
		t.Fatalf("cycle covers %d of %d", res.Cycle.Len(), g.N())
	}
	if l := mergeLevels(res); l != 2 {
		t.Fatalf("merge levels %d, want 2", l)
	}
	total := 0
	for _, s := range res.PartitionSizes {
		total += s
	}
	if total != g.N() {
		t.Fatalf("partition sizes sum to %d", total)
	}
}

func TestDHC2OnDenseGNP(t *testing.T) {
	// Dense random graph, K = 5 partitions of expected size 64 with
	// in-partition degree ~38 >> ln(64): comfortably above the rotation
	// threshold (the Theorem 2 analysis wants degree >= c*ln(n') with a
	// large constant).
	g := graph.GNP(320, 0.6, rng.New(2))
	res, err := NewDHC2Session(Options{NumColors: 5}).RunLocal(g, 3, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Cycle.Verify(g); err != nil {
		t.Fatal(err)
	}
	if res.Phase1Rounds <= 0 || res.Counters.Rounds <= res.Phase1Rounds {
		t.Fatalf("phase accounting wrong: phase1=%d total=%d",
			res.Phase1Rounds, res.Counters.Rounds)
	}
}

func TestDHC2WithDeltaParameter(t *testing.T) {
	// delta = 0.5 on n = 256 gives K = 16 partitions of ~16 nodes; use a
	// dense graph so every partition is comfortably Hamiltonian.
	g := graph.GNP(256, 0.9, rng.New(4))
	res, err := NewDHC2Session(Options{Delta: 0.5}).RunLocal(g, 5, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PartitionSizes) != 16 {
		t.Fatalf("K=%d, want 16", len(res.PartitionSizes))
	}
}

func TestDHC2SingleColorDegeneratesToDRA(t *testing.T) {
	// K=1: Phase 1 is a single whole-graph DRA and Phase 2 has zero levels.
	g := graph.Complete(30)
	res, err := NewDHC2Session(Options{NumColors: 1}).RunLocal(g, 7, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l := mergeLevels(res); l != 0 {
		t.Fatalf("merge levels %d, want 0", l)
	}
	if res.Cycle.Len() != 30 {
		t.Fatal("incomplete cycle")
	}
}

func TestDHC2FailsCleanlyBelowThreshold(t *testing.T) {
	// A ring has no partition subcycles: every partition DRA must fail and
	// the run must return an error rather than hang.
	g := graph.Ring(64)
	_, err := NewDHC2Session(Options{NumColors: 4}).RunLocal(g, 1, congest.Options{})
	if err == nil {
		t.Fatal("ring accepted")
	}
}

func TestDHC2RejectsBadParams(t *testing.T) {
	g := graph.Complete(10)
	if _, err := NewDHC2Session(Options{Delta: 0}).RunLocal(g, 1, congest.Options{}); err == nil {
		t.Fatal("delta=0 accepted")
	}
	if _, err := NewDHC2Session(Options{Delta: 1.5}).RunLocal(g, 1, congest.Options{}); err == nil {
		t.Fatal("delta=1.5 accepted")
	}
	if _, err := NewDHC2Session(Options{NumColors: 1}).RunLocal(graph.Complete(2), 1, congest.Options{}); err == nil {
		t.Fatal("n=2 accepted")
	}
}

// TestDHC2DeterministicAcrossExecutors: two runs of the same seed on fresh
// networks must produce the same cycle.
func TestDHC2DeterministicAcrossExecutors(t *testing.T) {
	g := graph.GNP(200, 0.8, rng.New(11))
	a, err := NewDHC2Session(Options{NumColors: 8}).RunLocal(g, 9, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDHC2Session(Options{NumColors: 8}).RunLocal(g, 9, congest.Options{})
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

func TestDHC2MemorySublinear(t *testing.T) {
	g := graph.GNP(300, 0.7, rng.New(13))
	res, err := NewDHC2Session(Options{NumColors: 6}).RunLocal(g, 2, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	maxMem := res.Counters.MemoryDistribution().Max
	// Memory is O(degree + partition size) words: neighbor colors dominate.
	bound := 3 * int64(g.MaxDegree()+g.N()/6)
	if maxMem > bound {
		t.Fatalf("per-node memory %d words exceeds O(deg) bound %d", maxMem, bound)
	}
}

func TestDHC2SuccessRateAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	ok := 0
	const trials = 5
	for seed := uint64(0); seed < trials; seed++ {
		g := graph.GNP(240, 0.75, rng.New(300+seed))
		if _, err := NewDHC2Session(Options{NumColors: 6}).RunLocal(g, seed, congest.Options{}); err == nil {
			ok++
		} else if !errors.Is(err, ErrNoHC) {
			t.Fatalf("seed %d: unexpected error class: %v", seed, err)
		}
	}
	if ok < trials-1 {
		t.Fatalf("only %d/%d runs succeeded on dense graphs", ok, trials)
	}
}

// TestDHC2N5RoundZeroOverrun pins the n = 5 case of exact DHC2: on K5
// (gnp/n=5/param=100/delta=0.5, whose p clamps to 1), vertex 0 overruns its
// edge to vertex 1 in round 0. The error must name that edge, its bits and
// the round exactly, whether delivery runs hook-free or, under an identity
// FaultHook, one edge at a time.
func TestDHC2N5RoundZeroOverrun(t *testing.T) {
	const want = "dhc2: congest: per-edge bandwidth exceeded: edge 0->1 carried 25 bits in round 0 (budget 24)"
	identity := func(_ int64, _, _ graph.NodeID, m wire.Message) (wire.Message, bool) { return m, true }
	for _, opts := range []congest.Options{{}, {FaultHook: identity}} {
		_, err := NewDHC2Session(Options{Delta: 0.5}).RunLocal(graph.Complete(5), 1, opts)
		if err == nil || err.Error() != want {
			t.Fatalf("hook %v: got %v, want %q", opts.FaultHook != nil, err, want)
		}
	}
}
