package core

import (
	"testing"

	"dhc/internal/congest"
	"dhc/internal/graph"
	"dhc/internal/rng"
)

func TestDHC1OnCompleteGraph(t *testing.T) {
	g := graph.Complete(64)
	res, err := NewDHC1Session(Options{}).RunLocal(g, 1, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycle.Len() != g.N() {
		t.Fatalf("cycle covers %d of %d", res.Cycle.Len(), g.N())
	}
	if len(res.PartitionSizes) != 8 { // round(sqrt(64))
		t.Fatalf("K=%d, want 8", len(res.PartitionSizes))
	}
}

func TestDHC1OnDenseGNP(t *testing.T) {
	// K = round(sqrt(300)) = 17 partitions of ~18 nodes; p=0.9 keeps each
	// partition far above the rotation threshold and gives plenty of
	// hypernode cross edges.
	g := graph.GNP(300, 0.9, rng.New(21))
	res, err := NewDHC1Session(Options{}).RunLocal(g, 2, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Cycle.Verify(g); err != nil {
		t.Fatal(err)
	}
}

func TestDHC1SinglePartition(t *testing.T) {
	g := graph.Complete(24)
	res, err := NewDHC1Session(Options{NumColors: 1}).RunLocal(g, 3, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycle.Len() != 24 {
		t.Fatal("incomplete cycle")
	}
}

func TestDHC1FailsCleanlyOnSparse(t *testing.T) {
	g := graph.Ring(48)
	if _, err := NewDHC1Session(Options{NumColors: 4}).RunLocal(g, 1, congest.Options{}); err == nil {
		t.Fatal("ring accepted")
	}
}

// TestDHC1Deterministic: two runs of the same seed must produce the same
// cycle.
func TestDHC1Deterministic(t *testing.T) {
	g := graph.GNP(200, 0.9, rng.New(31))
	a, err := NewDHC1Session(Options{}).RunLocal(g, 7, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDHC1Session(Options{}).RunLocal(g, 7, congest.Options{})
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

func TestDHC1SuccessRateAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	ok := 0
	const trials = 4
	for seed := uint64(0); seed < trials; seed++ {
		g := graph.GNP(220, 0.9, rng.New(500+seed))
		if _, err := NewDHC1Session(Options{}).RunLocal(g, seed, congest.Options{}); err == nil {
			ok++
		}
	}
	if ok < trials-1 {
		t.Fatalf("only %d/%d DHC1 runs succeeded", ok, trials)
	}
}
