package stepsim

import (
	"context"
	"math"
	"testing"

	"dhc/internal/cycle"
	"dhc/internal/graph"
	"dhc/internal/rng"
)

func denseGNP(n int, p float64, seed uint64) *graph.Graph {
	return graph.GNP(n, p, rng.New(seed))
}

func TestDRASim(t *testing.T) {
	n := 500
	p := 10 * math.Log(float64(n)) / float64(n)
	g := denseGNP(n, p, 1)
	hc, cost, err := DRA(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := hc.Verify(g); err != nil {
		t.Fatal(err)
	}
	if cost.Rounds <= cost.Steps {
		t.Fatalf("rounds %d should exceed steps %d (rotations pay D)", cost.Rounds, cost.Steps)
	}
}

func TestDHC1Sim(t *testing.T) {
	g := denseGNP(600, 0.7, 3)
	hc, cost, err := DHC1(g, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := hc.Verify(g); err != nil {
		t.Fatal(err)
	}
	if cost.Phase1Rounds == 0 || cost.Phase2Rounds == 0 {
		t.Fatalf("phase split missing: %+v", cost)
	}
}

func TestDHC2Sim(t *testing.T) {
	g := denseGNP(800, 0.5, 5)
	hc, cost, err := DHC2(g, 6, Options{NumColors: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := hc.Verify(g); err != nil {
		t.Fatal(err)
	}
	if cost.Rounds != cost.Phase1Rounds+cost.Phase2Rounds {
		t.Fatalf("phase accounting inconsistent: %+v", cost)
	}
}

func TestDHC2SimWithDelta(t *testing.T) {
	n := 1000
	p := graph.HCThresholdP(n, 16, 0.5)
	g := denseGNP(n, p, 7)
	hc, _, err := DHC2(g, 8, Options{Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := hc.Verify(g); err != nil {
		t.Fatal(err)
	}
}

func TestUpcastSim(t *testing.T) {
	n := 1000
	p := 3 * math.Log(float64(n)) / math.Sqrt(float64(n))
	g := denseGNP(n, p, 9)
	hc, cost, err := Upcast(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := hc.Verify(g); err != nil {
		t.Fatal(err)
	}
	if cost.Rounds <= 0 {
		t.Fatal("no rounds charged")
	}
}

func TestTrivialSim(t *testing.T) {
	g := denseGNP(300, 0.2, 11)
	hc, cost, err := Trivial(g, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := hc.Verify(g); err != nil {
		t.Fatal(err)
	}
	if cost.Rounds < int64(g.M())/int64(g.Degree(0)) {
		t.Fatalf("trivial baseline must pay ~m/deg rounds, got %d", cost.Rounds)
	}
}

func TestLevySim(t *testing.T) {
	n := 400
	p := 12 * math.Log(float64(n)) / float64(n)
	g := denseGNP(n, p, 13)
	hc, cost, err := Levy(g, 14)
	if err != nil {
		t.Fatal(err)
	}
	if err := hc.Verify(g); err != nil {
		t.Fatal(err)
	}
	if cost.Rounds == 0 {
		t.Fatal("no rounds charged")
	}
}

// TestDRATheorem2Budget — Theorem 2: one DRA attempt closes on
// G(n, 16·ln n/n) within 7·n·ln n steps.
func TestDRATheorem2Budget(t *testing.T) {
	if testing.Short() {
		t.Skip("six DRA runs up to n = 2048")
	}
	for _, n := range []int{64, 128, 256, 512, 1024, 2048} {
		g := denseGNP(n, graph.HCThresholdP(n, 16, 1), 3+uint64(n*31))
		hc, cost, err := DRA(g, 3)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if cost.Restarts != 0 {
			t.Fatalf("n=%d: the first attempt failed (%d restarts)", n, cost.Restarts)
		}
		if err := hc.Verify(g); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if r := float64(cost.Steps) / (float64(n) * math.Log(float64(n))); r > 7 {
			t.Fatalf("n=%d: steps/(n ln n) = %.2f exceeds Theorem 2's budget of 7", n, r)
		}
	}
}

// TestPartitionConcentration — Lemmas 4/7: the colour classes partition
// draws stay near n/K. The Chernoff band's width scales as 1/√(n/K); the
// paper's [½, 3/2] is its asymptotic form.
func TestPartitionConcentration(t *testing.T) {
	for _, tc := range []struct {
		n     int
		delta float64
	}{
		{1024, 0.5}, {4096, 0.5}, {16384, 0.5}, {16384, 0.3}, {16384, 0.7},
	} {
		k := int(math.Round(math.Pow(float64(tc.n), 1-tc.delta)))
		classes := partition(tc.n, k, rng.New(1+uint64(tc.n)+uint64(tc.delta*100)))
		mean := float64(tc.n) / float64(k)
		tol := 5 / math.Sqrt(mean)
		for c, class := range classes {
			if r := float64(len(class)) / mean; r < 1-tol || r > 1+tol {
				t.Fatalf("n=%d delta=%.1f: class %d holds %.2f·n/K, outside 1±%.2f",
					tc.n, tc.delta, c, r, tol)
			}
		}
	}
}

func TestDRAFailsOnPath(t *testing.T) {
	if _, _, err := DRA(graph.Path(20), 1); err == nil {
		t.Fatal("path accepted")
	}
}

func TestDHC2DenserIsFaster(t *testing.T) {
	// The paper's headline: the denser the graph, the smaller the running
	// time. Compare rounds at delta=0.4 vs delta=0.7 (same n, suitable p).
	// At delta=0.3, K = 204 partitions of ~10 vertices: about half the
	// colourings hold a partition of <= 2 vertices, which no engine solves.
	n := 2000
	fast, slow := int64(0), int64(0)
	for seed := uint64(0); seed < 2; seed++ {
		gDense := denseGNP(n, graph.HCThresholdP(n, 20, 0.4), 100+seed)
		gSparse := denseGNP(n, graph.HCThresholdP(n, 20, 0.7), 200+seed)
		_, cd, err := DHC2(gDense, seed, Options{Delta: 0.4})
		if err != nil {
			t.Fatalf("dense seed %d: %v", seed, err)
		}
		_, cs, err := DHC2(gSparse, seed, Options{Delta: 0.7})
		if err != nil {
			t.Fatalf("sparse seed %d: %v", seed, err)
		}
		fast += cd.Rounds
		slow += cs.Rounds
	}
	if fast >= slow {
		t.Fatalf("denser graph not faster: delta=0.4 %d rounds vs delta=0.7 %d", fast, slow)
	}
}

func TestDHCWorkerEdgeCases(t *testing.T) {
	g := denseGNP(60, 0.9, 1)
	// More workers than partitions, and the degenerate K=1 shortcut, must
	// behave exactly like the sequential path.
	hc1, c1, err := DHC2(g, 1, Options{NumColors: 1, Workers: 8})
	if err != nil {
		t.Fatalf("K=1 workers=8: %v", err)
	}
	hc2, c2, err := DHC2(g, 1, Options{NumColors: 1})
	if err != nil {
		t.Fatalf("K=1 sequential: %v", err)
	}
	if c1 != c2 {
		t.Fatalf("K=1 costs diverge: %+v vs %+v", c1, c2)
	}
	o1, o2 := hc1.Order(), hc2.Order()
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatal("K=1 cycles diverge")
		}
	}
	// K = 4 partitions of ~15 vertices, still fewer than the 16 workers.
	if _, _, err := DHC1(g, 2, Options{NumColors: 4, Workers: 16}); err != nil {
		t.Fatalf("DHC1 workers=16 on n=60: %v", err)
	}
}

// TestMergeTreeWorkerDeterminism pins runMergeTree in isolation: the same
// subcycles and seed must produce an identical merged cycle and level count
// at every workers value. Because different worker counts route different
// pair sequences through each reusable scratch buffer, agreement here also
// proves mergePair's scratch wipe leaves no state behind between pairs.
func TestMergeTreeWorkerDeterminism(t *testing.T) {
	g := denseGNP(600, 0.7, 3)
	src := rng.New(9)
	const k = 16
	classes := partition(g.N(), k, src)
	cycles := make([]*cycle.Cycle, k)
	sc := &workerScratch{pos: make([]int32, g.N())}
	for c := 0; c < k; c++ {
		out := solvePartition(context.Background(), g, c, classes[c], src.Split(uint64(c)+1), sc)
		if out.err != nil {
			t.Fatalf("partition %d: %v", c, out.err)
		}
		cycles[c] = out.cyc
	}
	var wantOrder []graph.NodeID
	var wantLevels int64
	for _, workers := range []int{0, 1, 3, 8, 100} {
		in := append([]*cycle.Cycle(nil), cycles...)
		hc, levels, err := NewSession().runMergeTree(context.Background(), g, in, rng.New(77), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := hc.Verify(g); err != nil {
			t.Fatalf("workers=%d: merged cycle invalid: %v", workers, err)
		}
		if wantOrder == nil {
			wantOrder = hc.Order()
			wantLevels = levels
			if levels != 4 {
				t.Fatalf("16 subcycles should merge in 4 levels, got %d", levels)
			}
			continue
		}
		if levels != wantLevels {
			t.Fatalf("workers=%d: levels %d, want %d", workers, levels, wantLevels)
		}
		got := hc.Order()
		for i := range wantOrder {
			if got[i] != wantOrder[i] {
				t.Fatalf("workers=%d: cycle diverges at position %d", workers, i)
			}
		}
	}
}
