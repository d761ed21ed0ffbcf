package dhc

import (
	"errors"
	"fmt"
	"testing"

	"dhc/internal/congest"
	"dhc/internal/graph"
)

func TestSolveAllAlgorithmsExact(t *testing.T) {
	skipIfShort(t)
	g := NewGNP(220, 0.7, 1)
	for _, algo := range []Algorithm{AlgorithmDRA, AlgorithmDHC1, AlgorithmDHC2, AlgorithmUpcast} {
		t.Run(algo.String(), func(t *testing.T) {
			res, err := Solve(g, algo, Options{Seed: 2, NumColors: 8})
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(g, res.Cycle); err != nil {
				t.Fatal(err)
			}
			if res.Rounds <= 0 {
				t.Fatal("no rounds metered")
			}
		})
	}
}

func TestSolveAllAlgorithmsStep(t *testing.T) {
	g := NewGNP(600, 0.5, 3)
	for _, algo := range []Algorithm{AlgorithmDRA, AlgorithmDHC1, AlgorithmDHC2, AlgorithmUpcast} {
		t.Run(algo.String(), func(t *testing.T) {
			res, err := Solve(g, algo, Options{Seed: 4, Engine: EngineStep, NumColors: 12})
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(g, res.Cycle); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSolveFailsBelowThreshold(t *testing.T) {
	g := NewGNP(100, 0.01, 5) // far below connectivity threshold
	_, err := Solve(g, AlgorithmDRA, Options{Seed: 1, Engine: EngineStep})
	if !errors.Is(err, ErrNoHamiltonianCycle) {
		t.Fatalf("got %v, want ErrNoHamiltonianCycle", err)
	}
}

// TestNoCycleSentinelOnGenuineFailures pins the positive half of the
// wrapNoHC contract: a structurally non-Hamiltonian input must surface as
// ErrNoHamiltonianCycle on every engine and algorithm that can reach the
// run stage.
func TestNoCycleSentinelOnGenuineFailures(t *testing.T) {
	// 60 vertices with 40 edges cannot be Hamiltonian (a HC needs n edges),
	// and the graph is disconnected besides.
	g := NewGNM(60, 40, 7)
	cases := []struct {
		name string
		algo Algorithm
		opts Options
	}{
		{"dra/step", AlgorithmDRA, Options{Seed: 1, Engine: EngineStep}},
		{"dra/exact", AlgorithmDRA, Options{Seed: 1}},
		{"dhc2/step", AlgorithmDHC2, Options{Seed: 1, Engine: EngineStep, NumColors: 4}},
		{"dhc2/exact", AlgorithmDHC2, Options{Seed: 1, NumColors: 4}},
		{"dhc1/step", AlgorithmDHC1, Options{Seed: 1, Engine: EngineStep, NumColors: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Solve(g, tc.algo, tc.opts)
			if err == nil {
				t.Fatal("impossible instance solved")
			}
			if !errors.Is(err, ErrNoHamiltonianCycle) {
				t.Fatalf("genuine failure not tagged ErrNoHamiltonianCycle: %v", err)
			}
		})
	}
}

// TestConfigErrorsAreNotNoCycle pins the negative half: configuration
// mistakes must NOT match ErrNoHamiltonianCycle — callers use the sentinel
// to decide whether retrying with a fresh seed makes sense, and a bad Delta
// or partition count never stops failing.
func TestConfigErrorsAreNotNoCycle(t *testing.T) {
	g := NewGNP(64, 0.8, 3)
	cases := []struct {
		name string
		algo Algorithm
		opts Options
	}{
		{"dhc2/step/delta-too-big", AlgorithmDHC2, Options{Seed: 1, Engine: EngineStep, Delta: 2.5}},
		{"dhc2/step/delta-zero", AlgorithmDHC2, Options{Seed: 1, Engine: EngineStep}},
		{"dhc2/exact/delta-too-big", AlgorithmDHC2, Options{Seed: 1, Delta: 2.5}},
		{"dhc2/exact/delta-zero", AlgorithmDHC2, Options{Seed: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Solve(g, tc.algo, tc.opts)
			if err == nil {
				t.Fatal("bad configuration accepted")
			}
			if errors.Is(err, ErrNoHamiltonianCycle) {
				t.Fatalf("config error wrongly tagged ErrNoHamiltonianCycle: %v", err)
			}
		})
	}
	if _, err := Solve(g, Algorithm(99), Options{Seed: 1}); err == nil ||
		errors.Is(err, ErrNoHamiltonianCycle) {
		t.Fatalf("unknown algorithm: got %v, want plain error", err)
	}
	if _, err := Solve(g, AlgorithmDRA, Options{Seed: 1, Engine: Engine(9)}); err == nil ||
		errors.Is(err, ErrNoHamiltonianCycle) {
		t.Fatalf("unknown engine: got %v, want plain error", err)
	}
}

// TestTinyGraphsAreErrorsOnBothEngines pins that a graph with fewer than
// three vertices is a usage error, not a negative outcome, whatever the
// algorithm and engine: there is no cycle to look for, and a retry with a
// fresh seed can never succeed.
func TestTinyGraphsAreErrorsOnBothEngines(t *testing.T) {
	for n := 0; n < 3; n++ {
		g := graph.Complete(n)
		for _, algo := range []Algorithm{AlgorithmDRA, AlgorithmDHC1, AlgorithmDHC2, AlgorithmUpcast} {
			for _, engine := range []Engine{EngineExact, EngineStep} {
				t.Run(fmt.Sprintf("n=%d/%s/%s", n, algo, engine), func(t *testing.T) {
					_, class, err := Trial(g, algo, Options{Seed: 1, Engine: engine, Delta: 0.5})
					if class != FailureError {
						t.Fatalf("class %s (%v), want %s", class, err, FailureError)
					}
				})
			}
		}
	}
}

// TestDisconnectedInputIsNoHCOnBothEngines: a disconnected graph has no
// Hamiltonian cycle, so every algorithm on both engines must classify it as
// no_hc, never round_limit. Three are the recipe gnp/n=16/param=2/delta=1 at
// graph seeds 11, 45 and 50, where vertex 0 reaches 15 of the 16 vertices;
// the fourth is two disjoint K4s. The exact engine refuses them before round
// 0, from the BFS that gives the broadcast bound.
func TestDisconnectedInputIsNoHCOnBothEngines(t *testing.T) {
	var k4s []graph.Edge
	for _, base := range []graph.NodeID{0, 4} {
		for u := graph.NodeID(0); u < 4; u++ {
			for v := u + 1; v < 4; v++ {
				k4s = append(k4s, graph.Edge{U: base + u, V: base + v})
			}
		}
	}
	type input struct {
		name string
		g    *Graph
	}
	inputs := []input{{"two-K4", graph.FromEdges(8, k4s)}}
	for _, gs := range []uint64{11, 45, 50} {
		inputs = append(inputs, input{fmt.Sprintf("gnp/n=16/param=2/delta=1/gs=%d", gs), NewGNP(16, ThresholdP(16, 2, 1), gs)})
	}
	for _, in := range inputs {
		if in.g.Connected() {
			t.Fatalf("%s is connected", in.name)
		}
		for _, algo := range []Algorithm{AlgorithmDRA, AlgorithmDHC1, AlgorithmDHC2, AlgorithmUpcast} {
			for _, engine := range []Engine{EngineExact, EngineStep} {
				t.Run(fmt.Sprintf("%s/%s/%s", in.name, algo, engine), func(t *testing.T) {
					_, class, err := Trial(in.g, algo, Options{Seed: 1, Engine: engine, Delta: 1})
					if class != FailureNoHC {
						t.Fatalf("class %s (%v), want %s", class, err, FailureNoHC)
					}
					if engine == EngineExact && !errors.Is(err, congest.ErrDisconnected) {
						t.Fatalf("exact run got past the connectivity check: %v", err)
					}
				})
			}
		}
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, name := range []string{"dra", "dhc1", "dhc2", "upcast"} {
		a, err := ParseAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != name {
			t.Fatalf("round trip %q -> %q", name, a.String())
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Fatal("bad name accepted")
	}
}

func TestThresholdP(t *testing.T) {
	if p := ThresholdP(10000, 2, 0.5); p <= 0 || p >= 1 {
		t.Fatalf("threshold %v", p)
	}
}

func TestGenerators(t *testing.T) {
	if g := NewGNP(50, 0.2, 1); g.N() != 50 {
		t.Fatal("GNP wrong size")
	}
	if g := NewGNM(50, 100, 1); g.M() != 100 {
		t.Fatal("GNM wrong edge count")
	}
	g, err := NewRandomRegular(50, 4, 1)
	if err != nil || g.MinDegree() != 4 || g.MaxDegree() != 4 {
		t.Fatalf("regular graph wrong: %v", err)
	}
}

func TestDeterministicAPI(t *testing.T) {
	g := NewGNP(150, 0.8, 9)
	a, err := Solve(g, AlgorithmDHC2, Options{Seed: 7, NumColors: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(g, AlgorithmDHC2, Options{Seed: 7, NumColors: 6})
	if err != nil {
		t.Fatal(err)
	}
	ao, bo := a.Cycle.Order(), b.Cycle.Order()
	for i := range ao {
		if ao[i] != bo[i] {
			t.Fatal("same seed produced different cycles")
		}
	}
}
