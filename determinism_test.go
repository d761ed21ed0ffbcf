package dhc

// Determinism regression tests: same graph + same seed must yield a
// byte-identical cycle and identical cost metrics for both engines, at every
// Workers value. This pins the step engine's sharded phase 1 AND parallel
// phase-2 merge tree to sequential behavior — the property reproducible
// experiments rely on. The exact engine ignores Workers, so a run and a
// same-seed repeat cover it.

import (
	"context"
	"fmt"
	"testing"

	"dhc/internal/congest"
)

// fingerprint reduces a Result to a comparable string covering the cycle
// order and every cost the engines meter.
func fingerprint(res *Result) string {
	s := fmt.Sprintf("cycle=%v rounds=%d steps=%d p1=%d p2=%d",
		res.Cycle.Order(), res.Rounds, res.Steps, res.Phase1Rounds, res.Phase2Rounds)
	if res.Counters != nil {
		s += fmt.Sprintf(" messages=%d bits=%d maxMsgBits=%d mem=%+v work=%+v",
			res.Counters.Messages, res.Counters.Bits, res.Counters.MaxMessageBits,
			res.Counters.MemoryDistribution(), res.Counters.WorkDistribution())
	}
	return s
}

var workerGrid = []int{0, 1, 4, 8}

func TestDeterminismAcrossWorkersStep(t *testing.T) {
	// NumColors = 16 gives the DHC2 merge tree 4 levels (8, 4, 2, 1 pairs),
	// exercising both the multi-pair parallel levels and the single-pair
	// tail at every workers value.
	g := NewGNP(400, 0.6, 11)
	for _, algo := range []Algorithm{AlgorithmDHC1, AlgorithmDHC2} {
		t.Run(algo.String(), func(t *testing.T) {
			var want string
			var wantP2 int64
			for _, workers := range workerGrid {
				for rep := 0; rep < 2; rep++ {
					res, err := Solve(g, algo, Options{
						Seed: 21, Engine: EngineStep, NumColors: 16, Workers: workers,
					})
					if err != nil {
						t.Fatalf("workers=%d rep=%d: %v", workers, rep, err)
					}
					got := fingerprint(res)
					if want == "" {
						want = got
						wantP2 = res.Phase2Rounds
						continue
					}
					if got != want {
						t.Fatalf("workers=%d rep=%d diverged:\n got %s\nwant %s",
							workers, rep, got, want)
					}
					if res.Phase2Rounds != wantP2 {
						t.Fatalf("workers=%d rep=%d: Phase2Rounds %d, want %d",
							workers, rep, res.Phase2Rounds, wantP2)
					}
				}
			}
		})
	}
}

// TestDeterminismAcrossWorkersExact: the exact engine ignores Workers, so
// one run and a same-seed repeat at another Workers value must agree byte
// for byte (TestGoldenExact pins the values themselves).
func TestDeterminismAcrossWorkersExact(t *testing.T) {
	g := NewGNP(160, 0.7, 13)
	for _, algo := range []Algorithm{AlgorithmDHC1, AlgorithmDHC2} {
		t.Run(algo.String(), func(t *testing.T) {
			var want string
			for _, workers := range []int{1, 4} {
				res, err := Solve(g, algo, Options{Seed: 5, NumColors: 8, Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got := fingerprint(res); want == "" {
					want = got
				} else if got != want {
					t.Fatalf("workers=%d diverged:\n got %s\nwant %s", workers, got, want)
				}
			}
		})
	}
}

// eventVsDenseFingerprint reduces a Result to the fields the event-driven
// engine contract pins against the dense sweep: the cycle itself, the round
// accounting (including charged skipped rounds), and the full message/bit
// counters. Invocation and skip counters are intentionally excluded — they
// are exactly what the two modes are allowed (indeed expected) to differ on.
func eventVsDenseFingerprint(res *Result) string {
	return fmt.Sprintf("cycle=%v rounds=%d p1=%d p2=%d messages=%d bits=%d maxMsgBits=%d",
		res.Cycle.Order(), res.Rounds, res.Phase1Rounds, res.Phase2Rounds,
		res.Counters.Messages, res.Counters.Bits, res.Counters.MaxMessageBits)
}

// solveDense runs algo's exact-engine session on g under the dense sweep
// (congest.Options.DenseSweep), the oracle of the event-driven schedule: an
// in-process network that invokes every live node every round and skips no
// round.
func solveDense(g *Graph, algo Algorithm, opts Options) (*Result, error) {
	s, err := NewSolver(algo, opts)
	if err != nil {
		return nil, err
	}
	return s.solveExact(context.Background(), new(congest.Network), g, opts.Seed,
		congest.Options{DenseSweep: true})
}

// TestEventDrivenMatchesDenseSweep is the differential test of the
// event-driven exact engine against its dense-sweep oracle: for both DHC
// algorithms, the event-driven run must produce the dense sweep's cycle,
// round counts, and message/bit counters byte for byte — while actually
// skipping rounds and invoking far fewer nodes, or the engine isn't
// event-driven at all.
func TestEventDrivenMatchesDenseSweep(t *testing.T) {
	skipIfShort(t)
	g := NewGNP(160, 0.7, 13)
	for _, algo := range []Algorithm{AlgorithmDHC1, AlgorithmDHC2} {
		t.Run(algo.String(), func(t *testing.T) {
			opts := Options{Seed: 5, NumColors: 8}
			dense, err := solveDense(g, algo, opts)
			if err != nil {
				t.Fatalf("dense: %v", err)
			}
			if dense.Counters.RoundsSkipped != 0 {
				t.Fatalf("dense sweep skipped %d rounds", dense.Counters.RoundsSkipped)
			}
			res, err := Solve(g, algo, opts)
			if err != nil {
				t.Fatalf("event-driven: %v", err)
			}
			if got, want := eventVsDenseFingerprint(res), eventVsDenseFingerprint(dense); got != want {
				t.Fatalf("event-driven run diverged from the dense sweep:\n got %s\nwant %s", got, want)
			}
			if res.Counters.RoundsSkipped == 0 {
				t.Fatal("event-driven run skipped no rounds")
			}
			if res.Counters.Invocations >= dense.Counters.Invocations {
				t.Fatalf("event-driven run invoked %d nodes, dense %d — no activity savings",
					res.Counters.Invocations, dense.Counters.Invocations)
			}
		})
	}
}

// TestEventDrivenMatchesDenseSweepSingleMachine extends the differential
// check to the single-instance algorithms (standalone DRA and Upcast).
func TestEventDrivenMatchesDenseSweepSingleMachine(t *testing.T) {
	skipIfShort(t)
	g := NewGNP(200, 0.7, 17)
	for _, algo := range []Algorithm{AlgorithmDRA, AlgorithmUpcast} {
		t.Run(algo.String(), func(t *testing.T) {
			dense, err := solveDense(g, algo, Options{Seed: 9})
			if err != nil {
				t.Fatalf("dense: %v", err)
			}
			res, err := Solve(g, algo, Options{Seed: 9})
			if err != nil {
				t.Fatalf("event-driven: %v", err)
			}
			if got, want := eventVsDenseFingerprint(res), eventVsDenseFingerprint(dense); got != want {
				t.Fatalf("event-driven run diverged from the dense sweep:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestDeterminismSingleMachine covers the algorithms without a partition
// phase (DRA, Upcast): repeat runs must be identical for both engines.
func TestDeterminismSingleMachine(t *testing.T) {
	skipIfShort(t)
	g := NewGNP(200, 0.7, 17)
	for _, algo := range []Algorithm{AlgorithmDRA, AlgorithmUpcast} {
		for _, engine := range []Engine{EngineExact, EngineStep} {
			t.Run(fmt.Sprintf("%s/engine=%d", algo, engine), func(t *testing.T) {
				var want string
				for rep := 0; rep < 2; rep++ {
					res, err := Solve(g, algo, Options{Seed: 9, Engine: engine})
					if err != nil {
						t.Fatal(err)
					}
					got := fingerprint(res)
					if want == "" {
						want = got
					} else if got != want {
						t.Fatalf("rep %d diverged:\n got %s\nwant %s", rep, got, want)
					}
				}
			})
		}
	}
}

// TestGraphGenerationDeterminism pins the generators themselves: the CSR
// build paths (two-pass GNP, batch-sampled GNM) must stay pure functions of
// the seed.
func TestGraphGenerationDeterminism(t *testing.T) {
	for rep := 0; rep < 2; rep++ {
		g1 := NewGNP(300, 0.1, 23)
		g2 := NewGNP(300, 0.1, 23)
		if g1.M() != g2.M() {
			t.Fatal("GNP not deterministic")
		}
		h1 := NewGNM(300, 2000, 29)
		h2 := NewGNM(300, 2000, 29)
		e1, e2 := h1.Edges(), h2.Edges()
		if len(e1) != len(e2) {
			t.Fatal("GNM not deterministic")
		}
		for i := range e1 {
			if e1[i] != e2[i] {
				t.Fatalf("GNM edge %d differs: %v vs %v", i, e1[i], e2[i])
			}
		}
	}
}
