package dhc

// Cross-engine agreement tests: the exact CONGEST engine simulates every
// round and message, the step engine charges the paper's round costs at
// rotation-step granularity. The two must agree up to a constant factor —
// that agreement is what licenses using the step engine for the large-n
// scaling experiments (the promise made in internal/stepsim's package doc).

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
)

// crossEngineRoundSlack bounds the multiplicative disagreement between the
// exact engine's measured rounds (and steps) and the step engine's charged
// ones, in either direction. Measured on the fixed instances below, the
// widest gap is 1.90 (standalone DRA at n = 64, where the step engine
// charges every rotation the full broadcast bound and the exact engine
// waits it only after rotations); 2.5 leaves a third of that as headroom
// without letting an asymptotic divergence slip through.
const crossEngineRoundSlack = 2.5

// crossEnginePhase2Slack is the same bound for phase 2 alone, which is short
// and so noisier: the widest measured gap is 2.81 (DHC1 at n = 64, K = 4,
// where the hypernode rotation takes a handful of steps), and 3.5 leaves a
// quarter as headroom.
const crossEnginePhase2Slack = 3.5

// exactRoundCeiling bounds exact/step one way for DHC2's rounds and DHC1's
// phase-1 rounds. Each partition waits its own measured broadcast bound, as
// the step engine charges it, so what is left is the scaffolding windows the
// exact engine times by the floored global bound, and the two engines'
// different random draws. The widest measured ratio is 1.47 (DHC1 phase 1
// at n = 128), and the threshold point n = 2048, K = 8 reads 0.61.
const exactRoundCeiling = 1.5

// agree fails the test when exact and step differ by more than slack, in
// either direction.
func agree(t *testing.T, what string, exact, step int64, slack float64) {
	t.Helper()
	if exact <= 0 || step <= 0 {
		t.Fatalf("%s: missing charge: exact=%d step=%d", what, exact, step)
	}
	lo, hi := min(exact, step), max(exact, step)
	if float64(hi) > slack*float64(lo) {
		t.Fatalf("%s: engines disagree beyond %vx slack: exact=%d step=%d", what, slack, exact, step)
	}
}

// underCeiling fails the test when exact/step exceeds exactRoundCeiling.
func underCeiling(t *testing.T, what string, exact, step int64) {
	t.Helper()
	if float64(exact) > exactRoundCeiling*float64(step) {
		t.Fatalf("%s: exact/step = %d/%d = %.2f, above %v", what, exact, step,
			float64(exact)/float64(step), exactRoundCeiling)
	}
}

func crosscheckAlgos() []Algorithm {
	return []Algorithm{AlgorithmDRA, AlgorithmDHC1, AlgorithmDHC2, AlgorithmUpcast}
}

// crosscheckRounds solves G(n, 0.8) with K = n/16 on both engines, verifies
// both cycles and holds their rounds to the slack, and DHC2's rounds and
// DHC1's phase 1 to the ceiling.
func crosscheckRounds(t *testing.T, n int, algos []Algorithm) {
	g := NewGNP(n, 0.8, uint64(n))
	k := n / 16
	for _, algo := range algos {
		t.Run(fmt.Sprintf("%s/n=%d", algo, n), func(t *testing.T) {
			opts := Options{Seed: 7, NumColors: k, Delta: 0.5}
			exact, err := Solve(g, algo, opts)
			if err != nil {
				t.Fatalf("exact engine: %v", err)
			}
			opts.Engine = EngineStep
			step, err := Solve(g, algo, opts)
			if err != nil {
				t.Fatalf("step engine: %v", err)
			}
			for name, res := range map[string]*Result{"exact": exact, "step": step} {
				if err := Verify(g, res.Cycle); err != nil {
					t.Fatalf("%s engine produced invalid cycle: %v", name, err)
				}
			}
			agree(t, "rounds", exact.Rounds, step.Rounds, crossEngineRoundSlack)
			switch algo {
			case AlgorithmDHC2:
				underCeiling(t, "rounds", exact.Rounds, step.Rounds)
			case AlgorithmDHC1:
				underCeiling(t, "phase-1 rounds", exact.Phase1Rounds, step.Phase1Rounds)
			}
		})
	}
}

func TestCrosscheckEngines(t *testing.T) {
	skipIfShort(t)
	for _, n := range []int{64, 128, 256} {
		crosscheckRounds(t, n, crosscheckAlgos())
	}
}

// TestCrosscheckEnginesLarge extends the agreement test to n ∈ {512, 1024},
// sizes the event-driven exact engine made feasible (the dense sweep kept
// the old band pinned at n ≤ 256). Standalone DRA is excluded: its single
// scope spans the whole graph, so every rotation floods Θ(m) messages and
// exact simulation at n = 1024 costs ~10⁹ envelope-hops — the very cost the
// DHC partitioning exists to avoid; DRA stays covered at n ≤ 256 above.
// The slack and the ceiling are the same documented constants.
func TestCrosscheckEnginesLarge(t *testing.T) {
	skipIfShort(t)
	for _, n := range []int{512, 1024} {
		crosscheckRounds(t, n, []Algorithm{AlgorithmDHC1, AlgorithmDHC2, AlgorithmUpcast})
	}
}

// TestCrosscheckPhase2Costs pins the phase-2 cost model against the exact
// engine, per phase rather than in total: the step engine charges the merge
// tree at levels·(2·scopeB+10) (DHC2) and the hypernode rotation at the
// global broadcast bound (DHC1), while the exact engine measures its phase 2
// round by round, timed by the largest partition or global-tree bound the
// phase-1 barrier reported (every node of these dense graphs vouches for
// every merge level). The two must agree within the phase-2 slack;
// anything beyond it would mean the phase-2 accounting diverged
// asymptotically.
func TestCrosscheckPhase2Costs(t *testing.T) {
	for _, n := range []int{64, 128, 256} {
		g := NewGNP(n, 0.8, uint64(n))
		k := n / 16
		for _, algo := range []Algorithm{AlgorithmDHC1, AlgorithmDHC2} {
			t.Run(fmt.Sprintf("%s/n=%d", algo, n), func(t *testing.T) {
				opts := Options{Seed: 7, NumColors: k}
				exact, err := Solve(g, algo, opts)
				if err != nil {
					t.Fatalf("exact engine: %v", err)
				}
				opts.Engine = EngineStep
				step, err := Solve(g, algo, opts)
				if err != nil {
					t.Fatalf("step engine: %v", err)
				}
				agree(t, "phase-2 rounds", exact.Phase2Rounds, step.Phase2Rounds, crossEnginePhase2Slack)
			})
		}
	}
}

// TestCrosscheckSteps pins the step-count agreement between the engines for
// the DHC algorithms — the fix for Result.Steps silently reading 0 on the
// exact engine while the step engine reported it. Both engines must meter a
// positive rotation-step total, and the two totals must agree within the
// same documented slack as the round crosscheck (the engines consume
// randomness differently, so counts match in scale, not bit for bit).
func TestCrosscheckSteps(t *testing.T) {
	for _, n := range []int{64, 128, 256} {
		g := NewGNP(n, 0.8, uint64(n))
		k := n / 16
		for _, algo := range []Algorithm{AlgorithmDHC1, AlgorithmDHC2} {
			t.Run(fmt.Sprintf("%s/n=%d", algo, n), func(t *testing.T) {
				opts := Options{Seed: 7, NumColors: k, Delta: 0.5}
				exact, err := Solve(g, algo, opts)
				if err != nil {
					t.Fatalf("exact engine: %v", err)
				}
				opts.Engine = EngineStep
				step, err := Solve(g, algo, opts)
				if err != nil {
					t.Fatalf("step engine: %v", err)
				}
				agree(t, "steps", exact.Steps, step.Steps, crossEngineRoundSlack)
			})
		}
	}
}

// TestCrosscheckPhaseAccounting pins the invariant both engines share: for
// the two-phase algorithms the total equals the phase split.
func TestCrosscheckPhaseAccounting(t *testing.T) {
	g := NewGNP(128, 0.8, 128)
	for _, algo := range []Algorithm{AlgorithmDHC1, AlgorithmDHC2} {
		for _, engine := range []Engine{EngineExact, EngineStep} {
			res, err := Solve(g, algo, Options{Seed: 3, NumColors: 8, Engine: engine})
			if err != nil {
				t.Fatalf("%s engine %d: %v", algo, engine, err)
			}
			if res.Phase1Rounds <= 0 || res.Phase2Rounds <= 0 {
				t.Fatalf("%s engine %d: missing phase split %+v", algo, engine, res)
			}
			if res.Phase1Rounds+res.Phase2Rounds != res.Rounds {
				t.Fatalf("%s engine %d: phases %d+%d != total %d",
					algo, engine, res.Phase1Rounds, res.Phase2Rounds, res.Rounds)
			}
		}
	}
}

// TestCrosscheckSuccessCounts pins that the engines run one restart policy:
// each partition DRA, standalone DRA and hypernode rotation makes at most
// rotation.Attempts attempts, and nothing recolours. On margin cells, where
// many trials fail, both engines solve the same instances with the same
// solver seeds, and their success counts must be consistent with one success
// probability: a two-sided Fisher exact test at p >= 0.01. A policy that
// differs between the engines moves the counts far apart. When the step
// engine alone recoloured after a partition failure and restarted a
// standalone DRA, it solved 178/200 of the n = 16 DRA cell against the exact
// engine's 82/200.
func TestCrosscheckSuccessCounts(t *testing.T) {
	for _, cell := range []struct {
		algo     Algorithm
		n        int
		c, delta float64
		trials   int
	}{
		{AlgorithmDRA, 16, 3, 1, 200},
		{AlgorithmDRA, 32, 3, 1, 200},
		{AlgorithmDHC2, 128, 1.5, 0.5, 48},
		{AlgorithmDHC2, 128, 2, 0.5, 48},
		{AlgorithmDHC2, 256, 1.5, 0.5, 48},
		{AlgorithmDHC2, 256, 2, 0.5, 48},
	} {
		t.Run(fmt.Sprintf("%s/n=%d/c=%g/delta=%g", cell.algo, cell.n, cell.c, cell.delta), func(t *testing.T) {
			t.Parallel() // the cells share nothing
			engines := []Engine{EngineExact, EngineStep}
			solvers := make([]*Solver, len(engines))
			for i, engine := range engines {
				var err error
				if solvers[i], err = NewSolver(cell.algo, Options{Engine: engine, Delta: cell.delta}); err != nil {
					t.Fatal(err)
				}
			}
			p := ThresholdP(cell.n, cell.c, cell.delta)
			solved := make([]int, len(engines))
			for trial := 0; trial < cell.trials; trial++ {
				g := NewGNP(cell.n, p, uint64(1000+trial))
				for i, solver := range solvers {
					_, err := solver.SolveSeeded(context.Background(), g, uint64(trial))
					switch {
					case err == nil:
						solved[i]++
					case !errors.Is(err, ErrNoHamiltonianCycle):
						t.Fatalf("%s engine, trial %d: %v", engines[i], trial, err)
					}
				}
			}
			pv := fisherTwoSided(solved[0], cell.trials, solved[1], cell.trials)
			t.Logf("solved: exact %d/%d, step %d/%d (Fisher p = %.3g)",
				solved[0], cell.trials, solved[1], cell.trials, pv)
			if pv < 0.01 {
				t.Errorf("success counts differ beyond chance: exact %d/%d, step %d/%d, Fisher p = %.3g < 0.01",
					solved[0], cell.trials, solved[1], cell.trials, pv)
			}
		})
	}
}

// fisherTwoSided returns the two-sided Fisher exact test p-value of the 2x2
// table with a successes out of n1 against b out of n2: the probability,
// under the hypergeometric law of the fixed margins, of every table no more
// likely than the observed one.
func fisherTwoSided(a, n1, b, n2 int) float64 {
	k, n := a+b, n1+n2
	lf := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	logP := func(x int) float64 {
		return lf(k) + lf(n-k) + lf(n1) + lf(n2) - lf(n) - lf(x) - lf(k-x) - lf(n1-x) - lf(n2-k+x)
	}
	observed := logP(a)
	var p float64
	for x := max(0, k-n2); x <= min(k, n1); x++ {
		if lp := logP(x); lp <= observed+1e-7 {
			p += math.Exp(lp)
		}
	}
	return min(p, 1)
}

// TestCrosscheckFisherTwoSided pins the test statistic on hand-computed
// tables: Fisher's tea tasting (3/4 against 1/4; the tables x = 0, 1, 3, 4 of
// probabilities 1, 16, 16, 1 in 70), equal counts, and the old policies'
// n = 16 DRA counts.
func TestCrosscheckFisherTwoSided(t *testing.T) {
	for _, tc := range []struct {
		a, n1, b, n2 int
		lo, hi       float64
	}{
		{3, 4, 1, 4, 34.0/70 - 1e-9, 34.0/70 + 1e-9},
		{20, 48, 20, 48, 1 - 1e-9, 1},
		{178, 200, 82, 200, 0, 1e-20},
	} {
		if p := fisherTwoSided(tc.a, tc.n1, tc.b, tc.n2); p < tc.lo || p > tc.hi {
			t.Errorf("fisherTwoSided(%d/%d, %d/%d) = %.6g, want in [%g, %g]",
				tc.a, tc.n1, tc.b, tc.n2, p, tc.lo, tc.hi)
		}
	}
}
