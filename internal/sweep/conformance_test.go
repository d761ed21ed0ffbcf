package sweep

// Paper-conformance regression tests: the statistical claims of
// ChatterjeeFPP18 pinned as assertions over a Monte Carlo grid. The paper
// says that above the threshold p = c·ln n / n^δ its algorithms find a
// Hamiltonian cycle w.h.p. within the stated round budgets; these tests run
// a deterministic sweep (fixed master seed, so every trial is reproducible)
// and require (a) a ≥ 95% success rate above threshold and (b) the log-log
// scaling slope of median rounds vs n to stay inside a pinned tolerance
// band. A code change that silently degrades the success probability or the
// asymptotic shape of the round cost now fails the build instead of only
// shifting a benchmark number.

import (
	"testing"

	"dhc"
)

// conformanceSeed fixes the Monte Carlo sample used by the regression
// assertions. The bands below were calibrated on this seed; changing it
// requires re-calibrating them.
const conformanceSeed = 2018

// slopeBand is the pinned tolerance band for a series' rounds slope.
type slopeBand struct{ lo, hi float64 }

// runConformance executes the grid and checks every cell's success rate and
// every expected series' scaling slope.
func runConformance(t *testing.T, grid Grid, minRate float64, bands map[string]slopeBand) {
	t.Helper()
	sec, err := Run(grid, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range sec.Cells {
		if c.FailError > 0 {
			t.Errorf("%s: %d configuration-error trials: %s", c.Key(), c.FailError, c.FirstError)
		}
		if c.SuccessRate < minRate {
			t.Errorf("%s: success rate %.2f below the conformance threshold %.2f (%d/%d, no_hc=%d round_limit=%d): %s",
				c.Key(), c.SuccessRate, minRate, c.Successes, c.Trials,
				c.FailNoHC, c.FailRoundLimit, c.FirstError)
		}
	}
	seen := map[string]bool{}
	for _, f := range sec.Fits {
		band, ok := bands[f.Algo]
		if !ok {
			continue
		}
		seen[f.Algo] = true
		if f.RoundsSlope < band.lo || f.RoundsSlope > band.hi {
			t.Errorf("%s rounds scaling slope %.3f outside the pinned band [%.2f, %.2f]",
				f.Algo, f.RoundsSlope, band.lo, band.hi)
		}
	}
	for algo := range bands {
		if !seen[algo] {
			t.Errorf("no scaling fit produced for %s (all cells failed?)", algo)
		}
	}
}

// TestConformanceAboveThresholdDHC1Regime pins the w.h.p. claim in the
// paper's DHC1 density regime: GNP at p = c·ln n / √n with c = 1 + δ = 1.5
// must solve ≥ 95% of 24 trials per cell at n ∈ {256, 512} for both the
// rotation building block and the Upcast baseline, and median rounds must
// scale within the pinned bands (DRA ~ n·polylog ⇒ slope ≈ 1.3 at these
// sizes; Upcast ~ n·log n / deg ⇒ slope ≈ 1.1).
func TestConformanceAboveThresholdDHC1Regime(t *testing.T) {
	grid := Grid{
		Families:   []Family{FamilyGNP},
		Sizes:      []int{256, 512},
		Params:     []float64{1.5},
		Delta:      0.5,
		Algos:      []dhc.Algorithm{dhc.AlgorithmDRA, dhc.AlgorithmUpcast},
		Engines:    []dhc.Engine{dhc.EngineStep},
		Trials:     24,
		MasterSeed: conformanceSeed,
	}
	runConformance(t, grid, 0.95, map[string]slopeBand{
		// Calibrated slopes on conformanceSeed: dra 1.310, upcast 1.058.
		"dra":    {lo: 1.0, hi: 1.6},
		"upcast": {lo: 0.8, hi: 1.35},
	})
}

// TestConformanceConnectivityRegimeDHC2 pins the same claim in the sparse
// δ = 1 regime DHC2 is designed for: GNP at p = 4·ln n / n (safely above
// the Hamiltonicity threshold c = 1) must solve ≥ 95% per cell, with the
// median-rounds slope inside the pinned band (calibrated 0.713 — phase 2's
// merge tree keeps the growth sublinear at these sizes).
func TestConformanceConnectivityRegimeDHC2(t *testing.T) {
	grid := Grid{
		Families:   []Family{FamilyGNP},
		Sizes:      []int{256, 512},
		Params:     []float64{4},
		Delta:      1,
		Algos:      []dhc.Algorithm{dhc.AlgorithmDHC2},
		Engines:    []dhc.Engine{dhc.EngineStep},
		Trials:     24,
		MasterSeed: conformanceSeed,
	}
	runConformance(t, grid, 0.95, map[string]slopeBand{
		"dhc2": {lo: 0.4, hi: 1.0},
	})
}

// TestConformanceBelowThreshold is the negative control: far below the
// threshold the instances are mostly not Hamiltonian, so a high success
// rate would mean the harness (or the verifier) is broken. Every failure
// must classify as a genuine no-cycle outcome, never a config error.
func TestConformanceBelowThreshold(t *testing.T) {
	grid := Grid{
		Families:   []Family{FamilyGNP},
		Sizes:      []int{256},
		Params:     []float64{0.3},
		Delta:      1,
		Algos:      []dhc.Algorithm{dhc.AlgorithmDRA},
		Engines:    []dhc.Engine{dhc.EngineStep},
		Trials:     12,
		MasterSeed: conformanceSeed,
	}
	sec, err := Run(grid, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	c := sec.Cells[0]
	if c.SuccessRate > 0.5 {
		t.Fatalf("success rate %.2f far below threshold — the harness is not measuring what it claims", c.SuccessRate)
	}
	if c.FailError > 0 || c.FailRoundLimit > 0 {
		t.Fatalf("below-threshold failures must be genuine no-cycle outcomes: %+v", c)
	}
}
