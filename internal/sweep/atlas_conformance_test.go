package sweep

// Phase-transition-atlas conformance: the empirical Hamiltonicity thresholds
// of the non-GNP generator families, pinned as tier-1 regressions. Each
// random family (powerlaw, geometric, sbm) was calibrated on conformanceSeed
// by sweeping its density parameter with DRA at n ∈ {256, 512}: the pinned
// above-threshold cells solved 24/24 and the pinned below-threshold controls
// solved 0/24 with every failure a genuine no-cycle classification. The
// deterministic lattices (hypercube, torus) sit outside the paper's random
// sweet spot — the rotation process reliably jams on them — so they serve as
// off-distribution controls: zero successes, zero config errors, and the
// punctured hypercube adds a provably non-Hamiltonian instance (2^d − 1
// vertices unbalances the bipartition, so no Hamiltonian cycle exists).
//
// Calibration map on conformanceSeed (DRA, step engine, 24 trials/cell,
// success counts at n=256 / n=512):
//
//	powerlaw  (δ=1):  c=4: 0/0    c=8: 1/0    c=12: 19/10  c=16: 24/24  c=24: 24/24
//	geometric (δ≡0):  c=1: 0/0    c=2: 1/1    c=3: 24/24
//	sbm       (δ=1):  c=1: 0/0    c=2: 0/0    c=4: 24/24   c=8: 24/24
//	hypercube/torus:  0 successes at every probed size (63..256), all no_hc

import (
	"testing"

	"dhc"
)

// stepDRA is the atlas's reference solver configuration: the lattice
// families jam Upcast's per-edge bandwidth accounting, so DRA on the step
// engine is the one (algo, engine) pair every family can run.
var stepDRA = struct {
	algos   []dhc.Algorithm
	engines []dhc.Engine
}{
	algos:   []dhc.Algorithm{dhc.AlgorithmDRA},
	engines: []dhc.Engine{dhc.EngineStep},
}

// TestConformanceAtlasPowerlaw pins the Chung–Lu family above its calibrated
// threshold: at mean degree c·ln n with c ∈ {16, 24} (exponent 2.5) the
// heavy tail still leaves enough minimum degree for the rotation process,
// and DRA must solve ≥ 95% per cell. The threshold is far above GNP's c = 1
// — the price of the power-law tail's low-degree vertices. Calibrated
// slopes: 1.195 (c=16), 1.284 (c=24).
func TestConformanceAtlasPowerlaw(t *testing.T) {
	grid := Grid{
		Families:   []Family{FamilyPowerlaw},
		Sizes:      []int{256, 512},
		Params:     []float64{16, 24},
		Delta:      1,
		Algos:      stepDRA.algos,
		Engines:    stepDRA.engines,
		Trials:     24,
		MasterSeed: conformanceSeed,
	}
	runConformance(t, grid, 0.95, map[string]slopeBand{
		"dra": {lo: 0.9, hi: 1.6},
	})
}

// TestConformanceAtlasGeometric pins the random geometric family above its
// calibrated threshold: at radius 3·sqrt(ln n/(π·n)) — three times the
// connectivity knee — the clustered disc graph is Hamiltonian-solvable in
// every trial. Calibrated slope 1.598: rounds grow superlinearly because the
// rotation process fights the graph's locality (no expander shortcuts).
func TestConformanceAtlasGeometric(t *testing.T) {
	grid := Grid{
		Families:   []Family{FamilyGeometric},
		Sizes:      []int{256, 512},
		Params:     []float64{3},
		Algos:      stepDRA.algos,
		Engines:    stepDRA.engines,
		Trials:     24,
		MasterSeed: conformanceSeed,
	}
	runConformance(t, grid, 0.95, map[string]slopeBand{
		"dra": {lo: 1.2, hi: 2.0},
	})
}

// TestConformanceAtlasSBM pins the block-model family above its calibrated
// threshold: with 4 blocks at pIn/pOut = 4 and mean edge probability
// c·ln n/n, c ∈ {4, 8}, the sparse cuts still carry enough cross edges for
// a cycle through all blocks. Calibrated slopes: 1.732 (c=4), 1.350 (c=8)
// — the sparser the cut, the harder the rotation works to cross it.
func TestConformanceAtlasSBM(t *testing.T) {
	grid := Grid{
		Families:   []Family{FamilySBM},
		Sizes:      []int{256, 512},
		Params:     []float64{4, 8},
		Delta:      1,
		Algos:      stepDRA.algos,
		Engines:    stepDRA.engines,
		Trials:     24,
		MasterSeed: conformanceSeed,
	}
	runConformance(t, grid, 0.95, map[string]slopeBand{
		"dra": {lo: 1.0, hi: 2.1},
	})
}

// TestConformanceAtlasBelowThreshold is the per-family negative control:
// below each random family's calibrated threshold the instances are mostly
// non-Hamiltonian (isolated or degree-1 vertices appear w.h.p.), so success
// must collapse and every failure must classify as a genuine no-cycle
// outcome — never a round-limit or configuration error.
func TestConformanceAtlasBelowThreshold(t *testing.T) {
	for _, tc := range []struct {
		family Family
		param  float64
		delta  float64
	}{
		{FamilyPowerlaw, 4, 1},
		{FamilyGeometric, 1, 0},
		{FamilySBM, 1, 1},
	} {
		grid := Grid{
			Families:   []Family{tc.family},
			Sizes:      []int{256},
			Params:     []float64{tc.param},
			Delta:      tc.delta,
			Algos:      stepDRA.algos,
			Engines:    stepDRA.engines,
			Trials:     12,
			MasterSeed: conformanceSeed,
		}
		sec, err := Run(grid, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		c := sec.Cells[0]
		if c.SuccessRate > 0.5 {
			t.Errorf("%s: success rate %.2f below threshold — the harness is not measuring what it claims",
				c.Key(), c.SuccessRate)
		}
		if c.FailError > 0 || c.FailRoundLimit > 0 {
			t.Errorf("%s: below-threshold failures must be genuine no-cycle outcomes: %+v", c.Key(), c)
		}
	}
}

// TestConformanceAtlasLatticeControls pins the deterministic lattices as
// off-distribution controls: DRA's rotation process jams on the hypercube
// and torus at every probed size (their geodesic structure starves the head
// of unused edges long before a cycle closes), and the harness must report
// that as a clean 0% success with every trial classified no_hc — the
// generators and taxonomy stay sound on inputs the paper's analysis never
// promised to cover.
func TestConformanceAtlasLatticeControls(t *testing.T) {
	grid := Grid{
		Families:   []Family{FamilyHypercube, FamilyTorus},
		Sizes:      []int{64, 256},
		Params:     []float64{1}, // collapsed to param=0 for deterministic families
		Algos:      stepDRA.algos,
		Engines:    stepDRA.engines,
		Trials:     6,
		MasterSeed: conformanceSeed,
	}
	if err := grid.Validate(); err != nil {
		t.Fatal(err)
	}
	sec, err := Run(grid, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(sec.Cells) != 4 {
		t.Fatalf("param axis did not collapse: %d cells, want 4", len(sec.Cells))
	}
	for _, c := range sec.Cells {
		if c.Successes != 0 {
			t.Errorf("%s: %d successes on a lattice DRA cannot solve — solver or generator changed shape", c.Key(), c.Successes)
		}
		if c.FailNoHC != c.Trials {
			t.Errorf("%s: want all %d trials classified no_hc, got no_hc=%d round_limit=%d error=%d (%s)",
				c.Key(), c.Trials, c.FailNoHC, c.FailRoundLimit, c.FailError, c.FirstError)
		}
	}
}

// TestConformanceAtlasPuncturedHypercube pins the provably negative control:
// Q_d minus a vertex has 2^d − 1 vertices, and deleting one corner
// unbalances the bipartition (hypercube labels split by parity), so no
// Hamiltonian cycle exists — any success here is a verifier bug, not luck.
func TestConformanceAtlasPuncturedHypercube(t *testing.T) {
	grid := Grid{
		Families:   []Family{FamilyHypercube},
		Sizes:      []int{63, 127}, // 2^6 − 1, 2^7 − 1
		Params:     []float64{1},
		Algos:      stepDRA.algos,
		Engines:    stepDRA.engines,
		Trials:     6,
		MasterSeed: conformanceSeed,
	}
	if err := grid.Validate(); err != nil {
		t.Fatal(err)
	}
	sec, err := Run(grid, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range sec.Cells {
		if c.Successes != 0 {
			t.Errorf("%s: claimed a Hamiltonian cycle in a graph that provably has none", c.Key())
		}
		if c.FailNoHC != c.Trials {
			t.Errorf("%s: want all %d trials no_hc, got %+v", c.Key(), c.Trials, c)
		}
	}
}
