package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"dhc"
	"dhc/internal/bench"
	"dhc/internal/rng"
)

func step() []dhc.Engine { return []dhc.Engine{dhc.EngineStep} }

// encodeSection renders a sweep section the way the report file does, so
// byte comparisons test exactly what hcsweep promises.
func encodeSection(t *testing.T, sec *bench.SweepSection) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWorkerDeterminism pins the pipeline's core promise: the report is a
// pure function of (grid, master seed) — any worker count produces
// byte-identical output.
func TestWorkerDeterminism(t *testing.T) {
	grid := Grid{
		Families: []Family{FamilyGNP, FamilyGNM},
		Sizes:    []int{64, 96},
		Params:   []float64{1.5},
		Delta:    0.5,
		Algos:    []dhc.Algorithm{dhc.AlgorithmDRA, dhc.AlgorithmUpcast},
		Engines:  step(),
		Trials:   6, MasterSeed: 11,
	}
	var want []byte
	for _, workers := range []int{0, 1, 4, 8} {
		sec, err := Run(grid, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := encodeSection(t, sec)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("workers=%d produced a different report", workers)
		}
	}
}

// TestInstanceSharingAcrossSolverColumns pins the paired-trial design: every
// (algo, engine) cell of one grid point draws the same instances and solver
// seeds — the ones the point's instance key derives — whatever other columns
// the grid holds. Each cell of an {exact, step} grid must equal its column
// run alone, and its rounds must be those of a direct solve of the
// key-derived trials.
func TestInstanceSharingAcrossSolverColumns(t *testing.T) {
	grid := Grid{
		Families: []Family{FamilyGNP},
		Sizes:    []int{48},
		Params:   []float64{1.5},
		Delta:    0.5,
		Algos:    []dhc.Algorithm{dhc.AlgorithmDRA},
		Engines:  []dhc.Engine{dhc.EngineExact, dhc.EngineStep},
		Trials:   4, MasterSeed: 3,
	}
	sec, err := Run(grid, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cells := grid.Cells()
	if len(sec.Cells) != 2 || len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(sec.Cells))
	}
	for i, cell := range cells {
		alone := grid
		alone.Engines = []dhc.Engine{cell.Engine}
		one, err := Run(alone, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := encodeCell(t, sec.Cells[i]), encodeCell(t, one.Cells[0]); !bytes.Equal(got, want) {
			t.Fatalf("%s cell depends on the other column:\n got %s\nwant %s", cell.Engine, got, want)
		}
		inst := rng.New(grid.MasterSeed).Split(fnv1a(cell.InstanceKey()))
		var rounds []int64
		for trial := 0; trial < grid.Trials; trial++ {
			stream := inst.Split(uint64(trial) + 1)
			recipe := cell.Recipe
			recipe.GraphSeed = stream.Uint64()
			solveSeed := stream.Uint64()
			g, err := recipe.Build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := dhc.Solve(g, cell.Algo, dhc.Options{Seed: solveSeed, Engine: cell.Engine, Delta: grid.Delta})
			if err == nil {
				rounds = append(rounds, res.Rounds)
			}
		}
		if len(rounds) == 0 {
			t.Fatalf("%s: no trial succeeded", cell.Engine)
		}
		if got, want := sec.Cells[i].Rounds, bench.NewQuantiles(rounds); got != want {
			t.Fatalf("%s cell rounds %+v, direct solves of the key-derived trials %+v", cell.Engine, got, want)
		}
	}
}

// TestFailureTaxonomy drives each failure class through a cell engineered
// to produce it: far-below-threshold GNP yields genuine no-cycle outcomes,
// an infeasible regular configuration (odd n·d) yields configuration
// errors — and the two must never be conflated.
func TestFailureTaxonomy(t *testing.T) {
	noHC := Grid{
		Families: []Family{FamilyGNP},
		Sizes:    []int{64},
		Params:   []float64{0.3}, // far below the Hamiltonicity threshold
		Delta:    1,
		Algos:    []dhc.Algorithm{dhc.AlgorithmDRA},
		Engines:  step(),
		Trials:   6, MasterSeed: 5,
	}
	sec, err := Run(noHC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := sec.Cells[0]
	if c.FailNoHC == 0 || c.FailError != 0 || c.FailRoundLimit != 0 {
		t.Fatalf("sub-threshold cell should fail as no_hc only: %+v", c)
	}
	if c.Successes+c.FailNoHC != c.Trials {
		t.Fatalf("outcomes do not partition trials: %+v", c)
	}
	if c.FirstError == "" {
		t.Fatal("failing cell should sample an error message")
	}

	infeasible := Grid{
		Families: []Family{FamilyRegular},
		Sizes:    []int{15}, // 15 * 3 odd: no 3-regular graph exists
		Params:   []float64{3},
		Algos:    []dhc.Algorithm{dhc.AlgorithmDRA},
		Engines:  step(),
		Trials:   3, MasterSeed: 5,
	}
	sec, err = Run(infeasible, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c = sec.Cells[0]
	if c.FailError != c.Trials {
		t.Fatalf("infeasible generator should classify all trials as errors: %+v", c)
	}
	if c.FailNoHC != 0 {
		t.Fatalf("config errors must not be counted as no-cycle outcomes: %+v", c)
	}
}

// TestRegularFamilySolves sanity-checks the third workload end to end: a
// random 8-regular graph at modest n is Hamiltonian-dense enough for DRA.
func TestRegularFamilySolves(t *testing.T) {
	grid := Grid{
		Families: []Family{FamilyRegular},
		Sizes:    []int{64},
		Params:   []float64{8},
		Algos:    []dhc.Algorithm{dhc.AlgorithmDRA},
		Engines:  step(),
		Trials:   6, MasterSeed: 9,
	}
	sec, err := Run(grid, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := sec.Cells[0]
	if c.Successes == 0 {
		t.Fatalf("8-regular n=64 should mostly solve: %+v", c)
	}
	if c.P != 0 || c.Delta != 0 {
		t.Fatalf("regular cells must not carry gnp fields: %+v", c)
	}
}

// TestResumeReusesCells pins resume soundness: reused cells short-circuit
// computation, fresh cells still run, and the combined report is identical
// to a from-scratch run of the larger grid.
func TestResumeReusesCells(t *testing.T) {
	small := Grid{
		Families: []Family{FamilyGNP},
		Sizes:    []int{64},
		Params:   []float64{1.5},
		Delta:    0.5,
		Algos:    []dhc.Algorithm{dhc.AlgorithmDRA},
		Engines:  step(),
		Trials:   5, MasterSeed: 13,
	}
	big := small
	big.Sizes = []int{64, 96}

	first, err := Run(small, Options{})
	if err != nil {
		t.Fatal(err)
	}
	resume := map[string]bench.CellStats{}
	for _, c := range first.Cells {
		resume[c.Key()] = c
	}
	reusedByKey := map[string]bool{}
	combined, err := Run(big, Options{
		Resume: resume,
		Progress: func(cell Cell, _ bench.CellStats, reused bool) {
			reusedByKey[cell.Key()] = reused
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reusedByKey[first.Cells[0].Key()] {
		t.Fatal("previously computed cell was re-run")
	}
	fresh, err := Run(big, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeSection(t, combined), encodeSection(t, fresh)) {
		t.Fatal("resumed run differs from a from-scratch run")
	}
}

// TestFitsRecoversKnownSlope feeds synthetic cells with rounds = n^1.5 and
// checks the log-log fit recovers the exponent; a series present at only
// one size must produce no fit, and a zero-valued statistic must report the
// "no data" zero rather than NaN.
func TestFitsRecoversKnownSlope(t *testing.T) {
	mk := func(n int, rounds int64) bench.CellStats {
		return bench.CellStats{
			Family: "gnp", N: n, Param: 2, Delta: 1, Algo: "dra", Engine: "step",
			Trials: 4, Successes: 4, SuccessRate: 1,
			Rounds: bench.Quantiles{P50: rounds, P90: rounds, Max: rounds},
		}
	}
	cells := []bench.CellStats{
		mk(100, 1000), mk(400, 8000), mk(1600, 64000), // rounds = n^1.5
		{Family: "gnm", N: 64, Param: 2, Algo: "dra", Engine: "step",
			Trials: 4, Successes: 4, SuccessRate: 1}, // single size: no fit
	}
	fits := Fits(cells)
	if len(fits) != 1 {
		t.Fatalf("got %d fits, want 1: %+v", len(fits), fits)
	}
	if got := fits[0].RoundsSlope; math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("rounds slope %v, want 1.5", got)
	}
	if fits[0].StepsSlope != 0 {
		t.Fatalf("all-zero steps series should fit the no-data zero, got %v", fits[0].StepsSlope)
	}
	if fits[0].Points != 3 {
		t.Fatalf("points %d, want 3", fits[0].Points)
	}
}

// TestGridValidate rejects malformed axes.
func TestGridValidate(t *testing.T) {
	good := Grid{
		Families: []Family{FamilyGNP}, Sizes: []int{64}, Params: []float64{1.5},
		Algos: []dhc.Algorithm{dhc.AlgorithmDRA}, Engines: step(),
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid grid rejected: %v", err)
	}
	for name, mut := range map[string]func(*Grid){
		"no families":        func(g *Grid) { g.Families = nil },
		"no sizes":           func(g *Grid) { g.Sizes = nil },
		"tiny size":          func(g *Grid) { g.Sizes = []int{2} },
		"no params":          func(g *Grid) { g.Params = nil },
		"no algos":           func(g *Grid) { g.Algos = nil },
		"no engines":         func(g *Grid) { g.Engines = nil },
		"delta out of range": func(g *Grid) { g.Delta = 1.5 },
		"fractional degree": func(g *Grid) {
			g.Families = []Family{FamilyRegular}
			g.Params = []float64{2.5}
		},
	} {
		g := good
		mut(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestParseFamily round-trips the family vocabulary and pins the
// deterministic (sorted) vocabulary listing of the parse error, matching
// the ParseAlgorithm / ParseEngine contract.
func TestParseFamily(t *testing.T) {
	for _, f := range []Family{
		FamilyGNP, FamilyGNM, FamilyRegular,
		FamilyPowerlaw, FamilyGeometric, FamilySBM, FamilyHypercube, FamilyTorus,
	} {
		got, err := ParseFamily(f.String())
		if err != nil || got != f {
			t.Fatalf("round trip %v: got %v, %v", f, got, err)
		}
	}
	_, err := ParseFamily("smallworld")
	if err == nil {
		t.Fatal("unknown family accepted")
	}
	want := `sweep: unknown graph family "smallworld" (valid: geometric, gnm, gnp, hypercube, powerlaw, regular, sbm, torus)`
	if err.Error() != want {
		t.Fatalf("ParseFamily error = %q, want %q", err.Error(), want)
	}
}

// TestFamilyNamesLockstep pins the two family vocabularies to each other:
// sweep.FamilyNames derives from the parse map that drives the CLIs, and
// bench.FamilyNames is the report schema's hand-maintained copy (the bench
// package cannot import sweep). A family added to one side only fails here.
func TestFamilyNamesLockstep(t *testing.T) {
	got, want := FamilyNames(), bench.FamilyNames()
	if len(got) != len(want) {
		t.Fatalf("sweep.FamilyNames = %v, bench.FamilyNames = %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("vocabulary diverged at %d: sweep=%v bench=%v", i, got, want)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("FamilyNames not sorted: %v", got)
		}
	}
	for _, name := range got {
		if !bench.ValidFamily(name) {
			t.Fatalf("bench.ValidFamily(%q) = false for a listed family", name)
		}
		if _, err := ParseFamily(name); err != nil {
			t.Fatalf("ParseFamily(%q) failed for a listed family: %v", name, err)
		}
	}
}

// TestGridValidateLatticeSizes pins the structured-family size rules:
// hypercube cells need 2^d or the punctured 2^d−1 vertices, torus cells a
// perfect square with side >= 3.
func TestGridValidateLatticeSizes(t *testing.T) {
	base := Grid{
		Params:  []float64{1},
		Algos:   []dhc.Algorithm{dhc.AlgorithmDRA},
		Engines: []dhc.Engine{dhc.EngineStep},
		Trials:  1, MasterSeed: 1,
	}
	for _, tc := range []struct {
		family Family
		size   int
		ok     bool
	}{
		{FamilyHypercube, 64, true},
		{FamilyHypercube, 63, true}, // punctured 2^6 − 1
		{FamilyHypercube, 65, false},
		{FamilyHypercube, 4, false}, // below the solver's minimum scale
		{FamilyTorus, 64, true},
		{FamilyTorus, 9, true},
		{FamilyTorus, 60, false},
		{FamilyTorus, 4, false}, // side 2 degenerates to duplicate wraps
	} {
		g := base
		g.Families = []Family{tc.family}
		g.Sizes = []int{tc.size}
		err := g.Validate()
		if tc.ok && err != nil {
			t.Errorf("%v n=%d rejected: %v", tc.family, tc.size, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%v n=%d accepted", tc.family, tc.size)
		}
	}
}

// TestCellTimeoutRecordsCanceled pins the per-cell timeout path: an
// already-expired cell budget cuts every trial off, the outcomes land in
// FailCanceled (not in the error or no-hc statistics), and the resulting
// section still satisfies the report schema's partition invariant.
func TestCellTimeoutRecordsCanceled(t *testing.T) {
	grid := Grid{
		Families: []Family{FamilyGNP},
		Sizes:    []int{64},
		Params:   []float64{1.5},
		Delta:    0.5,
		Algos:    []dhc.Algorithm{dhc.AlgorithmDRA},
		Engines:  []dhc.Engine{dhc.EngineExact},
		Trials:   4, MasterSeed: 5,
	}
	sec, err := Run(grid, Options{CellTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(sec.Cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(sec.Cells))
	}
	c := sec.Cells[0]
	if c.FailCanceled != c.Trials {
		t.Fatalf("expired cell budget: %d of %d trials canceled (%+v)", c.FailCanceled, c.Trials, c)
	}
	if c.Successes != 0 || c.FailError != 0 || c.FailNoHC != 0 || c.FailRoundLimit != 0 {
		t.Fatalf("canceled trials bled into other statistics: %+v", c)
	}
	rep := bench.NewReport("test", "go", 1)
	rep.Sweep = sec
	if err := rep.Validate(); err != nil {
		t.Fatalf("canceled cell breaks the schema partition: %v", err)
	}
}

// TestRunContextCancellation pins the interrupt path: a sweep cancelled
// after its first cell returns exactly the finished cells plus ctx's error,
// and the in-flight cell is abandoned rather than recorded — which is what
// keeps an interrupted checkpoint resumable to a byte-identical report.
func TestRunContextCancellation(t *testing.T) {
	grid := Grid{
		Families: []Family{FamilyGNP},
		Sizes:    []int{48, 64, 96},
		Params:   []float64{1.5},
		Delta:    0.5,
		Algos:    []dhc.Algorithm{dhc.AlgorithmDRA},
		Engines:  step(),
		Trials:   4, MasterSeed: 7,
	}
	full, err := Run(grid, Options{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	opts := Options{Progress: func(cell Cell, stats bench.CellStats, reused bool) {
		cancel() // interrupt after the first completed cell
	}}
	partial, err := RunContext(ctx, grid, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	if len(partial.Cells) != 1 {
		t.Fatalf("cancelled sweep recorded %d cells, want exactly the 1 finished before cancel", len(partial.Cells))
	}
	if got, want := encodeCell(t, partial.Cells[0]), encodeCell(t, full.Cells[0]); !bytes.Equal(got, want) {
		t.Fatal("finished cell of the interrupted sweep differs from the uninterrupted run")
	}

	// Resuming from the partial section must complete the identical report.
	resume := map[string]bench.CellStats{}
	for _, c := range partial.Cells {
		resume[c.Key()] = c
	}
	reusedCount := 0
	resumed, err := Run(grid, Options{
		Resume: resume,
		Progress: func(cell Cell, stats bench.CellStats, reused bool) {
			if reused {
				reusedCount++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if reusedCount != 1 {
		t.Fatalf("resume reused %d cells, want 1", reusedCount)
	}
	if !bytes.Equal(encodeSection(t, resumed), encodeSection(t, full)) {
		t.Fatal("resumed sweep differs from the uninterrupted run")
	}
}

// TestResumeSkipsCanceledCells pins the rule that a cell carrying canceled
// trials is never reused: it is wall-clock dependent, so resume must re-run
// it to restore determinism.
func TestResumeSkipsCanceledCells(t *testing.T) {
	grid := Grid{
		Families: []Family{FamilyGNP},
		Sizes:    []int{48},
		Params:   []float64{1.5},
		Delta:    0.5,
		Algos:    []dhc.Algorithm{dhc.AlgorithmDRA},
		Engines:  step(),
		Trials:   4, MasterSeed: 9,
	}
	full, err := Run(grid, Options{})
	if err != nil {
		t.Fatal(err)
	}
	poisoned := full.Cells[0]
	poisoned.Successes = 0
	poisoned.FailCanceled = poisoned.Trials
	poisoned.SuccessRate = 0
	reused := false
	resumed, err := Run(grid, Options{
		Resume:   map[string]bench.CellStats{poisoned.Key(): poisoned},
		Progress: func(cell Cell, stats bench.CellStats, r bool) { reused = reused || r },
	})
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Fatal("canceled cell was reused on resume")
	}
	if !bytes.Equal(encodeSection(t, resumed), encodeSection(t, full)) {
		t.Fatal("re-run after skipping the canceled cell differs from the clean run")
	}
}

// encodeCell renders one cell for byte comparison.
func encodeCell(t *testing.T, c bench.CellStats) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
