package sweep

// Regression tests for the per-cell diagnostics contract: FirstError samples
// failure messages by class severity (a config error is never masked by a
// routine no_hc string that happened to land in an earlier trial), and a
// solver-constructor failure surfaces as fail_error trials with the real
// message — never a nil-pointer panic.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"dhc"
	"dhc/internal/rng"
)

// TestFirstErrorPrefersConfigErrors pins the FirstError priority on a
// mixed-outcome cell: a no_hc sentinel in trial 0 must not occupy the slot
// when a later trial hit a genuine configuration error — that message is the
// one hcsweep -validate prints for the cell.
func TestFirstErrorPrefersConfigErrors(t *testing.T) {
	cell := Cell{Recipe: Recipe{Family: FamilyGNP, N: 64, Param: 1.5, Delta: 1},
		Algo: dhc.AlgorithmDRA, Engine: step()[0]}
	noHC := trialOutcome{class: dhc.FailureNoHC, err: errors.New("dhc: no Hamiltonian cycle found")}
	cfg := trialOutcome{class: dhc.FailureError, err: errors.New("dhc: delta 7 outside (0, 1]")}
	limit := trialOutcome{class: dhc.FailureRoundLimit, err: errors.New("congest: round limit reached")}
	canceled := trialOutcome{class: dhc.FailureCanceled, err: context.Canceled}

	cases := []struct {
		name string
		outs []trialOutcome
		want string
	}{
		{"config error beats earlier no_hc", []trialOutcome{noHC, limit, cfg}, cfg.err.Error()},
		{"round limit beats earlier no_hc", []trialOutcome{noHC, limit}, limit.err.Error()},
		{"canceled beats earlier no_hc", []trialOutcome{noHC, canceled}, canceled.err.Error()},
		{"no_hc fallback", []trialOutcome{noHC}, noHC.err.Error()},
		{"first in trial order within a class",
			[]trialOutcome{{class: dhc.FailureError, err: errors.New("first")},
				{class: dhc.FailureError, err: errors.New("second")}}, "first"},
		{"all ok leaves the slot empty", []trialOutcome{{class: dhc.FailureNone}}, ""},
	}
	for _, tc := range cases {
		stats := foldOutcomes(cell, len(tc.outs), tc.outs)
		if stats.FirstError != tc.want {
			t.Errorf("%s: FirstError = %q, want %q", tc.name, stats.FirstError, tc.want)
		}
	}

	// The outcome counters still partition the trials regardless of which
	// message was sampled.
	stats := foldOutcomes(cell, 3, []trialOutcome{noHC, limit, cfg})
	if stats.FailNoHC != 1 || stats.FailRoundLimit != 1 || stats.FailError != 1 {
		t.Fatalf("mixed cell counters: no_hc=%d round_limit=%d error=%d, want 1/1/1",
			stats.FailNoHC, stats.FailRoundLimit, stats.FailError)
	}
}

// TestConstructorErrorSurfacesAsFailError pins the runCell contract through
// the constructor seam: when dhc.NewSolver fails, every trial of the cell
// must be recorded as fail_error carrying the constructor's real message —
// not panic on a nil solver, and not silently fall back to a different error.
func TestConstructorErrorSurfacesAsFailError(t *testing.T) {
	ctorErr := errors.New("dhc: max rounds -1 must be >= 0")
	old := newSolver
	newSolver = func(dhc.Algorithm, dhc.Options) (*dhc.Solver, error) { return nil, ctorErr }
	defer func() { newSolver = old }()

	grid := Grid{
		Families:   []Family{FamilyGNP},
		Sizes:      []int{16},
		Params:     []float64{1.5},
		Algos:      []dhc.Algorithm{dhc.AlgorithmDRA},
		Engines:    step(),
		Trials:     4,
		MasterSeed: 1,
	}
	for _, workers := range []int{1, 4} {
		sec, err := Run(grid, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: Run: %v", workers, err)
		}
		if len(sec.Cells) != 1 {
			t.Fatalf("workers=%d: %d cells, want 1", workers, len(sec.Cells))
		}
		c := sec.Cells[0]
		if c.FailError != grid.Trials || c.Successes != 0 {
			t.Fatalf("workers=%d: fail_error=%d successes=%d, want %d/0",
				workers, c.FailError, c.Successes, grid.Trials)
		}
		if c.FirstError != ctorErr.Error() {
			t.Fatalf("workers=%d: FirstError = %q, want the constructor message %q",
				workers, c.FirstError, ctorErr.Error())
		}
	}
}

// TestRunTrialNilSolver exercises the nil-solver fallback path directly: a
// trial handed no session must fall back to one-shot solving and produce the
// same outcome a session trial does (the solver determinism contract), never
// dereference the nil pointer.
func TestRunTrialNilSolver(t *testing.T) {
	cell := Cell{Recipe: Recipe{Family: FamilyGNP, N: 48, Param: 1.5, Delta: 1},
		Algo: dhc.AlgorithmDRA, Engine: step()[0]}

	opts := dhc.Options{Engine: dhc.EngineStep, Delta: 1}
	solver, err := dhc.NewSolver(cell.Algo, opts)
	if err != nil {
		t.Fatal(err)
	}
	withSession := runTrial(context.Background(), opts, cell, solver, rng.New(9))
	fallback := runTrial(context.Background(), opts, cell, nil, rng.New(9))

	if fallback.class != withSession.class {
		t.Fatalf("fallback class %v != session class %v", fallback.class, withSession.class)
	}
	if fallback.rounds != withSession.rounds || fallback.steps != withSession.steps {
		t.Fatalf("fallback costs (%d rounds, %d steps) != session costs (%d, %d)",
			fallback.rounds, fallback.steps, withSession.rounds, withSession.steps)
	}
	if fallback.err != nil && withSession.err != nil &&
		fallback.err.Error() != withSession.err.Error() {
		t.Fatalf("fallback error %q != session error %q", fallback.err, withSession.err)
	}
	if fallback.err != nil && !strings.Contains(fallback.err.Error(), "dhc") &&
		fallback.class == dhc.FailureError {
		t.Fatalf("unexpected fallback config error: %v", fallback.err)
	}
}
