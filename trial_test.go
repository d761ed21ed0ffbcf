package dhc

// Tests for the trial-friendly single-shot API: the failure taxonomy that
// the Monte Carlo sweep harness (internal/sweep) builds its per-cell
// statistics from. The taxonomy's load-bearing property is separation:
// genuine negatives, round-limit cut-offs and configuration errors must
// never bleed into each other, because each feeds a different statistic.

import (
	"errors"
	"fmt"
	"testing"

	"dhc/internal/congest"
	"dhc/internal/stepsim"
)

func TestClassifySyntheticErrors(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want FailureClass
	}{
		{"nil", nil, FailureNone},
		{"no-hc sentinel", ErrNoHamiltonianCycle, FailureNoHC},
		{"wrapped step failure", wrapNoHC(fmt.Errorf("%w: boom", stepsim.ErrFailed)), FailureNoHC},
		{"wrapped round limit", wrapNoHC(fmt.Errorf("%w: 99 rounds", congest.ErrRoundLimit)), FailureRoundLimit},
		{"bare round limit", congest.ErrRoundLimit, FailureRoundLimit},
		{"config error", errors.New("dhc: delta out of range"), FailureError},
		{"bandwidth violation", congest.ErrBandwidth, FailureError},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestWrapNoHCPreservesUnwrapChain pins the double-%w wrapping: after
// tagging with ErrNoHamiltonianCycle the original sentinel must stay
// reachable via errors.Is, or Classify could not tell a round-limit
// cut-off from an ordinary negative.
func TestWrapNoHCPreservesUnwrapChain(t *testing.T) {
	err := wrapNoHC(fmt.Errorf("%w: 42 rounds", congest.ErrRoundLimit))
	if !errors.Is(err, ErrNoHamiltonianCycle) {
		t.Fatal("wrapped error lost the no-cycle sentinel")
	}
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatal("wrapped error lost the round-limit sentinel")
	}
}

func TestFailureClassString(t *testing.T) {
	want := map[FailureClass]string{
		FailureNone:       "ok",
		FailureNoHC:       "no_hc",
		FailureRoundLimit: "round_limit",
		FailureError:      "error",
	}
	for class, name := range want {
		if class.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(class), class.String(), name)
		}
	}
	if FailureClass(99).String() != "failure(99)" {
		t.Errorf("unknown class: %q", FailureClass(99).String())
	}
}

// TestTrialEndToEnd drives each class through a real Solve: a dense solvable
// instance, a sub-threshold negative, and a configuration error.
func TestTrialEndToEnd(t *testing.T) {
	g := NewGNP(64, 0.5, 1)
	res, class, err := Trial(g, AlgorithmDRA, Options{Seed: 2, Engine: EngineStep})
	if class != FailureNone || err != nil || res == nil {
		t.Fatalf("solvable trial: class=%v err=%v", class, err)
	}
	if err := Verify(g, res.Cycle); err != nil {
		t.Fatal(err)
	}

	sparse := NewGNP(64, 0.02, 1)
	res, class, err = Trial(sparse, AlgorithmDRA, Options{Seed: 2, Engine: EngineStep})
	if class != FailureNoHC || err == nil || res != nil {
		t.Fatalf("sub-threshold trial: class=%v err=%v res=%v", class, err, res)
	}

	res, class, err = Trial(g, AlgorithmDHC2, Options{Seed: 2, Engine: EngineStep, Delta: 7})
	if class != FailureError || err == nil || res != nil {
		t.Fatalf("bad-delta trial: class=%v err=%v res=%v", class, err, res)
	}

	if _, class, _ = Trial(g, AlgorithmDRA, Options{MaxRounds: -1}); class != FailureError {
		t.Fatalf("negative round budget: class=%v", class)
	}
}
