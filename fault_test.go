package dhc

// Fault-injection conformance: the end-to-end verification story promoted
// from examples/faulty into a pinned regression. The CONGEST simulator's
// fault hook perturbs or drops protocol messages mid-flight; the safety
// property under test is that a perturbed run NEVER silently returns an
// unverified cycle — it either errors, or whatever cycle it does return
// still passes independent verification. The property must hold under both
// exact-engine scheduling modes (event-driven and the dense-sweep oracle):
// fault handling may not depend on the scheduler. The step engine is out of
// scope by construction — it exchanges no messages, so there is no wire to
// corrupt.

import (
	"fmt"
	"testing"

	"dhc/internal/congest"
	"dhc/internal/core"
	"dhc/internal/dra"
	"dhc/internal/graph"
	"dhc/internal/wire"
)

// corruptEveryNth returns a fault hook that shifts the second argument of
// every nth message of the given kind — the perturbation of examples/faulty
// (a rotation renumbering off by one) generalized per message kind.
func corruptEveryNth(kind wire.Kind, nth int) congest.Options {
	count := 0
	return congest.Options{
		FaultHook: func(round int64, from, to graph.NodeID, m wire.Message) (wire.Message, bool) {
			if m.Kind == kind && m.NArgs > 1 {
				count++
				if count%nth == 0 {
					bad := m
					bad.Args[1]++
					return bad, true
				}
			}
			return m, true
		},
	}
}

// dropEveryNth returns a fault hook that silently drops every nth message
// (any kind) — loss rather than corruption.
func dropEveryNth(nth int) congest.Options {
	count := 0
	return congest.Options{
		FaultHook: func(round int64, from, to graph.NodeID, m wire.Message) (wire.Message, bool) {
			count++
			return m, count%nth != 0
		},
	}
}

// TestFaultHookNeverYieldsUnverifiedCycle runs DRA under a matrix of fault
// patterns and both scheduling modes. Every outcome must be safe: an error,
// or a cycle that independently verifies.
func TestFaultHookNeverYieldsUnverifiedCycle(t *testing.T) {
	skipIfShort(t)
	g := NewGNP(120, 0.4, 5)
	faults := map[string]func() congest.Options{
		"corrupt-rotation-50th": func() congest.Options { return corruptEveryNth(wire.KindRotation, 50) },
		"corrupt-rotation-7th":  func() congest.Options { return corruptEveryNth(wire.KindRotation, 7) },
		"drop-every-97th":       func() congest.Options { return dropEveryNth(97) },
	}
	sawFailure := false
	for name, mkOpts := range faults {
		for _, dense := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/dense=%v", name, dense), func(t *testing.T) {
				for seed := uint64(1); seed <= 3; seed++ {
					netOpts := mkOpts()
					netOpts.DenseSweep = dense
					res, err := dra.NewSession(dra.NodeOptions{}).RunLocal(g, seed, netOpts)
					if err != nil {
						sawFailure = true
						continue
					}
					// A survived run must still hold a genuinely valid
					// cycle under the independent verifier.
					if verr := Verify(g, res.Cycle); verr != nil {
						t.Fatalf("seed %d: perturbed run returned an unverified cycle: %v", seed, verr)
					}
				}
			})
		}
	}
	if !sawFailure {
		t.Fatal("no fault pattern ever failed a run — the hooks are not biting and the test is vacuous")
	}
}

// TestFaultHookAcrossAlgorithms extends the safety property to the
// partitioned algorithms: DHC1's and DHC2's multi-phase protocols (scoped
// floods, hypernode rotation, pairwise merges) must also fail closed when
// their coordination messages are corrupted.
func TestFaultHookAcrossAlgorithms(t *testing.T) {
	skipIfShort(t)
	g := NewGNP(160, 0.6, 9)
	for _, dense := range []bool{false, true} {
		t.Run(fmt.Sprintf("dhc1/dense=%v", dense), func(t *testing.T) {
			netOpts := corruptEveryNth(wire.KindRotation, 9)
			netOpts.DenseSweep = dense
			res, err := core.NewDHC1Session(core.Options{NumColors: 4}).RunLocal(g, 3, netOpts)
			if err == nil {
				if verr := Verify(g, res.Cycle); verr != nil {
					t.Fatalf("perturbed DHC1 returned an unverified cycle: %v", verr)
				}
			}
		})
		t.Run(fmt.Sprintf("dhc2/dense=%v", dense), func(t *testing.T) {
			netOpts := dropEveryNth(41)
			netOpts.DenseSweep = dense
			res, err := core.NewDHC2Session(core.Options{NumColors: 4}).RunLocal(g, 3, netOpts)
			if err == nil {
				if verr := Verify(g, res.Cycle); verr != nil {
					t.Fatalf("perturbed DHC2 returned an unverified cycle: %v", verr)
				}
			}
		})
	}
}

// TestFaultHookHealthyBaseline pins the control: with no faults the same
// instances solve cleanly, so the failures observed above are attributable
// to the injected faults and not to the instances.
func TestFaultHookHealthyBaseline(t *testing.T) {
	g := NewGNP(120, 0.4, 5)
	res, err := dra.NewSession(dra.NodeOptions{}).RunLocal(g, 1, congest.Options{})
	if err != nil {
		t.Fatalf("healthy run failed: %v", err)
	}
	if err := Verify(g, res.Cycle); err != nil {
		t.Fatal(err)
	}
}
