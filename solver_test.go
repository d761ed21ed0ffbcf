package dhc

// Tests for the Solver session lifecycle introduced with the run-lifecycle
// layer: engine-state reuse across trials (allocation regression + the
// byte-identical contract), context cancellation through both engines, and
// the FailureCanceled taxonomy class. The load-bearing properties:
//
//  1. A Solver trial is byte-identical to a fresh Solve with the same
//     (graph, seed), regardless of session history — reuse must be
//     invisible in results.
//  2. Repeated Solver trials allocate a small fraction (>= 5x less) of what
//     fresh Solve calls do on same-shape instances.
//  3. Cancellation surfaces as context.Canceled / DeadlineExceeded
//     (FailureCanceled), leaks no goroutines, and never corrupts the
//     session: an uncancelled rerun of the same seed on the same Solver is
//     byte-identical to a never-cancelled run.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// assertSameResult compares every deterministic field of two results.
func assertSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	wantOrder, gotOrder := want.Cycle.Order(), got.Cycle.Order()
	if len(wantOrder) != len(gotOrder) {
		t.Fatalf("%s: cycle length %d != %d", label, len(gotOrder), len(wantOrder))
	}
	for i := range wantOrder {
		if wantOrder[i] != gotOrder[i] {
			t.Fatalf("%s: cycle diverges at position %d", label, i)
		}
	}
	if want.Rounds != got.Rounds || want.Steps != got.Steps ||
		want.Phase1Rounds != got.Phase1Rounds || want.Phase2Rounds != got.Phase2Rounds {
		t.Fatalf("%s: costs differ: want rounds=%d steps=%d p1=%d p2=%d, got rounds=%d steps=%d p1=%d p2=%d",
			label, want.Rounds, want.Steps, want.Phase1Rounds, want.Phase2Rounds,
			got.Rounds, got.Steps, got.Phase1Rounds, got.Phase2Rounds)
	}
	if (want.Counters == nil) != (got.Counters == nil) {
		t.Fatalf("%s: counters presence differs", label)
	}
	if want.Counters != nil {
		if want.Counters.Messages != got.Counters.Messages || want.Counters.Bits != got.Counters.Bits ||
			want.Counters.Rounds != got.Counters.Rounds || want.Counters.Invocations != got.Counters.Invocations {
			t.Fatalf("%s: counters differ: want %v, got %v", label, want.Counters, got.Counters)
		}
	}
	// Shard stats agree on everything but BusySeconds, a wall-clock reading.
	if len(want.ShardStats) != len(got.ShardStats) {
		t.Fatalf("%s: %d shard stats, want %d", label, len(got.ShardStats), len(want.ShardStats))
	}
	for i, ws := range want.ShardStats {
		gs := got.ShardStats[i]
		ws.BusySeconds, gs.BusySeconds = 0, 0
		if ws != gs {
			t.Fatalf("%s: shard %d stats differ: want %+v, got %+v", label, i, ws, gs)
		}
	}
}

// TestSolverReuseMatchesFreshSolve pins property 1 over both engines, the
// sharded exact engine and every algorithm: interleaved trials with distinct
// seeds (and a failing sub-threshold trial in the middle) through one Solver
// must equal fresh Solve calls byte for byte. In the sharded leg the Solver
// reuses one shard cluster for every trial, and each trial's per-shard wire
// accounting must match too.
func TestSolverReuseMatchesFreshSolve(t *testing.T) {
	g := NewGNP(96, 0.6, 11)
	sparse := NewGNP(96, 0.02, 12)
	for _, leg := range []struct {
		engine Engine
		shards int
	}{{EngineExact, 0}, {EngineStep, 0}, {EngineExact, 3}} {
		for _, algo := range []Algorithm{AlgorithmDRA, AlgorithmDHC1, AlgorithmDHC2, AlgorithmUpcast} {
			name := fmt.Sprintf("%s/engine=%d", algo, leg.engine)
			if leg.shards > 0 {
				name += fmt.Sprintf("/shards=%d", leg.shards)
			}
			t.Run(name, func(t *testing.T) {
				// K = 4 partitions of ~24 vertices: at K = 6 (16 vertices)
				// some step-engine seeds exhaust a partition's attempts.
				opts := Options{Engine: leg.engine, NumColors: 4, Shards: leg.shards}
				solver, err := NewSolver(algo, opts)
				if err != nil {
					t.Fatal(err)
				}
				for trial, seed := range []uint64{3, 7, 3, 19} {
					if trial == 2 {
						// A genuine failure between trials must not disturb
						// the session.
						if _, err := solver.SolveSeeded(context.Background(), sparse, 5); err == nil {
							t.Fatal("sub-threshold instance unexpectedly solved")
						}
					}
					o := opts
					o.Seed = seed
					want, err := Solve(g, algo, o)
					if err != nil {
						t.Fatalf("fresh solve (seed %d): %v", seed, err)
					}
					got, err := solver.SolveSeeded(context.Background(), g, seed)
					if err != nil {
						t.Fatalf("session solve (seed %d): %v", seed, err)
					}
					assertSameResult(t, fmt.Sprintf("trial %d seed %d", trial, seed), want, got)
				}
			})
		}
	}
}

// TestSolverReuseAllocBytes is the allocation regression test of the
// acceptance criteria: repeated Solver trials on same-shape instances must
// allocate at least 5x fewer bytes per trial than fresh Solve calls. It
// measures heap bytes directly (TotalAlloc deltas over a fixed trial count,
// single-goroutine, so the measurement is stable) on the exact engine, whose
// per-run program arena every algorithm shares. Upcast stays out: its
// programs rebuild their routing maps in Init, so reuse saves only ~3x.
func TestSolverReuseAllocBytes(t *testing.T) {
	g := NewGNP(128, 0.5, 21)
	const trials = 6
	seeds := []uint64{1, 2, 3, 4, 5, 6}

	measure := func(f func()) uint64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	for _, tc := range []struct {
		algo Algorithm
		opts Options
	}{
		{AlgorithmDRA, Options{Engine: EngineExact}},
		{AlgorithmDHC1, Options{Engine: EngineExact, NumColors: 4}},
		{AlgorithmDHC2, Options{Engine: EngineExact, NumColors: 4}},
	} {
		t.Run(tc.algo.String(), func(t *testing.T) {
			freshBytes := measure(func() {
				for _, seed := range seeds {
					o := tc.opts
					o.Seed = seed
					if _, err := Solve(g, tc.algo, o); err != nil {
						t.Fatal(err)
					}
				}
			})
			solver, err := NewSolver(tc.algo, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			// Warm the session: the first trial builds the arena it then reuses.
			if _, err := solver.SolveSeeded(context.Background(), g, seeds[0]); err != nil {
				t.Fatal(err)
			}
			reuseBytes := measure(func() {
				for _, seed := range seeds {
					if _, err := solver.SolveSeeded(context.Background(), g, seed); err != nil {
						t.Fatal(err)
					}
				}
			})
			ratio := float64(freshBytes) / float64(reuseBytes)
			t.Logf("fresh: %d B/trial, reused: %d B/trial, ratio %.1fx",
				freshBytes/trials, reuseBytes/trials, ratio)
			if ratio < 5 {
				t.Fatalf("solver reuse saves only %.1fx bytes/trial (fresh %d, reused %d); want >= 5x",
					ratio, freshBytes/trials, reuseBytes/trials)
			}
		})
	}
}

// waitNoGoroutineLeak asserts the goroutine count settles back to the
// baseline (worker pools are joined, nothing keeps running after a cancelled
// solve).
func waitNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSolverCancelExactEngine cancels exact-engine runs at a random round
// (via the Observer's amortized round checkpoint) for Workers 1 and 4,
// checks the error and class, the goroutine baseline, and that an
// uncancelled rerun of the same seed on the same Solver is byte-identical to
// a never-cancelled fresh run.
func TestSolverCancelExactEngine(t *testing.T) {
	g := NewGNP(96, 0.8, 31)
	rnd := rand.New(rand.NewSource(2018))
	for _, algo := range []Algorithm{AlgorithmDRA, AlgorithmDHC1, AlgorithmDHC2} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", algo, workers), func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				opts := Options{Engine: EngineExact, NumColors: 4, Workers: workers, Seed: 9}
				want, err := Solve(g, algo, opts)
				if err != nil {
					t.Fatal(err)
				}
				// Pick a random cancellation round in the run's first half;
				// the checkpoint fires every few dozen rounds, so any
				// threshold lands mid-run.
				cancelAt := 1 + int64(rnd.Intn(int(want.Rounds/2)+1))
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				cancelOpts := opts
				cancelOpts.Observer = &Observer{OnRounds: func(rounds int64) {
					if rounds >= cancelAt {
						cancel()
					}
				}}
				solver, err := NewSolver(algo, cancelOpts)
				if err != nil {
					t.Fatal(err)
				}
				_, err = solver.Solve(ctx, g)
				if err == nil {
					t.Fatalf("run at cancel round %d (of %d) was not cancelled", cancelAt, want.Rounds)
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled run returned %v, want context.Canceled on the chain", err)
				}
				if class := Classify(err); class != FailureCanceled {
					t.Fatalf("cancelled run classified %v, want %v", class, FailureCanceled)
				}
				waitNoGoroutineLeak(t, baseline)
				// The same session, uncancelled, must reproduce the fresh
				// run byte for byte.
				got, err := solver.Solve(context.Background(), g)
				if err != nil {
					t.Fatalf("rerun after cancellation: %v", err)
				}
				assertSameResult(t, "rerun after cancellation", want, got)
			})
		}
	}
}

// TestSolverCancelStepEngine cancels step-engine runs mid-run — at the
// phase-2 transition, reported synchronously by the Observer — for Workers 1
// and 4, with the same reuse-after-cancel and leak assertions.
func TestSolverCancelStepEngine(t *testing.T) {
	g := NewGNP(256, 0.8, 41)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			opts := Options{Engine: EngineStep, NumColors: 8, Workers: workers, Seed: 9}
			want, err := Solve(g, AlgorithmDHC2, opts)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cancelOpts := opts
			cancelOpts.Observer = &Observer{OnPhase: func(phase string) {
				if phase == "phase2" {
					cancel()
				}
			}}
			solver, err := NewSolver(AlgorithmDHC2, cancelOpts)
			if err != nil {
				t.Fatal(err)
			}
			_, err = solver.Solve(ctx, g)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run returned %v, want context.Canceled on the chain", err)
			}
			if class := Classify(err); class != FailureCanceled {
				t.Fatalf("cancelled run classified %v, want %v", class, FailureCanceled)
			}
			waitNoGoroutineLeak(t, baseline)
			got, err := solver.Solve(context.Background(), g)
			if err != nil {
				t.Fatalf("rerun after cancellation: %v", err)
			}
			assertSameResult(t, "rerun after cancellation", want, got)
		})
	}
}

// TestSolveContextDeadline drives the DeadlineExceeded path of both engines:
// an already-expired deadline must cut the run off before it does any work
// and classify as FailureCanceled.
func TestSolveContextDeadline(t *testing.T) {
	g := NewGNP(64, 0.5, 51)
	for _, engine := range []Engine{EngineExact, EngineStep} {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		_, err := SolveContext(ctx, g, AlgorithmDRA, Options{Seed: 1, Engine: engine})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("engine %d: got %v, want context.DeadlineExceeded on the chain", engine, err)
		}
		if class := Classify(err); class != FailureCanceled {
			t.Fatalf("engine %d: classified %v, want %v", engine, class, FailureCanceled)
		}
		if errors.Is(err, ErrNoHamiltonianCycle) {
			t.Fatalf("engine %d: cancellation wrongly tagged as a no-cycle verdict", engine)
		}
	}
}

// TestObserverCallbacks pins the Observer contract: the step engine reports
// its real phases in order, and the exact engine reports its run phase plus
// round progress that only ever increases.
func TestObserverCallbacks(t *testing.T) {
	g := NewGNP(96, 0.6, 61)

	var phases []string
	_, err := Solve(g, AlgorithmDHC2, Options{
		Seed: 1, Engine: EngineStep, NumColors: 6,
		Observer: &Observer{OnPhase: func(p string) { phases = append(phases, p) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 2 || phases[0] != "phase1" || phases[1] != "phase2" {
		t.Fatalf("step engine phases = %v, want [phase1 phase2]", phases)
	}

	var runPhases []string
	var beats atomic.Int64
	var last int64
	res, err := Solve(g, AlgorithmDHC2, Options{
		Seed: 1, Engine: EngineExact, NumColors: 6,
		Observer: &Observer{
			OnPhase: func(p string) { runPhases = append(runPhases, p) },
			OnRounds: func(rounds int64) {
				beats.Add(1)
				if rounds < last {
					t.Errorf("round progress went backwards: %d after %d", rounds, last)
				}
				last = rounds
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(runPhases) != 1 || runPhases[0] != "run" {
		t.Fatalf("exact engine phases = %v, want [run]", runPhases)
	}
	if beats.Load() == 0 {
		t.Fatal("exact engine fired no round-progress callbacks")
	}
	if last > res.Rounds {
		t.Fatalf("last progress %d exceeds final rounds %d", last, res.Rounds)
	}
	// Observed and unobserved runs must be byte-identical.
	plain, err := Solve(g, AlgorithmDHC2, Options{Seed: 1, Engine: EngineExact, NumColors: 6})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "observer vs plain", plain, res)
}

// TestMaxRoundsOption pins Options.MaxRounds: negatives are rejected up
// front (FailureError), and a tiny budget turns
// every exact-engine algorithm's run into a round-limit failure — through
// the congest layer for the single-phase algorithms and through both DHC
// core drivers.
func TestMaxRoundsOption(t *testing.T) {
	g := NewGNP(64, 0.5, 71)
	if _, err := Solve(g, AlgorithmDRA, Options{Seed: 1, MaxRounds: -1}); err == nil {
		t.Fatal("negative MaxRounds accepted")
	} else if Classify(err) != FailureError {
		t.Fatalf("negative MaxRounds classified %v, want %v", Classify(err), FailureError)
	}
	if _, err := NewSolver(AlgorithmDRA, Options{MaxRounds: -1}); err == nil {
		t.Fatal("NewSolver accepted negative MaxRounds")
	}
	for _, algo := range []Algorithm{AlgorithmDRA, AlgorithmDHC1, AlgorithmDHC2, AlgorithmUpcast} {
		_, class, err := Trial(g, algo, Options{Seed: 1, NumColors: 4, MaxRounds: 3})
		if err == nil {
			t.Fatalf("%s: 3-round budget unexpectedly sufficed", algo)
		}
		if class != FailureRoundLimit {
			t.Fatalf("%s: tiny budget classified %v (%v), want %v", algo, class, err, FailureRoundLimit)
		}
	}
	// A generous explicit budget must not change the result.
	want, err := Solve(g, AlgorithmDHC2, Options{Seed: 1, NumColors: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Solve(g, AlgorithmDHC2, Options{Seed: 1, NumColors: 4, MaxRounds: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "explicit generous budget", want, got)
}

// TestParseErrorsListValidNames pins the deterministic (sorted) vocabulary
// listings of the parse errors, per the CLI-stability satellite.
func TestParseErrorsListValidNames(t *testing.T) {
	_, err := ParseAlgorithm("nope")
	if err == nil {
		t.Fatal("bad algorithm name accepted")
	}
	want := `dhc: unknown algorithm "nope" (valid: dhc1, dhc2, dra, upcast)`
	if err.Error() != want {
		t.Fatalf("ParseAlgorithm error = %q, want %q", err.Error(), want)
	}
	names := AlgorithmNames()
	wantNames := []string{"dhc1", "dhc2", "dra", "upcast"}
	if len(names) != len(wantNames) {
		t.Fatalf("AlgorithmNames() = %v", names)
	}
	for i := range names {
		if names[i] != wantNames[i] {
			t.Fatalf("AlgorithmNames() = %v, want %v", names, wantNames)
		}
	}
}

// TestEngineParseError pins ParseEngine's vocabulary: the engine names
// round-trip through String, and an unknown name fails with the sorted list.
// "dist" and "exact-dense" are not engines — sharding is Options.Shards and
// the dense sweep is congest.Options.DenseSweep, a test oracle — so both
// must fail rather than run something else.
func TestEngineParseError(t *testing.T) {
	for _, name := range EngineNames() {
		if e, err := ParseEngine(name); err != nil || e.String() != name {
			t.Fatalf("ParseEngine(%q) = %v, %v", name, e, err)
		}
	}
	for _, name := range []string{"warp", "dist", "exact-dense"} {
		_, err := ParseEngine(name)
		if err == nil {
			t.Fatalf("engine name %q accepted", name)
		}
		want := `dhc: unknown engine "` + name + `" (valid: exact, step)`
		if err.Error() != want {
			t.Fatalf("ParseEngine error = %q, want %q", err.Error(), want)
		}
	}
}

// TestFailureCanceledString pins the taxonomy spelling used by the report
// schema.
func TestFailureCanceledString(t *testing.T) {
	if got := FailureCanceled.String(); got != "canceled" {
		t.Fatalf("FailureCanceled.String() = %q, want %q", got, "canceled")
	}
	if got := Classify(context.Canceled); got != FailureCanceled {
		t.Fatalf("Classify(context.Canceled) = %v, want %v", got, FailureCanceled)
	}
	if got := Classify(context.DeadlineExceeded); got != FailureCanceled {
		t.Fatalf("Classify(context.DeadlineExceeded) = %v, want %v", got, FailureCanceled)
	}
}

// TestSolverConcurrentUseGuard pins the session concurrency contract: a Solve
// call that overlaps an in-flight trial on the same Solver must fail fast
// with ErrSolverInUse (classified FailureError — a usage bug, not instance
// evidence) instead of racing on the shared arena, and the session must stay
// fully usable afterwards. The overlap is forced deterministically: the first
// trial parks inside its Observer.OnPhase callback (which runs on the solving
// goroutine with the guard held) while the second call is issued.
func TestSolverConcurrentUseGuard(t *testing.T) {
	g := NewGNP(128, ThresholdP(128, 3, 0.5), 1)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once atomic.Bool
	solver, err := NewSolver(AlgorithmDRA, Options{
		Engine: EngineStep,
		Observer: &Observer{OnPhase: func(string) {
			if once.CompareAndSwap(false, true) {
				close(entered)
				<-release
			}
		}},
	})
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := solver.SolveSeeded(context.Background(), g, 7)
		done <- err
	}()
	<-entered

	if _, err := solver.SolveSeeded(context.Background(), g, 8); !errors.Is(err, ErrSolverInUse) {
		t.Fatalf("overlapping Solve error = %v, want ErrSolverInUse", err)
	}
	if got := Classify(ErrSolverInUse); got != FailureError {
		t.Fatalf("Classify(ErrSolverInUse) = %v, want FailureError", got)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("first trial failed: %v", err)
	}

	// The guard must release on every exit path: the session still solves,
	// byte-identical to a fresh run.
	res, err := solver.SolveSeeded(context.Background(), g, 8)
	if err != nil {
		t.Fatalf("post-overlap trial failed: %v", err)
	}
	fresh, err := Solve(g, AlgorithmDRA, Options{Engine: EngineStep, Seed: 8})
	if err != nil {
		t.Fatalf("fresh solve failed: %v", err)
	}
	assertSameResult(t, "post-overlap reuse", fresh, res)
}
