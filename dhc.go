// Package dhc is a Go reproduction of "Fast and Efficient Distributed
// Computation of Hamiltonian Cycles in Random Graphs" (Chatterjee, Fathi,
// Pandurangan, Pham — ICDCS 2018): randomized distributed algorithms that
// find Hamiltonian cycles in G(n, p) random graphs in the synchronous
// CONGEST model.
//
// The package exposes two engines:
//
//   - the exact engine simulates every CONGEST round and message, enforcing
//     the O(log n)-bit per-edge bandwidth and metering rounds, messages,
//     bits, and per-node memory (EngineExact);
//   - the step engine executes the same algorithm logic at rotation-step
//     granularity and charges the paper's round costs, scaling to millions
//     of vertices (EngineStep).
//
// Quick start:
//
//	g := dhc.NewGNP(1024, dhc.ThresholdP(1024, 8, 0.5), 1)
//	res, err := dhc.Solve(g, dhc.AlgorithmDHC2, dhc.Options{Seed: 2, Delta: 0.5})
package dhc

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"dhc/internal/congest"
	"dhc/internal/core"
	"dhc/internal/cycle"
	"dhc/internal/dist"
	"dhc/internal/dra"
	"dhc/internal/graph"
	"dhc/internal/metrics"
	"dhc/internal/rng"
	"dhc/internal/stepsim"
	"dhc/internal/upcast"
)

// Graph re-exports the immutable undirected graph type.
type Graph = graph.Graph

// NodeID re-exports the vertex identifier type.
type NodeID = graph.NodeID

// Cycle re-exports the Hamiltonian-cycle result type.
type Cycle = cycle.Cycle

// Counters re-exports the exact engine's cost counters.
type Counters = metrics.Counters

// NewGNP samples an Erdős–Rényi G(n, p) random graph deterministically from
// the seed.
func NewGNP(n int, p float64, seed uint64) *Graph {
	return graph.GNP(n, p, rng.New(seed))
}

// NewGNM samples a uniform n-vertex graph with exactly m edges.
func NewGNM(n, m int, seed uint64) *Graph {
	return graph.GNM(n, m, rng.New(seed))
}

// NewRandomRegular samples a d-regular random graph.
func NewRandomRegular(n, d int, seed uint64) (*Graph, error) {
	return graph.RandomRegular(n, d, rng.New(seed))
}

// ThresholdP returns p = c·ln(n)/n^delta, the paper's edge-probability
// parameterization (clamped to [0, 1]).
func ThresholdP(n int, c, delta float64) float64 {
	return graph.HCThresholdP(n, c, delta)
}

// Algorithm selects which of the paper's algorithms to run.
type Algorithm int

const (
	// AlgorithmDRA is the standalone Distributed Rotation Algorithm
	// (Algorithm 1), the building block of both DHC algorithms.
	AlgorithmDRA Algorithm = iota + 1
	// AlgorithmDHC1 is Algorithm 2: √n partitions plus a hypernode
	// rotation (for p ≈ c·ln n/√n).
	AlgorithmDHC1
	// AlgorithmDHC2 is Algorithm 3: n^{1-δ} partitions plus ⌈log K⌉
	// parallel pairwise merge levels (for p ≈ c·ln n/n^δ).
	AlgorithmDHC2
	// AlgorithmUpcast is the Section III centralized algorithm: sample
	// Θ(log n) edges per node, upcast to a root, solve locally, downcast.
	AlgorithmUpcast
)

var algorithmNames = map[Algorithm]string{
	AlgorithmDRA:    "dra",
	AlgorithmDHC1:   "dhc1",
	AlgorithmDHC2:   "dhc2",
	AlgorithmUpcast: "upcast",
}

// String returns the algorithm's short name.
func (a Algorithm) String() string {
	if s, ok := algorithmNames[a]; ok {
		return s
	}
	return fmt.Sprintf("algorithm(%d)", int(a))
}

// AlgorithmNames returns every algorithm's short name in sorted order — the
// vocabulary ParseAlgorithm accepts, spelled the way its error reports it.
func AlgorithmNames() []string {
	names := make([]string, 0, len(algorithmNames))
	for _, name := range algorithmNames {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ParseAlgorithm resolves a short name ("dra", "dhc1", "dhc2", "upcast").
// The error of an unknown name lists the valid names deterministically
// (sorted), so CLI messages are stable across runs.
func ParseAlgorithm(s string) (Algorithm, error) {
	for a, name := range algorithmNames {
		if name == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("dhc: unknown algorithm %q (valid: %s)", s, strings.Join(AlgorithmNames(), ", "))
}

// Engine selects the simulation fidelity.
type Engine int

const (
	// EngineExact simulates every CONGEST round and message.
	EngineExact Engine = iota + 1
	// EngineStep executes at rotation-step granularity with charged round
	// costs; orders of magnitude faster for large n.
	EngineStep
)

var engineNames = map[Engine]string{
	EngineExact: "exact",
	EngineStep:  "step",
}

// String returns the engine's short name.
func (e Engine) String() string {
	if s, ok := engineNames[e]; ok {
		return s
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// EngineNames returns every engine's short name in sorted order — the
// vocabulary ParseEngine accepts, spelled the way its error reports it.
func EngineNames() []string {
	names := make([]string, 0, len(engineNames))
	for _, name := range engineNames {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ParseEngine resolves a short name ("exact", "step"). The error of an
// unknown name lists the valid names deterministically (sorted), so CLI
// messages are stable across runs. Sharding is not an engine: it is
// Options.Shards.
func ParseEngine(s string) (Engine, error) {
	for e, name := range engineNames {
		if name == s {
			return e, nil
		}
	}
	return 0, fmt.Errorf("dhc: unknown engine %q (valid: %s)", s, strings.Join(EngineNames(), ", "))
}

// Options configures Solve.
type Options struct {
	// Seed makes the run deterministic. Same graph + same seed = same
	// cycle, metrics, everything.
	Seed uint64
	// Engine defaults to EngineExact.
	Engine Engine
	// Delta is DHC2's sparsity exponent (0 < δ ≤ 1); ignored elsewhere.
	Delta float64
	// NumColors overrides the partition count K for DHC1/DHC2.
	NumColors int
	// Workers bounds the step engine's parallelism: its sharded phase 1
	// and parallel phase-2 merge tree. Any value (0, 1, 4, ...) produces
	// byte-identical results; only wall-clock changes. The exact engine
	// ignores it: it runs on one goroutine, or on Shards workers.
	Workers int
	// BroadcastBound overrides B, the bound the exact engine's
	// broadcast/BFS settling waits are charged at. For DRA and Upcast that
	// is every wait (DRA's rotation consistency waits included). For DHC1
	// and DHC2 it is the windows timed before anything is measured: the
	// global BFS and each partition's election, BFS tree and size count.
	// Their partitions then wait their own measured bounds (2·depth+1 of
	// the partition's BFS tree) after each rotation. DHC1's hypernode
	// phase, whose floods stay within one partition or on the global BFS
	// tree, waits the largest of those and the global tree's bound, as the
	// barrier reports it. DHC2's merge levels flood unions of partitions,
	// which no node measures: a level waits the largest partition bound if
	// every node has a neighbor in each partition of its union, else B, or
	// the largest partition bound where that is larger. Zero keeps each
	// algorithm's default: a tight bound computed from an eccentricity BFS
	// — global knowledge the CONGEST model does not actually grant — which
	// DHC floors at 3⌈log₂ n⌉+6 for colour classes of larger diameter than
	// the graph.
	// Setting BroadcastBound to n selects the paper's assumption-free
	// trivial bound for those windows; its long quiet waits are exactly
	// what the event-driven engine skips. Exact engine only.
	BroadcastBound int64
	// MaxRounds overrides the exact engine's round budget — the watchdog
	// that turns a non-terminating run into ErrRoundLimit. Zero keeps each
	// algorithm's derived default; negatives are rejected up front (like
	// BroadcastBound, a negative budget would surface as a round-limit
	// failure and corrupt the failure taxonomy). Ignored by EngineStep,
	// which has no round loop to bound — use a context deadline there.
	MaxRounds int64
	// Shards > 1 runs the exact engine distributed: the vertex set is
	// partitioned into that many contiguous shards, each executed by its own
	// worker behind a real transport (see Transport), with the coordinator
	// replaying the in-process round loop over per-round message batches. A
	// distributed run is byte-identical to the in-process run — same cycle,
	// same counters — which the differential tests enforce. 0 or 1 keeps the
	// in-process engine. Exact engine only.
	Shards int
	// Transport selects the shard transport when Shards > 1: "unix"
	// (default) runs goroutine workers behind unix-domain sockets; "proc"
	// forks one hcshard OS process per shard (DRA and DHC2 only — their
	// programs are portable across a process boundary).
	Transport string
	// ShardBinary is the hcshard executable for Transport "proc"
	// ("hcshard" via PATH when empty).
	ShardBinary string
	// Observer, if non-nil, receives best-effort lifecycle callbacks (see
	// Observer). It observes only: a run's cycle, rounds and counters are
	// byte-identical with or without it.
	Observer *Observer
}

// Observer receives lifecycle callbacks from a run, for CLIs and harnesses
// that want liveness signals out of long solves without polling. Callbacks
// run synchronously on the solving goroutine — keep them fast — and every
// field is optional. Callback granularity is engine-dependent: the step
// engine reports its real phase transitions ("phase1", "phase2") and restart
// attempts; the exact engine reports a single "run" phase plus throttled
// round progress (its phases are per-node state, invisible to the driver
// until extraction).
type Observer struct {
	// OnPhase fires when the run enters a named phase: "run" for
	// single-phase algorithms and the exact engine, "phase1"/"phase2" for
	// the step engine's DHC algorithms.
	OnPhase func(phase string)
	// OnRounds fires with the charged round total at the exact engine's
	// amortized checkpoint (every few dozen executed rounds). Never fires
	// for EngineStep, which charges rounds analytically.
	OnRounds func(rounds int64)
	// OnRestart fires when the step engine burns a run-level restart
	// attempt (a failed standalone rotation attempt or a failed DHC1
	// phase-2 hypernode rotation), with a strictly increasing cumulative
	// count per run. The step engine's per-partition restarts happen on
	// pool workers and are aggregated into cost accounting rather than
	// reported individually, so DHC2 reports none; the exact engine's
	// restarts are per-node decisions and are not reported at all.
	OnRestart func(restarts int)
}

// hooks adapts the observer to the step engine's callback set.
func (o *Observer) hooks() stepsim.Hooks {
	if o == nil {
		return stepsim.Hooks{}
	}
	return stepsim.Hooks{OnPhase: o.OnPhase, OnRestart: o.OnRestart}
}

// phase fires OnPhase if configured.
func (o *Observer) phase(name string) {
	if o != nil && o.OnPhase != nil {
		o.OnPhase(name)
	}
}

// progress returns the congest-layer progress hook, nil when unobserved.
func (o *Observer) progress() func(int64) {
	if o == nil {
		return nil
	}
	return o.OnRounds
}

// Result is the outcome of a successful Solve.
type Result struct {
	// Cycle is the verified Hamiltonian cycle.
	Cycle *Cycle
	// Rounds is the CONGEST round count (measured or charged).
	Rounds int64
	// Steps is the rotation-step count across all phases.
	Steps int64
	// Counters holds full exact-engine metrics (nil for EngineStep).
	Counters *Counters
	// Phase1Rounds/Phase2Rounds split the total when the algorithm has two
	// phases (zero otherwise).
	Phase1Rounds int64
	Phase2Rounds int64
	// ShardStats is the per-shard transport accounting when the run executed
	// distributed (Options.Shards > 1); nil otherwise.
	ShardStats []ShardStat
}

// ShardStat re-exports the distributed engine's per-shard accounting record.
type ShardStat = dist.ShardStat

// ErrNoHamiltonianCycle is returned when the run terminates without a valid
// Hamiltonian cycle.
var ErrNoHamiltonianCycle = errors.New("dhc: no Hamiltonian cycle found")

// ErrRoundLimit re-exports the exact engine's round-budget sentinel: the run
// was cut off before terminating. It always arrives wrapped in
// ErrNoHamiltonianCycle (on a valid input the two are the same verdict), but
// callers building a failure taxonomy can match it specifically.
var ErrRoundLimit = congest.ErrRoundLimit

// FailureClass is the taxonomy of Solve outcomes, for Monte Carlo harnesses
// that aggregate many trials: a genuine negative (no cycle found) is evidence
// about the algorithm's success probability, a round-limit cut-off is
// evidence about the round budget, and a usage error is evidence about the
// caller — conflating them would corrupt all three statistics.
type FailureClass int

const (
	// FailureNone means the run produced a verified Hamiltonian cycle.
	FailureNone FailureClass = iota
	// FailureNoHC means the run executed to completion but found no
	// Hamiltonian cycle (restart budgets exhausted, no bridge found, ...).
	FailureNoHC
	// FailureRoundLimit means the exact engine hit its round budget before
	// the algorithm terminated.
	FailureRoundLimit
	// FailureError means the run never meaningfully executed: invalid
	// options, a CONGEST model violation, an infeasible generator request.
	// Retrying with a new seed cannot help.
	FailureError
	// FailureCanceled means the run was cut off by its context (cancellation
	// or deadline) before terminating. It is evidence about the operator's
	// patience, not the algorithm: a canceled trial must not count toward
	// success probability, the round-budget statistic, or usage errors.
	FailureCanceled
)

var failureNames = map[FailureClass]string{
	FailureNone:       "ok",
	FailureNoHC:       "no_hc",
	FailureRoundLimit: "round_limit",
	FailureError:      "error",
	FailureCanceled:   "canceled",
}

// String returns the class's short name ("ok", "no_hc", "round_limit",
// "error"), the spelling used by the sweep report schema.
func (f FailureClass) String() string {
	if s, ok := failureNames[f]; ok {
		return s
	}
	return fmt.Sprintf("failure(%d)", int(f))
}

// Classify maps a Solve error to its failure class. A nil error is
// FailureNone; a round-limit cut-off classifies as FailureRoundLimit even
// though it is also wrapped in ErrNoHamiltonianCycle; context cancellation
// and deadline expiry classify as FailureCanceled regardless of which layer
// surfaced them.
func Classify(err error) FailureClass {
	switch {
	case err == nil:
		return FailureNone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return FailureCanceled
	case errors.Is(err, ErrRoundLimit):
		return FailureRoundLimit
	case errors.Is(err, ErrNoHamiltonianCycle):
		return FailureNoHC
	default:
		return FailureError
	}
}

// Trial is the single-shot Monte Carlo entry point: one Solve call plus its
// failure class. The Result is nil exactly when class != FailureNone.
func Trial(g *Graph, algo Algorithm, opts Options) (*Result, FailureClass, error) {
	res, err := Solve(g, algo, opts)
	return res, Classify(err), err
}

// Solve runs the selected algorithm on g and returns the verified cycle and
// cost metrics. All randomness derives from opts.Seed. It is the one-shot
// form of a Solver session: repeated trials should construct one Solver and
// reuse it (see NewSolver).
func Solve(g *Graph, algo Algorithm, opts Options) (*Result, error) {
	return SolveContext(context.Background(), g, algo, opts)
}

// SolveContext is Solve with cooperative cancellation: the run stops at the
// engine's next amortized checkpoint once ctx is done and returns ctx's
// error (matchable with errors.Is against context.Canceled or
// context.DeadlineExceeded; Classify maps both to FailureCanceled).
func SolveContext(ctx context.Context, g *Graph, algo Algorithm, opts Options) (*Result, error) {
	s, err := NewSolver(algo, opts)
	if err != nil {
		return nil, err
	}
	return s.Solve(ctx, g)
}

// Solver is a reusable run session for one (algorithm, options) pair. Its
// Solve method executes independent trials while retaining engine state
// across calls — the exact engine's simulator arena (persistent node
// contexts, inbox buckets, wake-schedule heap, codec) and the step engine's
// scratch buffers — so repeated trials on same-shape instances (equal vertex
// count) allocate a small fraction of what fresh Solve calls would.
//
// The determinism contract is unchanged: a Solver trial with a given
// (graph, seed) is byte-identical to a fresh Solve call with the same
// inputs, in any order, after any number of prior trials, and after
// cancelled or failed trials (pinned by TestSolverReuseMatchesFreshSolve).
//
// A Solver is not safe for concurrent use; run one per goroutine (or check
// sessions in and out of a pool). The contract is enforced: a Solve call that
// overlaps another on the same session fails fast with ErrSolverInUse instead
// of racing on the shared engine arena. The guard serializes nothing — the
// overlapping call returns immediately; the caller owns the retry policy.
type Solver struct {
	algo Algorithm
	opts Options

	// inUse flags an in-flight trial: SolveSeeded owns the session between a
	// successful CompareAndSwap and its deferred release. It detects misuse
	// (concurrent calls corrupt the reused arena) rather than queueing it.
	inUse atomic.Bool

	// exec is the one executor every exact trial runs on, built once at
	// NewSolver: the in-process Network, or the shard cluster when
	// Shards > 1. exact is Run of the algorithm's congest.Session, whose one
	// set of node programs every trial binds to exec.
	exec  congest.Runner
	exact func(context.Context, congest.Runner, *Graph, uint64, congest.Options) (*congest.Result, error)

	stepSess *stepsim.Session
}

// ErrSolverInUse is returned by Solver.Solve/SolveSeeded when the session
// already has a trial in flight on another goroutine. It classifies as
// FailureError: the overlap is a usage bug, not evidence about the instance.
var ErrSolverInUse = errors.New("dhc: solver in concurrent use")

// NewSolver validates the configuration up front — unknown algorithm or
// engine, negative BroadcastBound or MaxRounds — and returns a reusable
// Solver. Validation here rather than per call means a Solver that
// constructed successfully cannot fail on configuration later.
func NewSolver(algo Algorithm, opts Options) (*Solver, error) {
	if opts.Engine == 0 {
		opts.Engine = EngineExact
	}
	if _, ok := engineNames[opts.Engine]; !ok {
		return nil, fmt.Errorf("dhc: unknown engine %d", opts.Engine)
	}
	if _, ok := algorithmNames[algo]; !ok {
		return nil, fmt.Errorf("dhc: unknown algorithm %d", algo)
	}
	if opts.BroadcastBound < 0 {
		// A negative bound would poison the derived round budgets and
		// surface as a round-limit failure, which wrapNoHC would then
		// misclassify as a genuine no-cycle outcome; reject it up front.
		return nil, fmt.Errorf("dhc: broadcast bound %d must be >= 0", opts.BroadcastBound)
	}
	if opts.MaxRounds < 0 {
		// Same reasoning as BroadcastBound: a negative budget is a usage
		// error, not a round-limit verdict.
		return nil, fmt.Errorf("dhc: max rounds %d must be >= 0", opts.MaxRounds)
	}
	if opts.Shards < 0 {
		return nil, fmt.Errorf("dhc: shard count %d must be >= 0", opts.Shards)
	}
	s := &Solver{algo: algo, opts: opts}
	if opts.Shards > 1 {
		if opts.Engine != EngineExact {
			return nil, fmt.Errorf("dhc: shards require the exact engine")
		}
		if opts.Transport == dist.TransportProc && algo != AlgorithmDRA && algo != AlgorithmDHC2 {
			return nil, fmt.Errorf("dhc: algorithm %s is not portable to worker processes (transport %q supports dra and dhc2; use unix)",
				algo, opts.Transport)
		}
		cluster, err := dist.NewCluster(dist.Options{
			Shards:      opts.Shards,
			Transport:   opts.Transport,
			ShardBinary: opts.ShardBinary,
		})
		if err != nil {
			return nil, err
		}
		s.exec = cluster
	} else if opts.Transport != "" {
		return nil, fmt.Errorf("dhc: transport %q requires shards > 1", opts.Transport)
	}
	if opts.Engine == EngineExact {
		if s.exec == nil {
			s.exec = new(congest.Network)
		}
		switch algo {
		case AlgorithmDRA:
			s.exact = dra.NewSession(dra.NodeOptions{BroadcastRounds: opts.BroadcastBound}).Run
		case AlgorithmDHC1:
			s.exact = core.NewDHC1Session(core.Options{NumColors: opts.NumColors, B: opts.BroadcastBound}).Run
		case AlgorithmDHC2:
			s.exact = core.NewDHC2Session(core.Options{Delta: opts.Delta, NumColors: opts.NumColors, B: opts.BroadcastBound}).Run
		case AlgorithmUpcast:
			s.exact = upcast.NewSession(upcast.Options{B: opts.BroadcastBound}).Run
		}
	}
	return s, nil
}

// Algorithm returns the algorithm this solver runs.
func (s *Solver) Algorithm() Algorithm { return s.algo }

// Options returns the solver's (normalized) configuration.
func (s *Solver) Options() Options { return s.opts }

// Solve runs one trial on g with the configured Seed, honoring ctx (see
// SolveContext). Engine state is reused across calls; results never alias it.
func (s *Solver) Solve(ctx context.Context, g *Graph) (*Result, error) {
	return s.SolveSeeded(ctx, g, s.opts.Seed)
}

// SolveSeeded runs one trial on g with an explicit seed, the entry point for
// Monte Carlo harnesses that vary the seed per trial over one session.
func (s *Solver) SolveSeeded(ctx context.Context, g *Graph, seed uint64) (*Result, error) {
	if !s.inUse.CompareAndSwap(false, true) {
		return nil, ErrSolverInUse
	}
	defer s.inUse.Store(false)
	// Checked here, not per engine: below three vertices there is no cycle
	// to look for, so both engines must call it a usage error, never no_hc.
	if g.N() < 3 {
		return nil, fmt.Errorf("dhc: a Hamiltonian cycle needs n >= 3, got %d", g.N())
	}
	if s.opts.Engine == EngineStep {
		return s.solveStep(ctx, g, seed)
	}
	s.opts.Observer.phase("run")
	return s.solveExact(ctx, s.exec, g, seed, congest.Options{
		MaxRounds: s.opts.MaxRounds,
		Progress:  s.opts.Observer.progress(),
	})
}

// solveExact runs one trial of the algorithm's session on ex and converts
// its result; a two-phase run's rounds after Phase 1 are its Phase 2.
func (s *Solver) solveExact(ctx context.Context, ex congest.Runner, g *Graph, seed uint64, netOpts congest.Options) (*Result, error) {
	r, err := s.exact(ctx, ex, g, seed, netOpts)
	if err != nil {
		return nil, wrapNoHC(err)
	}
	res := &Result{
		Cycle:        r.Cycle,
		Rounds:       r.Counters.Rounds,
		Steps:        r.Steps,
		Counters:     r.Counters,
		Phase1Rounds: r.Phase1Rounds,
	}
	if r.Phase1Rounds > 0 {
		res.Phase2Rounds = res.Rounds - r.Phase1Rounds
	}
	if cluster, ok := ex.(*dist.Cluster); ok {
		res.ShardStats = cluster.Stats()
	}
	return res, nil
}

func (s *Solver) solveStep(ctx context.Context, g *Graph, seed uint64) (*Result, error) {
	opts := s.opts
	simOpts := stepsim.Options{
		NumColors: opts.NumColors,
		Delta:     opts.Delta,
		Workers:   opts.Workers,
	}
	if s.stepSess == nil {
		s.stepSess = stepsim.NewSession()
	}
	s.stepSess.Hooks = opts.Observer.hooks()
	var (
		hc   *Cycle
		cost stepsim.Cost
		err  error
	)
	switch s.algo {
	case AlgorithmDRA:
		hc, cost, err = s.stepSess.DRA(ctx, g, seed)
	case AlgorithmDHC1:
		hc, cost, err = s.stepSess.DHC1(ctx, g, seed, simOpts)
	case AlgorithmDHC2:
		hc, cost, err = s.stepSess.DHC2(ctx, g, seed, simOpts)
	case AlgorithmUpcast:
		hc, cost, err = s.stepSess.Upcast(ctx, g, seed)
	default:
		return nil, fmt.Errorf("dhc: unknown algorithm %d", s.algo)
	}
	if err != nil {
		return nil, wrapNoHC(err)
	}
	return &Result{
		Cycle:        hc,
		Rounds:       cost.Rounds,
		Steps:        cost.Steps,
		Phase1Rounds: cost.Phase1Rounds,
		Phase2Rounds: cost.Phase2Rounds,
	}, nil
}

// noCycleErrs lists every engine's genuine negative outcomes — the run
// executed but terminated without a Hamiltonian cycle (including exhausting
// its round budget, which on a valid input is the same verdict). Anything
// outside this list is a usage problem — a Delta outside (0, 1], an invalid
// partition count, a CONGEST bandwidth violation — and must NOT match
// errors.Is(err, ErrNoHamiltonianCycle): retrying a config error with a new
// seed would loop forever, and callers use the sentinel to decide exactly
// that.
var noCycleErrs = []error{
	stepsim.ErrFailed,
	core.ErrNoHC,
	dra.ErrFailed,
	upcast.ErrNoHC,
	congest.ErrRoundLimit,
}

// wrapNoHC tags genuine no-cycle failures with ErrNoHamiltonianCycle and
// passes every other error through unchanged. The original error stays on
// the unwrap chain (double %w) so Classify can still distinguish a
// round-limit cut-off from an ordinary negative.
func wrapNoHC(err error) error {
	for _, sentinel := range noCycleErrs {
		if errors.Is(err, sentinel) {
			return fmt.Errorf("%w: %w", ErrNoHamiltonianCycle, err)
		}
	}
	return err
}

// Verify checks that c is a Hamiltonian cycle of g.
func Verify(g *Graph, c *Cycle) error { return c.Verify(g) }
