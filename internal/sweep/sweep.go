// Package sweep runs bounded-parallel Monte Carlo phase-space sweeps over a
// grid of (graph family, n, density parameter, algorithm, engine) cells and
// aggregates per-cell success statistics — the harness that turns the
// paper's statistical claims ("above p = c·ln n/n^δ the algorithms find a
// Hamiltonian cycle w.h.p. within the stated budgets") into measurable,
// regression-testable numbers.
//
// Every cell runs Trials fully independent trials: a fresh graph and a fresh
// solver seed per trial, because the paper's success probability is over
// both the random instance and the algorithm's coin flips. Each trial draws
// its two seeds from a private RNG stream split off the master seed (the
// same discipline as the stepsim and congest worker pools):
//
//	instStream  = rng.New(master).Split(fnv1a(cell.InstanceKey()))
//	trialStream = instStream.Split(trial + 1)
//	graphSeed, solveSeed = trialStream.Uint64(), trialStream.Uint64()
//
// The derivation hangs off the cell's instance key — family, n, parameter,
// delta, but NOT algorithm or engine — so every (algo, engine) column of a
// grid point solves the same instance set with the same solver seeds. That
// makes cross-algorithm and cross-engine comparisons paired. Because the key
// is content-derived (never a grid position), adding or removing cells does
// not change another cell's trials, which is what makes per-cell resume
// sound. Trial outcomes land in pre-sized slots
// and are folded in trial order, and the report schema carries no wall-clock
// fields, so a sweep's output is byte-identical at any worker count.
package sweep

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"dhc"
	"dhc/internal/arena"
	"dhc/internal/bench"
	"dhc/internal/graph"
	"dhc/internal/rng"
)

// Family selects the random-graph workload of a cell.
type Family int

const (
	// FamilyGNP is G(n, p) at the paper's threshold p = c·ln n / n^δ.
	FamilyGNP Family = iota + 1
	// FamilyGNM is the uniform fixed-edge-count model G(n, m) with
	// m = round(p·n(n-1)/2) at the same threshold p.
	FamilyGNM
	// FamilyRegular is the random d-regular model; the cell parameter is
	// the degree d.
	FamilyRegular
	// FamilyPowerlaw is the Chung–Lu expected-degree power-law model at
	// tail exponent PowerlawExponent; the cell parameter is the density
	// constant c of mean degree n·p = n·c·ln n / n^δ.
	FamilyPowerlaw
	// FamilyGeometric is the random geometric graph on the unit square;
	// the cell parameter scales the connectivity-threshold radius
	// r = c·sqrt(ln n / (π·n)).
	FamilyGeometric
	// FamilySBM is the stochastic block model with SBMBlocks contiguous
	// blocks and in/out probability ratio SBMRatio; the cell parameter is
	// the density constant c of the mean pair probability c·ln n / n^δ.
	FamilySBM
	// FamilyHypercube is the deterministic hypercube lattice control:
	// size 2^d is the full (Hamiltonian) cube Q_d, size 2^d - 1 the
	// vertex-deleted cube, non-Hamiltonian by bipartite parity. The param
	// axis is ignored (cells record param 0).
	FamilyHypercube
	// FamilyTorus is the deterministic √n×√n wraparound torus control
	// (Hamiltonian by construction; sizes must be perfect squares). The
	// param axis is ignored (cells record param 0).
	FamilyTorus
)

// Fixed shape parameters of the parameterized families: the sweep's param
// axis is one-dimensional (the density knob), so the remaining family shape
// is pinned here and recorded in the atlas documentation.
const (
	// PowerlawExponent is the Chung–Lu tail exponent of FamilyPowerlaw.
	PowerlawExponent = 2.5
	// SBMBlocks is FamilySBM's block count.
	SBMBlocks = 4
	// SBMRatio is FamilySBM's in/out probability ratio pIn/pOut.
	SBMRatio = 4.0
)

var familyNames = map[Family]string{
	FamilyGNP:       "gnp",
	FamilyGNM:       "gnm",
	FamilyRegular:   "regular",
	FamilyPowerlaw:  "powerlaw",
	FamilyGeometric: "geometric",
	FamilySBM:       "sbm",
	FamilyHypercube: "hypercube",
	FamilyTorus:     "torus",
}

// String returns the family's report spelling ("gnp", "powerlaw", ...).
func (f Family) String() string {
	if s, ok := familyNames[f]; ok {
		return s
	}
	return fmt.Sprintf("family(%d)", int(f))
}

// FamilyNames returns every family's report spelling in sorted order — the
// vocabulary ParseFamily accepts, spelled the way its error reports it. It
// must stay in lockstep with bench.FamilyNames, the report schema's
// vocabulary (pinned by a test).
func FamilyNames() []string {
	names := make([]string, 0, len(familyNames))
	for _, name := range familyNames {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ParseFamily resolves a family name. The error of an unknown name lists the
// valid names deterministically (sorted), so CLI messages are stable across
// runs — the same contract as dhc.ParseAlgorithm and dhc.ParseEngine.
func ParseFamily(s string) (Family, error) {
	for f, name := range familyNames {
		if name == s {
			return f, nil
		}
	}
	return 0, fmt.Errorf("sweep: unknown graph family %q (valid: %s)",
		s, strings.Join(FamilyNames(), ", "))
}

// Grid is a sweep specification: the cartesian product of its axes, run for
// Trials Monte Carlo trials per cell from MasterSeed.
type Grid struct {
	Families []Family  `json:"families"`
	Sizes    []int     `json:"sizes"`
	Params   []float64 `json:"params"`
	// Delta is the gnp/gnm threshold exponent (p = c·ln n / n^Delta) and is
	// also passed to DHC2 as its partition exponent. Zero defaults to 1,
	// the connectivity-threshold regime.
	Delta float64 `json:"delta,omitempty"`
	// Algos and Engines are parsed with dhc.ParseAlgorithm and
	// dhc.ParseEngine ("dra", ... / "exact", "step").
	Algos   []dhc.Algorithm `json:"-"`
	Engines []dhc.Engine    `json:"-"`
	// Trials is the Monte Carlo sample size per cell (default 20).
	Trials int `json:"trials,omitempty"`
	// MasterSeed roots every cell's RNG stream.
	MasterSeed uint64 `json:"master_seed"`
	// NumColors overrides the partition count K for DHC1/DHC2 (0 derives).
	NumColors int `json:"num_colors,omitempty"`
}

// Cell is one grid point: the recipe of its instances (each trial sets its
// own GraphSeed; Delta is the grid's, which DHC2 also partitions by) and the
// solver columns.
type Cell struct {
	Recipe Recipe
	Algo   dhc.Algorithm
	Engine dhc.Engine
}

// Key identifies the cell, matching bench.CellStats.Key; it is the resume
// key.
func (c Cell) Key() string {
	return c.InstanceKey() + "/" + c.Algo.String() + "/" + c.Engine.String()
}

// InstanceKey identifies the cell's random-instance distribution — the grid
// point without the solver columns. It seeds the trial streams, so every
// (algo, engine) cell of one grid point draws identical graphs and solver
// seeds; its format is part of the reproducibility contract.
func (c Cell) InstanceKey() string {
	r := c.Recipe
	return fmt.Sprintf("%s/n=%d/param=%g/delta=%g", r.Family, r.N, r.Param, r.reportDelta())
}

// trials returns the grid's effective per-cell sample size.
func (g *Grid) trials() int {
	if g.Trials <= 0 {
		return 20
	}
	return g.Trials
}

// Validate checks the grid's axes: each must be non-empty and every cell's
// recipe valid.
func (g *Grid) Validate() error {
	if len(g.Families) == 0 || len(g.Sizes) == 0 || len(g.Params) == 0 ||
		len(g.Algos) == 0 || len(g.Engines) == 0 {
		return fmt.Errorf("sweep: empty grid axis (families/sizes/params/algos/engines all required)")
	}
	for _, c := range g.Cells() {
		if err := c.Recipe.Validate(); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	return nil
}

// Deterministic reports whether the family ignores both the param axis and
// the graph seed: one size fully determines the instance. Cells of a
// deterministic family are emitted once per size with param recorded as 0.
func (f Family) Deterministic() bool {
	return f == FamilyHypercube || f == FamilyTorus
}

// Cells enumerates the grid in its canonical order: family, n, param, algo,
// engine. The order determines report layout only — never trial seeds.
func (g *Grid) Cells() []Cell {
	var cells []Cell
	delta := Recipe{Delta: g.Delta}.WithDefaults().Delta
	for _, f := range g.Families {
		params := g.Params
		if f.Deterministic() {
			// The lattice controls have no density knob: collapse the param
			// axis so one size yields one cell (param recorded as 0), keeping
			// cell keys unique in grids that sweep params for other families.
			params = []float64{0}
		}
		for _, n := range g.Sizes {
			for _, param := range params {
				for _, algo := range g.Algos {
					for _, engine := range g.Engines {
						cells = append(cells, Cell{
							Recipe: Recipe{Family: f, N: n, Param: param, Delta: delta},
							Algo:   algo, Engine: engine,
						})
					}
				}
			}
		}
	}
	return cells
}

// Options configures a Run.
type Options struct {
	// Workers bounds the trial-level worker pool within each cell (values
	// <= 1 run sequentially). Any value produces byte-identical reports.
	Workers int
	// CellTimeout, when positive, bounds each cell's wall-clock time: when
	// it expires the cell's remaining trials are cut off and counted as
	// FailCanceled. A timed-out cell is wall-clock dependent and therefore
	// excluded from the byte-identical contract; the resume path re-runs it.
	CellTimeout time.Duration
	// Progress, if non-nil, is called after each cell completes, in cell
	// order (reused == true when the cell came from Resume).
	Progress func(cell Cell, stats bench.CellStats, reused bool)
	// Observer, if non-nil, supplies a dhc.Observer per cell, wired into the
	// cell's solver sessions for liveness reporting on long cells. One
	// observer serves every trial of the cell, and with Workers > 1 its
	// callbacks fire concurrently — implementations must be safe for that.
	Observer func(cell Cell) *dhc.Observer
	// Resume maps cell keys to previously computed stats (from a prior
	// report with the same master seed and trial count); matching cells
	// are reused instead of re-run. Entries whose Trials differ from the
	// grid's, or that carry canceled trials, are ignored.
	Resume map[string]bench.CellStats
}

// Run executes the sweep and returns the v2 report section: per-cell
// statistics in grid order plus scaling fits across cells.
func Run(grid Grid, opts Options) (*bench.SweepSection, error) {
	return RunContext(context.Background(), grid, opts)
}

// RunContext is Run with cooperative cancellation: between cells (and, via
// the solver layer, inside them) ctx is honored, and a cancelled sweep
// returns the section of every cell completed so far together with ctx's
// error. The in-flight cell is abandoned rather than recorded, because its
// partial outcomes depend on wall-clock timing — which is exactly what makes
// an interrupted sweep resumable: the finished cells are deterministic, so a
// resumed sweep reproduces the report an uninterrupted run would have
// written, byte for byte.
func RunContext(ctx context.Context, grid Grid, opts Options) (*bench.SweepSection, error) {
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	sec := &bench.SweepSection{
		MasterSeed:    grid.MasterSeed,
		TrialsPerCell: grid.trials(),
		NumColors:     grid.NumColors,
	}
	master := rng.New(grid.MasterSeed)
	for _, cell := range grid.Cells() {
		if err := ctx.Err(); err != nil {
			sec.Fits = Fits(sec.Cells)
			return sec, err
		}
		stats, reused := bench.CellStats{}, false
		if prev, ok := opts.Resume[cell.Key()]; ok && prev.Trials == grid.trials() && prev.FailCanceled == 0 {
			stats, reused = prev, true
		} else {
			stats = runCell(ctx, &grid, cell, master, &opts)
			if ctx.Err() != nil {
				// The master context died mid-cell: the cell's outcomes are
				// partial; abandon them so the checkpoint stays resumable.
				sec.Fits = Fits(sec.Cells)
				return sec, ctx.Err()
			}
		}
		sec.Cells = append(sec.Cells, stats)
		if opts.Progress != nil {
			opts.Progress(cell, stats, reused)
		}
	}
	sec.Fits = Fits(sec.Cells)
	return sec, nil
}

// trialOutcome is one trial's result slot, written only by the worker that
// owns the trial and folded in trial order.
type trialOutcome struct {
	class  dhc.FailureClass
	err    error
	rounds int64
	steps  int64
	msgs   int64
	bits   int64
}

// runCell executes one cell's Trials independent trials on a bounded pool.
// Each pool worker owns one reusable dhc.Solver session for the cell: every
// trial of a cell runs on a same-sized instance, so the solver's engine
// arena is recycled trial over trial (the repeated-trial throughput path).
// Determinism is unaffected — a solver trial is byte-identical to a fresh
// Solve — so reports stay byte-identical at any worker count.
func runCell(ctx context.Context, grid *Grid, cell Cell, master *rng.Source, opts *Options) bench.CellStats {
	trials := grid.trials()
	cellCtx := ctx
	if opts.CellTimeout > 0 {
		var cancel context.CancelFunc
		cellCtx, cancel = context.WithTimeout(ctx, opts.CellTimeout)
		defer cancel()
	}
	var obs *dhc.Observer
	if opts.Observer != nil {
		obs = opts.Observer(cell)
	}
	solverOpts := dhc.Options{
		Engine:    cell.Engine,
		Delta:     cell.Recipe.Delta,
		NumColors: grid.NumColors,
		Observer:  obs,
	}
	poolSize := min(max(opts.Workers, 1), trials)
	solvers := make([]*dhc.Solver, poolSize)
	ctorErrs := make([]error, poolSize)
	instStream := master.Split(fnv1a(cell.InstanceKey()))
	outs := make([]trialOutcome, trials)
	arena.RunPool(opts.Workers, trials, func(worker, trial int) {
		if solvers[worker] == nil && ctorErrs[worker] == nil {
			solvers[worker], ctorErrs[worker] = newSolver(cell.Algo, solverOpts)
		}
		if err := ctorErrs[worker]; err != nil {
			// A constructor failure is a configuration verdict for the whole
			// cell: record it as the trial's fail_error outcome with the real
			// message. (Every worker constructs from identical arguments, so
			// the outcome is worker-count independent.)
			outs[trial] = trialOutcome{class: dhc.FailureError, err: err}
			return
		}
		outs[trial] = runTrial(cellCtx, solverOpts, cell, solvers[worker], instStream.Split(uint64(trial)+1))
	})
	return foldOutcomes(cell, trials, outs)
}

// newSolver is the solver constructor runCell uses — a seam so the
// constructor-failure contract (fail_error with the real message, never a
// nil-pointer panic) stays testable even while every validated grid produces
// constructible options.
var newSolver = dhc.NewSolver

// firstErrorPriority orders the failure classes FirstError samples from:
// a configuration error always wins the slot — it is the message
// `hcsweep -validate` prints for fail_error cells, and a routine no_hc
// sentinel string arriving first must not mask it — then the budget verdicts,
// then ordinary negatives. Within a class the first trial in trial order
// wins, keeping the field worker-count independent.
var firstErrorPriority = []dhc.FailureClass{
	dhc.FailureError,
	dhc.FailureRoundLimit,
	dhc.FailureCanceled,
	dhc.FailureNoHC,
}

// foldOutcomes aggregates a cell's trial outcomes in trial order into its
// report row.
func foldOutcomes(cell Cell, trials int, outs []trialOutcome) bench.CellStats {
	r := cell.Recipe
	stats := bench.CellStats{
		Family: r.Family.String(),
		N:      r.N,
		Param:  r.Param,
		Delta:  r.reportDelta(),
		Algo:   cell.Algo.String(),
		Engine: cell.Engine.String(),
		Trials: trials,
	}
	if stats.Delta != 0 {
		stats.P = graph.HCThresholdP(r.N, r.Param, r.Delta)
	}
	var rounds, steps, msgs, bits []int64
	for _, out := range outs {
		switch out.class {
		case dhc.FailureNone:
			stats.Successes++
			rounds = append(rounds, out.rounds)
			steps = append(steps, out.steps)
			msgs = append(msgs, out.msgs)
			bits = append(bits, out.bits)
		case dhc.FailureNoHC:
			stats.FailNoHC++
		case dhc.FailureRoundLimit:
			stats.FailRoundLimit++
		case dhc.FailureCanceled:
			stats.FailCanceled++
		default:
			stats.FailError++
		}
	}
	for _, class := range firstErrorPriority {
		if stats.FirstError != "" {
			break
		}
		for _, out := range outs {
			if out.class == class && out.err != nil {
				stats.FirstError = out.err.Error()
				break
			}
		}
	}
	stats.SuccessRate = float64(stats.Successes) / float64(trials)
	stats.Rounds = bench.NewQuantiles(rounds)
	stats.Steps = bench.NewQuantiles(steps)
	if cell.Engine == dhc.EngineExact {
		m, b := bench.NewQuantiles(msgs), bench.NewQuantiles(bits)
		stats.Messages, stats.Bits = &m, &b
	}
	return stats
}

// runTrial generates the trial's instance and solves it on the worker's
// reusable solver session, drawing both seeds from the trial's private
// stream. A nil solver (constructor failure) falls back to one-shot solving
// under opts so the configuration error still surfaces as a trial outcome.
func runTrial(ctx context.Context, opts dhc.Options, cell Cell, solver *dhc.Solver, stream *rng.Source) trialOutcome {
	recipe := cell.Recipe
	recipe.GraphSeed = stream.Uint64()
	solveSeed := stream.Uint64()
	g, err := recipe.Build()
	if err != nil {
		// An infeasible generator request is a configuration problem, not
		// a solver negative.
		return trialOutcome{class: dhc.FailureError, err: err}
	}
	var res *dhc.Result
	if solver != nil {
		res, err = solver.SolveSeeded(ctx, g, solveSeed)
	} else {
		opts.Seed = solveSeed
		res, err = dhc.SolveContext(ctx, g, cell.Algo, opts)
	}
	out := trialOutcome{class: dhc.Classify(err), err: err}
	if out.class == dhc.FailureNone {
		out.rounds, out.steps = res.Rounds, res.Steps
		if res.Counters != nil {
			out.msgs, out.bits = res.Counters.Messages, res.Counters.Bits
		}
	}
	return out
}

// Fits computes scaling fits along every (family, param, delta, algo,
// engine) series of the cells that spans at least two sizes with successes,
// in first-appearance order. The fitted statistic is the per-cell median
// (P50) of rounds and steps, which is robust to the occasional straggler
// trial that a mean would smear.
func Fits(cells []bench.CellStats) []bench.ScalingFit {
	type seriesKey struct {
		family string
		param  float64
		delta  float64
		algo   string
		engine string
	}
	type point struct{ n, rounds, steps float64 }
	series := map[seriesKey][]point{}
	var order []seriesKey
	for i := range cells {
		c := &cells[i]
		if c.Successes == 0 {
			continue
		}
		k := seriesKey{c.Family, c.Param, c.Delta, c.Algo, c.Engine}
		if _, ok := series[k]; !ok {
			order = append(order, k)
		}
		series[k] = append(series[k], point{
			n:      float64(c.N),
			rounds: float64(c.Rounds.P50),
			steps:  float64(c.Steps.P50),
		})
	}
	var fits []bench.ScalingFit
	for _, k := range order {
		pts := series[k]
		distinct := map[float64]bool{}
		for _, p := range pts {
			distinct[p.n] = true
		}
		if len(distinct) < 2 {
			continue
		}
		var ns, rounds, steps []float64
		for _, p := range pts {
			ns = append(ns, p.n)
			rounds = append(rounds, p.rounds)
			steps = append(steps, p.steps)
		}
		fits = append(fits, bench.ScalingFit{
			Family: k.family, Param: k.param, Delta: k.delta,
			Algo: k.algo, Engine: k.engine,
			Points:      len(distinct),
			RoundsSlope: finiteOrZero(bench.FitExponent(ns, rounds)),
			StepsSlope:  finiteOrZero(bench.FitExponent(ns, steps)),
		})
	}
	return fits
}

// finiteOrZero maps the FitExponent "no usable points" NaN (a series whose
// statistic is all zeros, e.g. steps for algorithms that never rotate) to
// the schema's "no data" zero, which JSON can encode.
func finiteOrZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// fnv1a hashes a cell key into the 64-bit index of its RNG stream (FNV-1a).
func fnv1a(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
