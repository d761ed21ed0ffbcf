// Command hcsweep is the Monte Carlo conformance pipeline: it runs a
// phase-space sweep over a grid of (graph family, n, density parameter,
// algorithm, engine) cells — Trials independent (graph, solve) runs per
// cell — and writes a schema-v2 JSON report with per-cell success
// statistics, a failure taxonomy, cost quantiles, and log-log scaling fits.
//
// Reports are a pure function of the grid and master seed: no wall-clock
// fields, per-trial RNG streams split from the master seed by cell key, so
// -workers changes throughput only — the output file is byte-identical at
// any worker count. The report is rewritten atomically after every completed
// cell, and -resume reloads such a file and skips its finished cells.
//
// The pipeline is interruptible: SIGINT/SIGTERM cancels in-flight solver
// trials at the engines' amortized checkpoints, abandons the in-flight cell
// (its partial outcomes are wall-clock dependent), and exits 130 leaving the
// checkpoint on disk; a -resume rerun completes the byte-identical report an
// uninterrupted run would have written. -cell-timeout bounds each cell's
// wall-clock; its cut-off trials are recorded as fail_canceled and the cell
// re-runs on -resume.
//
// Usage:
//
//	hcsweep -json sweep.json -families gnp -sizes 256,512 -params 1.5 \
//	    -delta 0.5 -algos dra,upcast -engines step -trials 20 -seed 1
//	hcsweep -json atlas.json -families powerlaw,geometric,sbm -sizes 256,512 \
//	    -params 2,4,8 -delta 0.25 -algos dra -engines step -trials 50
//	hcsweep -json sweep.json -config grid.json -workers 8 -resume
//	hcsweep -validate sweep.json
//
// Families: gnp and gnm sweep p = c*ln(n)/n^delta with param = c; regular
// sweeps degree d = param; powerlaw (Chung–Lu, exponent 2.5) and sbm
// (4 blocks, pIn/pOut = 4) reuse the gnp threshold parameterization for
// their mean degree; geometric sweeps radius r = c*sqrt(ln n/(pi n)) with
// param = c; hypercube and torus are deterministic lattices whose param
// axis collapses to a single cell per size (hypercube sizes must be 2^d or
// the punctured 2^d-1, torus sizes a perfect square).
//
// The -config file is the JSON form of the same grid spec:
//
//	{"families": ["gnp"], "sizes": [256, 512], "params": [1.5],
//	 "delta": 0.5, "algos": ["dra"], "engines": ["step"],
//	 "trials": 20, "master_seed": 1}
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"dhc"
	"dhc/internal/bench"
	"dhc/internal/sweep"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hcsweep:", err)
		if errors.Is(err, context.Canceled) {
			// Interrupted (SIGINT/SIGTERM): the checkpointed report holds
			// every finished cell; exit with the conventional 130 so callers
			// can tell "interrupted but resumable" from a hard failure.
			os.Exit(130)
		}
		os.Exit(1)
	}
}

// gridConfig is the JSON grid spec (-config); string axes are resolved into
// a sweep.Grid. Flags fill any axis the file omits.
type gridConfig struct {
	Families    []string  `json:"families"`
	Sizes       []int     `json:"sizes"`
	Params      []float64 `json:"params"`
	Delta       float64   `json:"delta"`
	Algos       []string  `json:"algos"`
	Engines     []string  `json:"engines"`
	Trials      int       `json:"trials"`
	MasterSeed  uint64    `json:"master_seed"`
	NumColors   int       `json:"num_colors"`
	MaxAttempts int       `json:"max_attempts"`
}

func run() error {
	var (
		jsonOut  = flag.String("json", "", "write the sweep report to this path (rewritten after every cell)")
		validate = flag.String("validate", "", "validate an existing report (schema + no config-error cells) and exit")
		config   = flag.String("config", "", "JSON grid spec file; flags below fill axes the file omits")
		rev      = flag.String("rev", "dev", "revision label embedded in the report")
		families = flag.String("families", "gnp", "comma-separated graph families (gnp,gnm,regular,powerlaw,geometric,sbm,hypercube,torus)")
		sizes    = flag.String("sizes", "256,512", "comma-separated vertex counts (hypercube wants 2^d or 2^d-1, torus a perfect square)")
		params   = flag.String("params", "1.5", "comma-separated density parameters: threshold constant c for gnp/gnm/powerlaw/sbm, degree d for regular, radius constant c for geometric (ignored by hypercube/torus)")
		delta    = flag.Float64("delta", 1.0, "threshold exponent of p = c*ln(n)/n^delta (gnp/gnm/powerlaw/sbm)")
		algos    = flag.String("algos", "dra", "comma-separated algorithms (dra,dhc1,dhc2,upcast)")
		engines  = flag.String("engines", "step", "comma-separated engines (step,exact)")
		trials   = flag.Int("trials", 20, "Monte Carlo trials per cell")
		seed     = flag.Uint64("seed", 1, "master seed; the whole report is a pure function of grid + seed")
		colors   = flag.Int("colors", 0, "partition count K override for dhc1/dhc2 (0 = derive)")
		attempts = flag.Int("attempts", 0, "solver restart budget override (0 = engine default)")
		workers  = flag.Int("workers", 1, "trial-level worker pool (byte-identical output at any value)")
		resume   = flag.Bool("resume", false, "reuse finished cells from an existing -json file with the same seed and trial count")
		cellTime = flag.Duration("cell-timeout", 0, "wall-clock cap per cell; cut-off trials count as canceled and the cell re-runs on -resume")
		trace    = flag.Bool("trace", false, "log solver phase transitions and restarts per cell to stderr")
	)
	flag.Parse()

	if *validate != "" {
		return runValidate(*validate)
	}
	if *jsonOut == "" {
		return fmt.Errorf("nothing to do: pass -json OUT or -validate FILE")
	}

	grid, err := buildGrid(*config, *families, *sizes, *params, *delta,
		*algos, *engines, *trials, *seed, *colors, *attempts)
	if err != nil {
		return err
	}
	if err := grid.Validate(); err != nil {
		return err
	}

	opts := sweep.Options{Workers: *workers, CellTimeout: *cellTime}
	if *trace {
		opts.Observer = traceObserver
	}
	if *resume {
		if opts.Resume, err = loadResume(*jsonOut, grid); err != nil {
			return err
		}
	}

	// SIGINT/SIGTERM cancel the sweep cooperatively: in-flight trials stop at
	// the engines' amortized checkpoints, the in-flight cell is abandoned,
	// and the per-cell checkpoint file (written below) stays resumable.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Rewrite the report after every finished cell so an interrupted sweep
	// loses at most one cell of work; fits are recomputed over the cells
	// done so far and the final write includes every cell.
	rep := bench.NewReport(*rev, runtime.Version(), runtime.NumCPU())
	rep.Sweep = &bench.SweepSection{
		MasterSeed: grid.MasterSeed, TrialsPerCell: grid.Trials,
		NumColors: grid.NumColors, MaxAttempts: grid.MaxAttempts,
	}
	start := time.Now()
	opts.Progress = func(cell sweep.Cell, stats bench.CellStats, reused bool) {
		rep.Sweep.Cells = append(rep.Sweep.Cells, stats)
		rep.Sweep.Fits = sweep.Fits(rep.Sweep.Cells)
		if err := writeAtomic(*jsonOut, rep); err != nil {
			fmt.Fprintln(os.Stderr, "hcsweep: checkpoint:", err)
		}
		tag := ""
		if reused {
			tag = " (resumed)"
		}
		fmt.Printf("%s: ok=%d/%d no_hc=%d round_limit=%d error=%d roundsP50=%d%s\n",
			cell.Key(), stats.Successes, stats.Trials,
			stats.FailNoHC, stats.FailRoundLimit, stats.FailError,
			stats.Rounds.P50, tag)
	}

	sec, err := sweep.RunContext(ctx, grid, opts)
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "hcsweep: interrupted; %d finished cells checkpointed in %s — rerun with -resume to complete the identical report\n",
			len(sec.Cells), *jsonOut)
		return err
	}
	if err != nil {
		return err
	}
	rep.Sweep = sec
	if err := rep.Validate(); err != nil {
		return err
	}
	if err := writeAtomic(*jsonOut, rep); err != nil {
		return err
	}
	for _, f := range sec.Fits {
		fmt.Printf("fit %s/param=%g/delta=%g/%s/%s: rounds ~ n^%.3f, steps ~ n^%.3f (%d sizes)\n",
			f.Family, f.Param, f.Delta, f.Algo, f.Engine, f.RoundsSlope, f.StepsSlope, f.Points)
	}
	fmt.Printf("wrote %s (%d cells, %d trials each, schema v%d) in %v\n",
		*jsonOut, len(sec.Cells), sec.TrialsPerCell, rep.SchemaVersion, time.Since(start).Round(time.Millisecond))
	return nil
}

// buildGrid merges the -config file (if any) with the flag axes.
func buildGrid(configPath, families, sizes, params string, delta float64,
	algos, engines string, trials int, seed uint64, colors, attempts int) (sweep.Grid, error) {
	cfg := gridConfig{
		Families: bench.SplitList(families),
		Delta:    delta, Algos: bench.SplitList(algos), Engines: bench.SplitList(engines),
		Trials: trials, MasterSeed: seed, NumColors: colors, MaxAttempts: attempts,
	}
	var err error
	if cfg.Sizes, err = bench.ParseInts(sizes); err != nil {
		return sweep.Grid{}, fmt.Errorf("bad -sizes: %w", err)
	}
	if cfg.Params, err = bench.ParseFloats(params); err != nil {
		return sweep.Grid{}, fmt.Errorf("bad -params: %w", err)
	}
	if configPath != "" {
		data, err := os.ReadFile(configPath)
		if err != nil {
			return sweep.Grid{}, err
		}
		// Decoding over the flag values replaces exactly the fields the
		// file names.
		if err := json.Unmarshal(data, &cfg); err != nil {
			return sweep.Grid{}, fmt.Errorf("bad -config %s: %w", configPath, err)
		}
	}

	if cfg.Trials <= 0 {
		cfg.Trials = 20
	}
	grid := sweep.Grid{
		Sizes: cfg.Sizes, Params: cfg.Params, Delta: cfg.Delta,
		Trials: cfg.Trials, MasterSeed: cfg.MasterSeed,
		NumColors: cfg.NumColors, MaxAttempts: cfg.MaxAttempts,
	}
	// Parse element-wise (not by re-joining on commas) so a malformed
	// config entry like "gnp,gnm" is rejected instead of silently split.
	for _, s := range cfg.Families {
		f, err := sweep.ParseFamily(s)
		if err != nil {
			return grid, err
		}
		grid.Families = append(grid.Families, f)
	}
	for _, s := range cfg.Algos {
		a, err := dhc.ParseAlgorithm(s)
		if err != nil {
			return grid, err
		}
		grid.Algos = append(grid.Algos, a)
	}
	for _, s := range cfg.Engines {
		e, err := dhc.ParseEngine(s)
		if err != nil {
			return grid, err
		}
		grid.Engines = append(grid.Engines, e)
	}
	return grid, nil
}

// traceObserver builds the -trace observer for one cell: first entry into
// each phase, every restart, and a once-per-second round heartbeat. The
// callbacks fire concurrently under -workers > 1, so all shared state is
// atomic.
func traceObserver(cell sweep.Cell) *dhc.Observer {
	key := cell.Key()
	var seenPhase1, seenPhase2, seenRun atomic.Bool
	var restarts atomic.Int64
	var lastBeat atomic.Int64
	return &dhc.Observer{
		OnPhase: func(phase string) {
			seen := &seenRun
			switch phase {
			case "phase1":
				seen = &seenPhase1
			case "phase2":
				seen = &seenPhase2
			}
			if seen.CompareAndSwap(false, true) {
				fmt.Fprintf(os.Stderr, "hcsweep: %s: entered %s\n", key, phase)
			}
		},
		OnRestart: func(r int) {
			fmt.Fprintf(os.Stderr, "hcsweep: %s: trial restart (attempt %d, %d restarts observed this cell)\n",
				key, r, restarts.Add(1))
		},
		OnRounds: func(rounds int64) {
			now := time.Now().UnixNano()
			last := lastBeat.Load()
			if now-last > int64(time.Second) && lastBeat.CompareAndSwap(last, now) {
				fmt.Fprintf(os.Stderr, "hcsweep: %s: ~%d rounds into a trial\n", key, rounds)
			}
		},
	}
}

// loadResume decodes a prior report at path (absence is not an error) and
// returns its cells keyed for reuse. A master-seed or trial-count mismatch
// is fatal: silently mixing two sweeps would corrupt the determinism
// contract.
func loadResume(path string, grid sweep.Grid) (map[string]bench.CellStats, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	rep, err := bench.DecodeReport(data)
	if err != nil {
		return nil, fmt.Errorf("resume %s: %w", path, err)
	}
	if rep.Sweep == nil {
		return nil, fmt.Errorf("resume %s: no sweep section", path)
	}
	if rep.Sweep.MasterSeed != grid.MasterSeed || rep.Sweep.TrialsPerCell != grid.Trials ||
		rep.Sweep.NumColors != grid.NumColors || rep.Sweep.MaxAttempts != grid.MaxAttempts {
		return nil, fmt.Errorf("resume %s: grid mismatch (file: seed=%d trials=%d colors=%d attempts=%d; grid: seed=%d trials=%d colors=%d attempts=%d)",
			path, rep.Sweep.MasterSeed, rep.Sweep.TrialsPerCell, rep.Sweep.NumColors, rep.Sweep.MaxAttempts,
			grid.MasterSeed, grid.Trials, grid.NumColors, grid.MaxAttempts)
	}
	out := make(map[string]bench.CellStats, len(rep.Sweep.Cells))
	for _, c := range rep.Sweep.Cells {
		out[c.Key()] = c
	}
	fmt.Printf("resuming from %s: %d finished cells\n", path, len(out))
	return out, nil
}

// writeAtomic encodes the report to a temp file in the target directory and
// renames it into place, so readers never observe a torn report.
func writeAtomic(path string, rep *bench.Report) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if err := rep.Encode(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// runValidate gates CI: non-zero exit on a malformed report, a missing sweep
// section, or any cell with configuration-error trials (genuine no-cycle and
// round-limit outcomes are legitimate Monte Carlo data and do not fail the
// gate; conformance thresholds live in the test suite).
func runValidate(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rep, err := bench.DecodeReport(data)
	if err != nil {
		return err
	}
	if rep.Sweep == nil {
		return fmt.Errorf("%s: no sweep section (legacy BENCH_*.json files are checked by TestCommittedReportsDecode in ./internal/bench)", path)
	}
	bad := 0
	for i := range rep.Sweep.Cells {
		c := &rep.Sweep.Cells[i]
		if c.FailError > 0 {
			fmt.Fprintf(os.Stderr, "cell %s: %d config-error trials: %s\n", c.Key(), c.FailError, c.FirstError)
			bad++
		}
		if c.FailCanceled > 0 {
			// A canceled cell is an unfinished (and wall-clock dependent)
			// measurement, not Monte Carlo data; rerun with -resume.
			fmt.Fprintf(os.Stderr, "cell %s: %d canceled trials (timeout/interrupt); rerun with -resume\n",
				c.Key(), c.FailCanceled)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d cells hit configuration errors or cancellations", bad, len(rep.Sweep.Cells))
	}
	fmt.Printf("%s: schema v%d, rev %s, %d cells x %d trials, %d fits, no config errors\n",
		path, rep.SchemaVersion, rep.Rev, len(rep.Sweep.Cells), rep.Sweep.TrialsPerCell, len(rep.Sweep.Fits))
	return nil
}
