// Command hcbench regenerates every experiment table of the per-theorem
// index in internal/bench/experiments.go and prints fitted scaling
// exponents; its -json modes write the BENCH_<rev>.json trajectory (README,
// "Benchmark trajectory").
//
// It is also the repository's benchmark pipeline: -json runs a
// (algo × engine × n × workers) grid and writes a versioned machine-readable
// report (the BENCH_<rev>.json trajectory files at the repository root), and
// -validate checks such a report's schema and run health, which is what the
// CI smoke job gates on.
//
// Usage:
//
//	hcbench                 # all experiments, default scale
//	hcbench -only E2,E4     # a subset
//	hcbench -scale 0.5 -trials 2
//	hcbench -json BENCH_abc1234.json -rev abc1234 \
//	    -algos dhc2 -engines step -sizes 100000,1000000 -workerGrid 1,8
//	hcbench -validate BENCH_abc1234.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"dhc"
	"dhc/internal/bench"
	"dhc/internal/sweep"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hcbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		only    = flag.String("only", "", "comma-separated experiment ids (E1,E2,E3,E4,E6,E8,D1)")
		trials  = flag.Int("trials", 3, "trials per sweep point")
		scale   = flag.Float64("scale", 1, "multiplier on the default n grids")
		seed    = flag.Uint64("seed", 1, "base seed")
		workers = flag.Int("workers", 1, "worker pool size for the experiment tables (identical results at any value)")

		jsonOut    = flag.String("json", "", "benchmark pipeline: write a versioned JSON report to this path and exit")
		scaling    = flag.String("scaling", "", "scaling pipeline: run the -workerGrid curve over one shared instance per size with heap high-water metering, verify counter identity across worker counts, and write the JSON report to this path")
		validate   = flag.String("validate", "", "validate an existing JSON report (schema + no failed runs) and exit")
		rev        = flag.String("rev", "dev", "revision label embedded in the JSON report")
		algos      = flag.String("algos", "dhc2", "pipeline: comma-separated algorithms (dra,dhc1,dhc2,upcast)")
		engines    = flag.String("engines", "step", "pipeline: comma-separated engines (step,exact,exact-dense,dist)")
		sizes      = flag.String("sizes", "4096,16384", "pipeline: comma-separated vertex counts")
		workerGrid = flag.String("workerGrid", "1,8", "pipeline: comma-separated worker counts to measure each point at")
		shards     = flag.Int("shards", 4, "pipeline: shard-worker count for the dist engine columns")
		transport  = flag.String("transport", "unix", "pipeline: shard transport for the dist engine (unix, tcp, proc)")
		shardBin   = flag.String("shardbin", "", "pipeline: hcshard binary for -transport proc (default: resolve hcshard via PATH)")
		colors     = flag.Int("colors", 8, "pipeline: partition count K (0 = let the algorithm derive it)")
		delta      = flag.Float64("delta", 1.0, "pipeline: density exponent of p = cmult*ln(n)/n^delta")
		cmult      = flag.Float64("cmult", 32, "pipeline: density constant of p = cmult*ln(n)/n^delta")
		bound      = flag.Int64("bound", 0, "pipeline: broadcast-bound override B for the exact engines (0 = tight default, n = the paper's trivial bound)")
		reuse      = flag.Int("reuseTrials", 0, "pipeline: also measure repeated-trial throughput over this many per-point trials, once via fresh Solve calls and once via one reusable Solver session (mode=fresh/reuse record pairs)")
		gen        = flag.String("gen", "", "pipeline: also measure construction throughput for these comma-separated graph families (gnp,gnm,regular,powerlaw,geometric,sbm,hypercube,torus)")
		genSizes   = flag.String("genSizes", "10000,100000", "pipeline: vertex counts for the -gen construction grid (lattice families round down to their nearest valid size)")
		genParam   = flag.Float64("genParam", 4, "pipeline: density parameter for the -gen families (same meaning as a sweep cell's param; ignored by lattices)")
		genDelta   = flag.Float64("genDelta", 1, "pipeline: density exponent for the -gen families (independent of -delta: construction throughput is usually measured in the sparse regime)")

		client       = flag.String("client", "", "load-test mode: base URL of a running hcserve (e.g. http://127.0.0.1:8080); issues a cold pass then a warm pass over the -sizes x -algos x -engines x -clientSeeds request mix and records latency/throughput/cache rows")
		clientConns  = flag.Int("clientConns", 4, "client mode: concurrent connections")
		clientReqs   = flag.Int("clientRequests", 128, "client mode: warm-pass request count (raised to the mix size when smaller)")
		clientSeeds  = flag.Int("clientSeeds", 4, "client mode: solver seeds per grid point in the request mix")
		clientSolveT = flag.Int64("clientTimeoutMS", 0, "client mode: per-request solve deadline in milliseconds (0 = the server's default)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this path")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to this path")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hcbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "hcbench: memprofile:", err)
			}
		}()
	}

	if *validate != "" {
		return runValidate(*validate)
	}
	if *client != "" {
		grid, err := parseGrid(*algos, *engines, *sizes, *workerGrid, *shards, *transport, *shardBin)
		if err != nil {
			return err
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return runClient(ctx, clientParams{
			url:   strings.TrimRight(*client, "/"),
			conns: *clientConns, requests: *clientReqs, seeds: *clientSeeds,
			grid: grid, colors: *colors, delta: *delta, cmult: *cmult,
			timeoutMS: *clientSolveT, out: *jsonOut, rev: *rev,
		})
	}
	if *scaling != "" {
		grid, err := parseGrid(*algos, *engines, *sizes, *workerGrid, *shards, *transport, *shardBin)
		if err != nil {
			return err
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return runScaling(ctx, scalingParams{
			out: *scaling, rev: *rev, grid: grid,
			seed: *seed, colors: *colors, delta: *delta, cmult: *cmult,
		})
	}
	if *jsonOut != "" {
		grid, err := parseGrid(*algos, *engines, *sizes, *workerGrid, *shards, *transport, *shardBin)
		if err != nil {
			return err
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		gp := genParams{families: *gen, param: *genParam, delta: *genDelta}
		if gp.families != "" {
			if gp.sizes, err = bench.ParseInts(*genSizes); err != nil {
				return fmt.Errorf("bad -genSizes: %w", err)
			}
		}
		return runJSON(ctx, jsonParams{
			out: *jsonOut, rev: *rev, grid: grid,
			trials: *trials, seed: *seed, colors: *colors,
			delta: *delta, cmult: *cmult, bound: *bound,
			reuseTrials: *reuse, gen: gp,
		})
	}

	cfg := bench.Config{Trials: *trials, Scale: *scale, Seed: *seed, Workers: *workers}
	runners := map[string]func(bench.Config) *bench.Table{
		"E1": bench.E1, "E2": bench.E2, "E3": bench.E3,
		"E4": bench.E4, "E6": bench.E6, "E8": bench.E8, "D1": bench.D1,
	}
	order := []string{"E1", "E2", "E3", "E4", "E6", "E8", "D1"}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	for _, id := range order {
		if len(want) > 0 && !want[id] {
			continue
		}
		t := runners[id](cfg)
		if err := t.Write(os.Stdout); err != nil {
			return err
		}
		printFits(id, t)
	}
	return nil
}

// benchGrid is the cartesian sweep of the JSON pipeline.
type benchGrid struct {
	algos      []dhc.Algorithm
	engines    []bench.EngineMode
	sizes      []int
	workerGrid []int
	// shards/transport/shardBin are the shard topology applied to every
	// "dist" engine column of the grid (ignored by the in-process engines).
	shards              int
	transport, shardBin string
}

// applyDist configures opts for the distributed engine when mode is a "dist"
// column, and mirrors the topology into the report record (nil rec skipped).
func applyDist(grid benchGrid, mode bench.EngineMode, opts *dhc.Options, rec *bench.Record) {
	if !mode.Dist {
		return
	}
	opts.Shards = grid.shards
	opts.Transport = grid.transport
	opts.ShardBinary = grid.shardBin
	if rec != nil {
		rec.Shards = grid.shards
		rec.Transport = grid.transport
	}
}

type jsonParams struct {
	out, rev     string
	grid         benchGrid
	trials       int
	seed         uint64
	colors       int
	delta, cmult float64
	bound        int64
	reuseTrials  int
	gen          genParams
}

// genParams is the -gen construction-throughput grid.
type genParams struct {
	families     string
	sizes        []int
	param, delta float64
}

func parseGrid(algos, engines, sizes, workerGrid string, shards int, transport, shardBin string) (benchGrid, error) {
	g := benchGrid{shards: shards, transport: transport, shardBin: shardBin}
	var err error
	if g.algos, err = bench.ParseAlgorithms(algos); err != nil {
		return g, err
	}
	if g.engines, err = bench.ParseEngineModes(engines); err != nil {
		return g, err
	}
	if g.sizes, err = bench.ParseInts(sizes); err != nil {
		return g, fmt.Errorf("bad -sizes: %w", err)
	}
	if g.workerGrid, err = bench.ParseInts(workerGrid); err != nil {
		return g, fmt.Errorf("bad -workerGrid: %w", err)
	}
	if len(g.algos) == 0 || len(g.engines) == 0 || len(g.sizes) == 0 || len(g.workerGrid) == 0 {
		return g, fmt.Errorf("empty pipeline grid")
	}
	for _, e := range g.engines {
		if e.Dist && g.shards < 2 {
			return g, fmt.Errorf("engine dist needs -shards >= 2 (got %d)", g.shards)
		}
	}
	return g, nil
}

// runJSON executes the benchmark grid and writes the versioned report. Each
// graph is generated once per (n, trial) and shared across the whole
// algo × engine × workers sweep, so wall-clock differences within a point
// measure the solver, not the generator. SIGINT/SIGTERM cancels the run via
// ctx; cancelled runs surface as failed records and the report is not
// written.
func runJSON(ctx context.Context, p jsonParams) error {
	if p.trials < 1 {
		p.trials = 1
	}
	rep := bench.NewReport(p.rev, runtime.Version(), runtime.NumCPU())
	for _, n := range p.grid.sizes {
		pr := dhc.ThresholdP(n, p.cmult, p.delta)
		for trial := 0; trial < p.trials; trial++ {
			// Stop before the next (uncancellable) graph generation: a
			// cancelled grid must not keep burning time, and above all must
			// not overwrite a previous good report with canceled rows.
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("benchmark grid canceled; %s not written: %w", p.out, err)
			}
			graphSeed := p.seed + uint64(trial)*1000003 + uint64(n)
			g := dhc.NewGNP(n, pr, graphSeed)
			for _, algo := range p.grid.algos {
				for _, engine := range p.grid.engines {
					for _, workers := range p.grid.workerGrid {
						rec := bench.Record{
							Algo:           algo.String(),
							Engine:         engine.Name(),
							N:              n,
							M:              int64(g.M()),
							P:              pr,
							Seed:           p.seed + uint64(trial),
							GraphSeed:      graphSeed,
							NumColors:      p.colors,
							BroadcastBound: p.bound,
							Workers:        workers,
						}
						opts := dhc.Options{
							Seed:           rec.Seed,
							Engine:         engine.Engine,
							NumColors:      p.colors,
							Delta:          p.delta,
							Workers:        workers,
							DenseSweep:     engine.Dense,
							BroadcastBound: p.bound,
						}
						applyDist(p.grid, engine, &opts, &rec)
						start := time.Now()
						res, err := dhc.SolveContext(ctx, g, algo, opts)
						rec.WallSeconds = time.Since(start).Seconds()
						if err != nil {
							rec.Error = err.Error()
						} else {
							rec.OK = true
							rec.Rounds = res.Rounds
							rec.Steps = res.Steps
							rec.Phase1Rounds = res.Phase1Rounds
							rec.Phase2Rounds = res.Phase2Rounds
							rec.ShardStats = res.ShardStats
							if res.Counters != nil {
								rec.Messages = res.Counters.Messages
								rec.Bits = res.Counters.Bits
								rec.RoundsSkipped = res.Counters.RoundsSkipped
							}
							if len(res.ShardStats) > 0 {
								// Every exchange fans out to all links, so
								// shard 0's RTT count is the run's.
								rec.RTTs = res.ShardStats[0].RTTs
								for _, st := range res.ShardStats {
									rec.BatchBytesFixed += st.BatchBytesFixed
									rec.BatchBytesDelta += st.BatchBytesDelta
								}
								if executed := rec.Rounds - rec.RoundsSkipped; executed > 0 {
									rec.RTTsPerRound = float64(rec.RTTs) / float64(executed)
								}
							}
						}
						rep.Append(rec)
						fmt.Printf("%s/%s n=%d workers=%d trial=%d: wall=%.3fs ok=%v\n",
							rec.Algo, rec.Engine, n, workers, trial, rec.WallSeconds, rec.OK)
					}
				}
			}
		}
	}
	if p.reuseTrials > 0 {
		if err := appendReuseRecords(ctx, rep, p); err != nil {
			return err
		}
	}
	if p.gen.families != "" {
		if err := appendGenRecords(ctx, rep, p); err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("benchmark grid canceled; %s not written: %w", p.out, err)
	}
	pairDistRecords(rep)
	if err := rep.Validate(); err != nil {
		return err
	}
	f, err := os.Create(p.out)
	if err != nil {
		return err
	}
	if err := rep.Encode(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	printSpeedups(rep, p.grid)
	printDistSummary(rep)
	fmt.Printf("wrote %s (%d records, schema v%d, host %d-cpu)\n",
		p.out, len(rep.Records), rep.SchemaVersion, rep.NumCPU)
	return nil
}

// pairDistRecords fills each successful dist grid row's DistVsInProc: its
// wall-clock ratio against the in-process exact row of the same
// (algo, n, seed, workers) in the same report. Unpaired rows (no exact
// column in the grid) keep the zero value, which Validate permits.
func pairDistRecords(rep *bench.Report) {
	for i := range rep.Records {
		rec := &rep.Records[i]
		if rec.Engine != "dist" || !rec.OK || rec.Mode != "" {
			continue
		}
		for j := range rep.Records {
			base := &rep.Records[j]
			if base.Engine == "exact" && base.OK && base.Mode == "" &&
				base.Algo == rec.Algo && base.N == rec.N &&
				base.Seed == rec.Seed && base.Workers == rec.Workers &&
				base.WallSeconds > 0 {
				rec.DistVsInProc = rec.WallSeconds / base.WallSeconds
				break
			}
		}
	}
}

// printDistSummary renders the distributed fast-path metrics per dist grid
// row: RTTs per executed round, the delta encoding's wire savings, and the
// dist-vs-in-process wall-clock ratio where an exact row pairs with it.
func printDistSummary(rep *bench.Report) {
	printed := false
	for _, rec := range rep.Records {
		if rec.Engine != "dist" || !rec.OK || rec.Mode != "" {
			continue
		}
		if !printed {
			fmt.Println("dist fast path:")
			printed = true
		}
		saved := 0.0
		if rec.BatchBytesFixed > 0 {
			saved = 100 * (1 - float64(rec.BatchBytesDelta)/float64(rec.BatchBytesFixed))
		}
		line := fmt.Sprintf("  %s n=%d shards=%d %s: %.2f RTTs/round, batch bytes -%.0f%%",
			rec.Algo, rec.N, rec.Shards, rec.Transport, rec.RTTsPerRound, saved)
		if rec.DistVsInProc > 0 {
			line += fmt.Sprintf(", %.2fx in-process wall", rec.DistVsInProc)
		}
		fmt.Println(line)
	}
}

// appendReuseRecords measures the repeated-trial throughput grid: for each
// (algo, engine, n, workers) point it solves reuseTrials distinct same-sized
// instances twice — once through independent Solve calls ("fresh"), once
// through a single reusable Solver session ("reuse") — and appends one Mode
// record per series with its trials/sec. Graphs are pre-generated and seeds
// are identical across the two series, so the pair isolates the solver
// lifecycle; the two series also produce byte-identical results by the
// solver determinism contract (any divergence would show up as a failed
// record).
func appendReuseRecords(ctx context.Context, rep *bench.Report, p jsonParams) error {
	for _, n := range p.grid.sizes {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("reuse grid canceled: %w", err)
		}
		pr := dhc.ThresholdP(n, p.cmult, p.delta)
		graphs := make([]*dhc.Graph, p.reuseTrials)
		graphSeed0 := p.seed + uint64(n)
		for t := range graphs {
			graphs[t] = dhc.NewGNP(n, pr, graphSeed0+uint64(t)*1000003)
		}
		for _, algo := range p.grid.algos {
			for _, engine := range p.grid.engines {
				for _, workers := range p.grid.workerGrid {
					opts := dhc.Options{
						Engine:         engine.Engine,
						DenseSweep:     engine.Dense,
						NumColors:      p.colors,
						Delta:          p.delta,
						Workers:        workers,
						BroadcastBound: p.bound,
					}
					applyDist(p.grid, engine, &opts, nil)
					solver, err := dhc.NewSolver(algo, opts)
					if err != nil {
						return err
					}
					series := []struct {
						mode  string
						solve func(t int) (*dhc.Result, error)
					}{
						{"fresh", func(t int) (*dhc.Result, error) {
							o := opts
							o.Seed = p.seed + uint64(t)
							return dhc.SolveContext(ctx, graphs[t], algo, o)
						}},
						{"reuse", func(t int) (*dhc.Result, error) {
							return solver.SolveSeeded(ctx, graphs[t], p.seed+uint64(t))
						}},
					}
					for _, s := range series {
						rec := bench.Record{
							Algo:           algo.String(),
							Engine:         engine.Name(),
							N:              n,
							M:              int64(graphs[0].M()),
							P:              pr,
							Seed:           p.seed,
							GraphSeed:      graphSeed0,
							NumColors:      p.colors,
							BroadcastBound: p.bound,
							Workers:        workers,
							Mode:           s.mode,
						}
						if engine.Dist {
							rec.Shards = p.grid.shards
							rec.Transport = p.grid.transport
						}
						start := time.Now()
						var res *dhc.Result
						var err error
						attempted := 0
						for t := 0; t < p.reuseTrials && err == nil; t++ {
							attempted++
							res, err = s.solve(t)
						}
						rec.WallSeconds = time.Since(start).Seconds()
						// Record the trials actually run; an aborted series
						// must not claim the full count's throughput.
						rec.Trials = attempted
						if err == nil && rec.WallSeconds > 0 {
							rec.TrialsPerSec = float64(attempted) / rec.WallSeconds
						}
						if err != nil {
							rec.Error = err.Error()
						} else {
							rec.OK = true
							rec.Rounds = res.Rounds
							rec.Steps = res.Steps
							rec.Phase1Rounds = res.Phase1Rounds
							rec.Phase2Rounds = res.Phase2Rounds
							// Last trial's shard accounting stands in for the
							// series (per-trial stats would bloat Mode rows).
							rec.ShardStats = res.ShardStats
							if res.Counters != nil {
								rec.Messages = res.Counters.Messages
								rec.Bits = res.Counters.Bits
								rec.RoundsSkipped = res.Counters.RoundsSkipped
							}
						}
						rep.Append(rec)
						fmt.Printf("%s/%s n=%d workers=%d mode=%s: %d trials in %.3fs (%.1f trials/sec) ok=%v\n",
							rec.Algo, rec.Engine, n, workers, s.mode, rec.Trials,
							rec.WallSeconds, rec.TrialsPerSec, rec.OK)
					}
				}
			}
		}
	}
	return nil
}

// appendGenRecords measures construction throughput for the -gen family
// grid: one GenRecord per (family, size), timing a single BuildInstance call
// end to end (weight setup, sampling, CSR build). Lattice families are
// deterministic and parameter-free, so their sizes round down to the nearest
// valid lattice size (largest 2^d for hypercube, largest r*r for torus) and
// param/seed are recorded as zero.
func appendGenRecords(ctx context.Context, rep *bench.Report, p jsonParams) error {
	fams, err := sweep.ParseFamilies(p.gen.families)
	if err != nil {
		return err
	}
	for _, f := range fams {
		for _, size := range p.gen.sizes {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("generator grid canceled: %w", err)
			}
			n := size
			param := p.gen.param
			seed := p.seed
			if f.Deterministic() {
				param, seed = 0, 0
				switch f {
				case sweep.FamilyHypercube:
					n = 8
					for n*2 <= size {
						n *= 2
					}
				case sweep.FamilyTorus:
					side := 3
					for (side+1)*(side+1) <= size {
						side++
					}
					n = side * side
				}
			}
			start := time.Now()
			g, err := sweep.BuildInstance(f, n, param, p.gen.delta, seed)
			wall := time.Since(start).Seconds()
			if err != nil {
				return fmt.Errorf("gen %s n=%d: %w", f, n, err)
			}
			rec := bench.GenRecord{
				Family:      f.String(),
				N:           n,
				M:           int64(g.M()),
				Param:       param,
				Seed:        seed,
				WallSeconds: wall,
			}
			if wall > 0 {
				rec.EdgesPerSec = float64(g.M()) / wall
			}
			rep.Generators = append(rep.Generators, rec)
			fmt.Printf("gen %s n=%d: m=%d wall=%.3fs (%.2gM edges/sec)\n",
				f, n, g.M(), wall, rec.EdgesPerSec/1e6)
		}
	}
	return nil
}

// printSpeedups summarizes worker scaling per series against the grid's
// smallest worker count (whatever order the grid was given in).
func printSpeedups(rep *bench.Report, grid benchGrid) {
	if len(grid.workerGrid) < 2 {
		return
	}
	base := grid.workerGrid[0]
	for _, w := range grid.workerGrid {
		if w < base {
			base = w
		}
	}
	for _, algo := range grid.algos {
		for _, engine := range grid.engines {
			for _, n := range grid.sizes {
				for _, w := range grid.workerGrid {
					if w == base {
						continue
					}
					if s, ok := rep.Speedup(algo.String(), engine.Name(), n, base, w); ok {
						fmt.Printf("speedup %s/%s n=%d: workers=%d vs %d -> %.2fx\n",
							algo.String(), engine.Name(), n, w, base, s)
					}
				}
			}
		}
	}
}

// runValidate gates CI: non-zero exit on malformed schema or any failed run.
func runValidate(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rep, err := bench.DecodeReport(data)
	if err != nil {
		return err
	}
	if failed := rep.FailedRecords(); len(failed) > 0 {
		for _, i := range failed {
			rec := rep.Records[i]
			fmt.Fprintf(os.Stderr, "failed run %d: %s/%s n=%d workers=%d: %s\n",
				i, rec.Algo, rec.Engine, rec.N, rec.Workers, rec.Error)
		}
		return fmt.Errorf("%d of %d runs failed", len(failed), len(rep.Records))
	}
	serviceErrors := 0
	for i, s := range rep.Service {
		if s.Errors > 0 {
			fmt.Fprintf(os.Stderr, "service pass %d (%s): %d of %d requests errored\n",
				i, s.Pass, s.Errors, s.Requests)
			serviceErrors += s.Errors
		}
	}
	if serviceErrors > 0 {
		return fmt.Errorf("%d service requests failed", serviceErrors)
	}
	fmt.Printf("%s: schema v%d, rev %s, %d records, %d service passes, all ok\n",
		path, rep.SchemaVersion, rep.Rev, len(rep.Records), len(rep.Service))
	return nil
}

// printFits reports log-log scaling exponents for the experiments where the
// paper predicts one.
func printFits(id string, t *bench.Table) {
	switch id {
	case "E1":
		xs, ys := bench.Columns(t.Rows, bench.XN, bench.YSteps)
		fmt.Printf("E1 fit: steps ~ n^%.3f (Theorem 2 predicts ~1 x log factor)\n\n",
			bench.FitExponent(xs, ys))
	case "E2":
		xs, ys := bench.Columns(t.Rows, bench.XN, bench.YRounds)
		fmt.Printf("E2 fit: rounds ~ n^%.3f (Theorem 1 predicts ~0.5 x polylog)\n\n",
			bench.FitExponent(xs, ys))
	case "E4":
		byDelta := map[string][]bench.Row{}
		for _, r := range t.Rows {
			byDelta[r.Label] = append(byDelta[r.Label], r)
		}
		for label, rows := range byDelta {
			xs, ys := bench.Columns(rows, bench.XN, bench.YRounds)
			fmt.Printf("E4 fit %s: rounds ~ n^%.3f (Theorem 10 predicts ~delta x polylog)\n",
				label, bench.FitExponent(xs, ys))
		}
		fmt.Println()
	case "E6":
		xs, ys := bench.Columns(t.Rows, bench.XN, bench.YRounds)
		fmt.Printf("E6 fit: rounds ~ n^%.3f (Theorem 19 predicts ~1-delta regimes)\n\n",
			bench.FitExponent(xs, ys))
	}
}
