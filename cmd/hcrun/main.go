// Command hcrun runs one Hamiltonian-cycle algorithm on one generated graph
// and prints the result and cost metrics.
//
// The graph is named by its -graph recipe (sweep.Recipe: family, n, param,
// delta, graph seed), the one hcgen, hcsweep cells and POST /solve use, so
// one recipe is one graph everywhere; omitted keys take the defaults of a
// bare gnp/n=1024/param=8/delta=1/gs=0. The recipe's delta is also DHC2's
// partition exponent. -json prints the result record POST /solve answers
// with (sweep.Record), failed runs included: it embeds the recipe,
// algorithm, engine, seed and budgets, so pasting them back into hcrun
// reproduces it.
//
// The run is a solver session: Ctrl-C cancels it at the engine's next
// amortized checkpoint (the exit message reports the canceled failure
// class), -timeout bounds its wall-clock, and -progress streams phase
// transitions, restarts, and throttled round progress to stderr.
//
// Usage:
//
//	hcrun -algo dhc2 -graph gnp/n=1024/param=2/delta=0.5 -seed 1 -engine step
//	hcrun -algo upcast -graph gnp/n=512/param=8/gs=3 -json
//	hcrun -algo dra -graph sbm/n=1024/param=8 -engine step
//	hcrun -algo dhc1 -graph gnp/n=4096/param=4/delta=0.5 -progress -timeout 30s
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dhc"
	"dhc/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "hcrun:", err)
		os.Exit(1)
	}
}

// solve is the solver entry point run calls; tests swap it to observe the
// graph a recipe built.
var solve = dhc.SolveContext

// run parses args, builds the -graph recipe, solves it and writes the result
// to stdout (progress and the flag usage to stderr).
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hcrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		algoName  = fs.String("algo", "dhc2", "algorithm: dra, dhc1, dhc2, upcast")
		recipe    = fs.String("graph", "gnp", "graph recipe FAMILY/n=N/param=C/delta=D/gs=SEED (omitted keys default)")
		seed      = fs.Uint64("seed", 1, "solver seed (the graph seed is the recipe's gs)")
		engine    = fs.String("engine", "exact", "engine: exact or step")
		bound     = fs.Int64("bound", 0, "broadcast-bound override B for the exact engines: every wait of dra and upcast, the windows before a DHC partition has measured its own bound, and the dhc2 merge levels whose partition unions not every node vouches for (0 = eccentricity default)")
		maxR      = fs.Int64("maxrounds", 0, "round-budget override for the exact engines (0 = derived default)")
		timeout   = fs.Duration("timeout", 0, "wall-clock bound on the run (0 = none)")
		progress  = fs.Bool("progress", false, "stream phases, restarts and round progress to stderr")
		workers   = fs.Int("workers", 1, "step-engine parallel workers (phase-1 shards and phase-2 merge tree); the exact engine ignores it")
		colors    = fs.Int("colors", 0, "override partition count K")
		shards    = fs.Int("shards", 0, "run the exact engine distributed across this many shard workers (0/1 = in-process)")
		transport = fs.String("transport", "", "shard transport when -shards > 1: unix (default, goroutine workers behind unix sockets) or proc (real hcshard processes)")
		shardBin  = fs.String("shardbin", "", "hcshard binary for -transport proc (default: resolve hcshard via PATH)")
		asJSON    = fs.Bool("json", false, "print the result record as JSON")
		quiet     = fs.Bool("q", false, "suppress the cycle itself")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	algo, err := dhc.ParseAlgorithm(*algoName)
	if err != nil {
		return err
	}
	eng, err := dhc.ParseEngine(*engine)
	if err != nil {
		return err
	}
	r, err := sweep.ParseRecipe(*recipe)
	if err != nil {
		return err
	}
	g, err := r.Build()
	if err != nil {
		return err
	}
	opts := dhc.Options{
		Seed:           *seed,
		Engine:         eng,
		Delta:          r.Delta,
		NumColors:      *colors,
		Workers:        *workers,
		BroadcastBound: *bound,
		MaxRounds:      *maxR,
		Shards:         *shards,
		Transport:      *transport,
		ShardBinary:    *shardBin,
	}
	if *progress {
		opts.Observer = progressObserver(stderr)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := solve(ctx, g, algo, opts)
	if *asJSON {
		rec := sweep.NewRecord(r.String(), algo, opts, g, res, err)
		if err == nil && !*quiet {
			rec.Cycle = res.Cycle.Order()
		}
		// A failed run prints its record too; its error sets the exit status.
		if encErr := json.NewEncoder(stdout).Encode(rec); err == nil {
			return encErr
		}
	}
	if err != nil {
		if class := dhc.Classify(err); class == dhc.FailureCanceled {
			return fmt.Errorf("run canceled (class %s): %w", class, err)
		}
		return err
	}
	fmt.Fprintf(stdout, "%s on %s (m=%d): rounds=%d steps=%d\n", algo, r, g.M(), res.Rounds, res.Steps)
	if res.Phase1Rounds > 0 {
		fmt.Fprintf(stdout, "  phase1=%d rounds, phase2=%d rounds\n", res.Phase1Rounds, res.Phase2Rounds)
	}
	if res.Counters != nil {
		mem := res.Counters.MemoryDistribution()
		fmt.Fprintf(stdout, "  messages=%d bits=%d maxMsgBits=%d memMax=%d memP50=%d\n",
			res.Counters.Messages, res.Counters.Bits, res.Counters.MaxMessageBits,
			mem.Max, mem.P50)
	}
	for _, st := range res.ShardStats {
		fmt.Fprintf(stdout, "  shard %d [%d,%d): sent=%dB recv=%dB busy=%.3fs rtts=%d local=%d cross=%d batch=%dB (fixed %dB)\n",
			st.Shard, st.Lo, st.Hi, st.BytesSent, st.BytesRecv, st.BusySeconds,
			st.RTTs, st.LocalMsgs, st.CrossMsgs, st.BatchBytesDelta, st.BatchBytesFixed)
	}
	if !*quiet {
		fmt.Fprintf(stdout, "  cycle: %v\n", res.Cycle)
	}
	return nil
}

// progressObserver streams the run's lifecycle to w: every phase transition
// and restart, plus round progress throttled to once per second (the exact
// engine's OnRounds checkpoint fires far more often).
func progressObserver(w io.Writer) *dhc.Observer {
	var lastBeat time.Time
	return &dhc.Observer{
		OnPhase: func(phase string) {
			fmt.Fprintf(w, "hcrun: entering %s\n", phase)
		},
		OnRestart: func(restarts int) {
			fmt.Fprintf(w, "hcrun: restart (%d so far)\n", restarts)
		},
		OnRounds: func(rounds int64) {
			if now := time.Now(); now.Sub(lastBeat) >= time.Second {
				lastBeat = now
				fmt.Fprintf(w, "hcrun: %d rounds charged\n", rounds)
			}
		},
	}
}
