// Command hcrun runs one Hamiltonian-cycle algorithm on one generated random
// graph and prints the result and cost metrics.
//
// The run is a solver session: Ctrl-C cancels it at the engine's next
// amortized checkpoint (the exit message reports the canceled failure
// class), -timeout bounds its wall-clock, and -progress streams phase
// transitions, restarts, and throttled round progress to stderr.
//
// Usage:
//
//	hcrun -algo dhc2 -n 1024 -c 16 -delta 0.5 -seed 1 -engine step
//	hcrun -algo upcast -n 512 -p 0.3 -json
//	hcrun -algo dhc1 -n 4096 -engine exact -progress -timeout 30s
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dhc"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hcrun:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		algoName  = flag.String("algo", "dhc2", "algorithm: dra, dhc1, dhc2, upcast")
		n         = flag.Int("n", 1024, "number of vertices")
		p         = flag.Float64("p", 0, "edge probability (overrides -c/-delta)")
		c         = flag.Float64("c", 16, "density constant of p = c ln(n)/n^delta")
		delta     = flag.Float64("delta", 0.5, "sparsity exponent delta")
		seed      = flag.Uint64("seed", 1, "run seed (graph uses seed+1)")
		engine    = flag.String("engine", "exact", "engine: exact or step")
		bound     = flag.Int64("bound", 0, "broadcast-bound override B for the exact engines (0 = tight default)")
		maxR      = flag.Int64("maxrounds", 0, "round-budget override for the exact engines (0 = derived default)")
		timeout   = flag.Duration("timeout", 0, "wall-clock bound on the run (0 = none)")
		progress  = flag.Bool("progress", false, "stream phases, restarts and round progress to stderr")
		workers   = flag.Int("workers", 1, "step-engine parallel workers (phase-1 shards and phase-2 merge tree); the exact engine ignores it")
		colors    = flag.Int("colors", 0, "override partition count K")
		shards    = flag.Int("shards", 0, "run the exact engine distributed across this many shard workers (0/1 = in-process)")
		transport = flag.String("transport", "", "shard transport when -shards > 1: unix (default, goroutine workers behind unix sockets) or proc (real hcshard processes)")
		shardBin  = flag.String("shardbin", "", "hcshard binary for -transport proc (default: resolve hcshard via PATH)")
		asJSON    = flag.Bool("json", false, "JSON output")
		quiet     = flag.Bool("q", false, "suppress the cycle itself")
	)
	flag.Parse()

	algo, err := dhc.ParseAlgorithm(*algoName)
	if err != nil {
		return err
	}
	eng, err := dhc.ParseEngine(*engine)
	if err != nil {
		return err
	}
	prob := *p
	if prob == 0 {
		prob = dhc.ThresholdP(*n, *c, *delta)
	}
	g := dhc.NewGNP(*n, prob, *seed+1)
	opts := dhc.Options{
		Seed:           *seed,
		Engine:         eng,
		Delta:          *delta,
		NumColors:      *colors,
		Workers:        *workers,
		BroadcastBound: *bound,
		MaxRounds:      *maxR,
		Shards:         *shards,
		Transport:      *transport,
		ShardBinary:    *shardBin,
	}
	if *progress {
		opts.Observer = progressObserver()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := dhc.SolveContext(ctx, g, algo, opts)
	if err != nil {
		if class := dhc.Classify(err); class == dhc.FailureCanceled {
			return fmt.Errorf("run canceled (class %s): %w", class, err)
		}
		return err
	}
	if *asJSON {
		out := map[string]any{
			"algo":   algo.String(),
			"n":      *n,
			"m":      g.M(),
			"p":      prob,
			"rounds": res.Rounds,
			"steps":  res.Steps,
			"phase1": res.Phase1Rounds,
			"phase2": res.Phase2Rounds,
		}
		if res.Counters != nil {
			out["messages"] = res.Counters.Messages
			out["bits"] = res.Counters.Bits
			out["maxMemWords"] = res.Counters.MemoryDistribution().Max
		}
		if res.ShardStats != nil {
			out["shards"] = res.ShardStats
		}
		if !*quiet {
			out["cycle"] = res.Cycle.Order()
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Printf("%s on G(n=%d, p=%.5f) (m=%d): rounds=%d steps=%d\n",
		algo, *n, prob, g.M(), res.Rounds, res.Steps)
	if res.Phase1Rounds > 0 {
		fmt.Printf("  phase1=%d rounds, phase2=%d rounds\n", res.Phase1Rounds, res.Phase2Rounds)
	}
	if res.Counters != nil {
		mem := res.Counters.MemoryDistribution()
		fmt.Printf("  messages=%d bits=%d maxMsgBits=%d memMax=%d memP50=%d\n",
			res.Counters.Messages, res.Counters.Bits, res.Counters.MaxMessageBits,
			mem.Max, mem.P50)
	}
	if res.ShardStats != nil {
		for _, st := range res.ShardStats {
			fmt.Printf("  shard %d [%d,%d): sent=%dB recv=%dB busy=%.3fs rtts=%d local=%d cross=%d batch=%dB (fixed %dB)\n",
				st.Shard, st.Lo, st.Hi, st.BytesSent, st.BytesRecv, st.BusySeconds,
				st.RTTs, st.LocalMsgs, st.CrossMsgs, st.BatchBytesDelta, st.BatchBytesFixed)
		}
	}
	if !*quiet {
		fmt.Printf("  cycle: %v\n", res.Cycle)
	}
	return nil
}

// progressObserver streams the run's lifecycle to stderr: every phase
// transition and restart, plus round progress throttled to once per second
// (the exact engine's OnRounds checkpoint fires far more often).
func progressObserver() *dhc.Observer {
	var lastBeat time.Time
	return &dhc.Observer{
		OnPhase: func(phase string) {
			fmt.Fprintf(os.Stderr, "hcrun: entering %s\n", phase)
		},
		OnRestart: func(restarts int) {
			fmt.Fprintf(os.Stderr, "hcrun: restart (%d so far)\n", restarts)
		},
		OnRounds: func(rounds int64) {
			if now := time.Now(); now.Sub(lastBeat) >= time.Second {
				lastBeat = now
				fmt.Fprintf(os.Stderr, "hcrun: %d rounds charged\n", rounds)
			}
		},
	}
}
