// Command hcbench regenerates every experiment table of the per-theorem
// index in internal/bench/experiments.go and prints fitted scaling
// exponents. -validate checks the schema and run health of a frozen legacy
// BENCH_<rev>.json file; the repository's benchmark is perfbench.
//
// Usage:
//
//	hcbench                 # all experiments, default scale
//	hcbench -only E2,E4     # a subset
//	hcbench -scale 0.5 -trials 2
//	hcbench -validate BENCH_pr10.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dhc/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hcbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		only     = flag.String("only", "", "comma-separated experiment ids (E1,E2,E3,E4,E6,E8,D1)")
		trials   = flag.Int("trials", 3, "trials per sweep point")
		scale    = flag.Float64("scale", 1, "multiplier on the default n grids")
		seed     = flag.Uint64("seed", 1, "base seed")
		workers  = flag.Int("workers", 1, "worker pool size for the experiment tables (identical results at any value)")
		validate = flag.String("validate", "", "validate an existing JSON report (schema + no failed runs) and exit")
	)
	flag.Parse()

	if *validate != "" {
		return runValidate(*validate)
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
