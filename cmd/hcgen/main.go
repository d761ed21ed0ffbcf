// Command hcgen generates random graphs in the repository's edge-list format
// and reports structural statistics (degrees, connectivity, diameter).
//
// A graph is named by the recipe hcsweep cells and POST /solve use (family,
// n, param, delta, seed) and built by sweep.BuildInstance, so one recipe is
// one graph in all three; param is the family's density knob (see
// sweep.Family).
//
// Usage:
//
//	hcgen -n 1024 -param 8 -delta 0.5 -seed 3 -o graph.txt
//	hcgen -family regular -n 100 -param 6
//	hcgen -family powerlaw -n 4096 -param 4 -delta 1 -stats
//	hcgen -family hypercube -n 63 -stats
//	hcgen -family torus -n 1024 -stats
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"dhc/internal/rng"
	"dhc/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "hcgen:", err)
		os.Exit(1)
	}
}

// run parses args, builds the graph, and writes its edge list (or, with
// -stats, its statistics) to w, or the edge list to the -o file.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("hcgen", flag.ContinueOnError)
	var (
		family = fs.String("family", "gnp", "graph family, as in hcsweep -families and POST /solve")
		n      = fs.Int("n", 1024, "vertices")
		param  = fs.Float64("param", 8, "family density parameter (c, regular degree, geometric radius scale)")
		delta  = fs.Float64("delta", 0.5, "sparsity exponent of p = c ln(n)/n^delta")
		seed   = fs.Uint64("seed", 1, "generator seed")
		out    = fs.String("o", "", "write the edge list to this file instead of stdout")
		stats  = fs.Bool("stats", false, "print statistics instead of the edge list")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fam, err := sweep.ParseFamily(*family)
	if err != nil {
		return err
	}
	g, err := sweep.BuildInstance(fam, *n, *param, *delta, *seed)
	if err != nil {
		return err
	}

	if *stats {
		fmt.Fprintf(w, "n=%d m=%d avgDeg=%.2f minDeg=%d maxDeg=%d connected=%v\n",
			g.N(), g.M(), g.AvgDegree(), g.MinDegree(), g.MaxDegree(), g.Connected())
		if g.Connected() {
			fmt.Fprintf(w, "diameter>=%d (double-sweep estimate)\n",
				g.DiameterSampled(4, rng.New(*seed+7)))
		}
		return nil
	}
	if *out == "" {
		return g.WriteEdgeList(w)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	return errors.Join(g.WriteEdgeList(f), f.Close())
}
