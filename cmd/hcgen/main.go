// Command hcgen generates random graphs in the repository's edge-list format
// and reports structural statistics (degrees, connectivity, diameter).
//
// A graph is named by its -graph recipe (sweep.Recipe: family, n, param,
// delta, graph seed), the one hcrun, hcsweep cells and POST /solve use, so one
// recipe is one graph in all four; param is the family's density knob (see
// sweep.Family). Omitted keys take the defaults of a bare
// gnp/n=1024/param=8/delta=1/gs=0.
//
// Usage:
//
//	hcgen -graph gnp/n=1024/param=8/delta=0.5/gs=3 -o graph.txt
//	hcgen -graph regular/n=100/param=6
//	hcgen -graph powerlaw/n=4096/param=4 -stats
//	hcgen -graph hypercube/n=63 -stats
//	hcgen -graph torus/n=1024 -stats
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
		recipe = fs.String("graph", "gnp", "graph recipe FAMILY/n=N/param=C/delta=D/gs=SEED (omitted keys default)")
		out    = fs.String("o", "", "write the edge list to this file instead of stdout")
		stats  = fs.Bool("stats", false, "print statistics instead of the edge list")
	)
	if err := fs.Parse(args); err != nil {
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

	if *stats {
		fmt.Fprintf(w, "n=%d m=%d avgDeg=%.2f minDeg=%d maxDeg=%d connected=%v\n",
			g.N(), g.M(), g.AvgDegree(), g.MinDegree(), g.MaxDegree(), g.Connected())
		if g.Connected() {
			fmt.Fprintf(w, "diameter>=%d (double-sweep estimate)\n",
				g.DiameterSampled(4, rng.New(r.GraphSeed+7)))
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
