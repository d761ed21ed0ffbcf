// Command hcgen generates random graphs in the repository's edge-list format
// and reports structural statistics (degrees, connectivity, diameter).
//
// Usage:
//
//	hcgen -n 1024 -p 0.05 -seed 3 -o graph.txt
//	hcgen -n 1024 -c 8 -delta 0.5 -stats
//	hcgen -model regular -n 100 -d 6
//	hcgen -model powerlaw -n 4096 -avgdeg 24 -gamma 2.5 -stats
//	hcgen -model geometric -n 4096 -c 2 -stats
//	hcgen -model sbm -n 4096 -c 4 -delta 1 -blocks 4 -ratio 4 -stats
//	hcgen -model torus -n 1024 -stats
package main

import (
	"flag"
	"fmt"
	"os"

	"dhc"
	"dhc/internal/graph"
	"dhc/internal/rng"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hcgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		model  = flag.String("model", "gnp", "graph model: gnp, gnm, regular, powerlaw, geometric, sbm, hypercube, torus, ring, complete")
		n      = flag.Int("n", 1024, "vertices")
		p      = flag.Float64("p", 0, "GNP/SBM edge probability (overrides -c/-delta)")
		c      = flag.Float64("c", 8, "density constant of p = c ln(n)/n^delta")
		delta  = flag.Float64("delta", 0.5, "sparsity exponent")
		m      = flag.Int("m", 0, "GNM edge count")
		d      = flag.Int("d", 4, "regular degree")
		gamma  = flag.Float64("gamma", 2.5, "powerlaw tail exponent (> 2)")
		avgDeg = flag.Float64("avgdeg", 0, "powerlaw mean degree (0 derives n*p from -c/-delta)")
		radius = flag.Float64("radius", 0, "geometric connection radius (0 derives c*sqrt(ln n/(pi n)) from -c)")
		blocks = flag.Int("blocks", 4, "sbm block count")
		ratio  = flag.Float64("ratio", 4, "sbm in/out probability ratio pIn/pOut")
		rows   = flag.Int("rows", 0, "torus rows (0 derives a square torus from -n)")
		cols   = flag.Int("cols", 0, "torus cols (0 derives a square torus from -n)")
		seed   = flag.Uint64("seed", 1, "generator seed")
		out    = flag.String("o", "", "write edge list to file (default stdout if not -stats)")
		stats  = flag.Bool("stats", false, "print statistics instead of the edge list")
	)
	flag.Parse()

	var g *dhc.Graph
	switch *model {
	case "gnp":
		prob := *p
		if prob == 0 {
			prob = dhc.ThresholdP(*n, *c, *delta)
		}
		g = dhc.NewGNP(*n, prob, *seed)
	case "gnm":
		if *m <= 0 {
			return fmt.Errorf("gnm needs -m > 0")
		}
		if err := graph.ValidateEdgeCount(*n, int64(*m)); err != nil {
			return err
		}
		g = dhc.NewGNM(*n, *m, *seed)
	case "regular":
		var err error
		g, err = dhc.NewRandomRegular(*n, *d, *seed)
		if err != nil {
			return err
		}
	case "powerlaw":
		if *gamma <= 2 {
			return fmt.Errorf("powerlaw needs -gamma > 2, got %v", *gamma)
		}
		avg := *avgDeg
		if avg == 0 {
			avg = float64(*n) * dhc.ThresholdP(*n, *c, *delta)
		}
		g = dhc.NewChungLu(*n, avg, *gamma, *seed)
	case "geometric":
		r := *radius
		if r == 0 {
			r = graph.GeometricThresholdR(*n, *c)
		}
		g = dhc.NewGeometric(*n, r, *seed)
	case "sbm":
		if *blocks < 1 {
			return fmt.Errorf("sbm needs -blocks >= 1, got %d", *blocks)
		}
		pbar := *p
		if pbar == 0 {
			pbar = dhc.ThresholdP(*n, *c, *delta)
		}
		pOut := float64(*blocks) * pbar / (*ratio + float64(*blocks) - 1)
		g = dhc.NewSBM(*n, *blocks, *ratio*pOut, pOut, *seed)
	case "hypercube":
		if *n < 2 || *n&(*n-1) != 0 {
			return fmt.Errorf("hypercube needs -n a power of two >= 2, got %d", *n)
		}
		dim := 0
		for 1<<dim < *n {
			dim++
		}
		g = dhc.NewHypercube(dim)
	case "torus":
		r, cl := *rows, *cols
		if r == 0 && cl == 0 {
			side := 1
			for (side+1)*(side+1) <= *n {
				side++
			}
			if side*side != *n {
				return fmt.Errorf("torus needs -n a perfect square (or explicit -rows/-cols), got %d", *n)
			}
			r, cl = side, side
		}
		if r < 1 || cl < 1 {
			return fmt.Errorf("torus needs positive -rows and -cols, got %dx%d", r, cl)
		}
		g = dhc.NewTorus(r, cl)
	case "ring":
		g = graph.Ring(*n)
	case "complete":
		g = graph.Complete(*n)
	default:
		// List the valid names deterministically (sorted), matching the
		// ParseAlgorithm / ParseEngine error convention.
		return fmt.Errorf("unknown model %q (valid: complete, geometric, gnm, gnp, hypercube, powerlaw, regular, ring, sbm, torus)", *model)
	}

	if *stats {
		fmt.Printf("n=%d m=%d avgDeg=%.2f minDeg=%d maxDeg=%d connected=%v\n",
			g.N(), g.M(), g.AvgDegree(), g.MinDegree(), g.MaxDegree(), g.Connected())
		if g.Connected() {
			fmt.Printf("diameter>=%d (double-sweep estimate)\n",
				g.DiameterSampled(4, rng.New(*seed+7)))
		}
		return nil
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return g.WriteEdgeList(w)
}
