package dhc_test

// Benchmark targets, one per experiment: E1–E8 and D1 each measure one of
// the paper's claims (the theorem is named in the benchmark's doc), A1–A4
// are engineering ablations. Every leg on G(n, c·ln n/n^δ) keeps p < 1, so
// it measures the regime its name claims rather than the complete graph
// (see benchP). Run them all once with
// `go test -run '^$' -bench '^Benchmark(E[0-9]|D1|A[0-9])' -benchtime 1x .`,
// with `-bench=. -benchmem` for timings, and full sweeps with cmd/hcsweep.

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"dhc"
	"dhc/internal/congest"
	"dhc/internal/core"
	"dhc/internal/graph"
	"dhc/internal/rng"
	"dhc/internal/rotation"
	"dhc/internal/stepsim"
)

// benchP is p = c·ln n/n^δ for one benchmark leg. graph.HCThresholdP clamps
// p at 1, which would quietly turn the leg into the complete graph K_n, so a
// leg whose c puts p at or above 1 fails instead. Each leg reports p.
func benchP(b *testing.B, n int, c, delta float64) float64 {
	b.Helper()
	p := graph.HCThresholdP(n, c, delta)
	if p >= 1 {
		b.Fatalf("n=%d c=%g delta=%g: p = c·ln n/n^delta is not below 1", n, c, delta)
	}
	return p
}

// newThinnedMachine builds a rotation machine with the Theorem 2 analysis
// coupling enabled (each unused-list entry kept with probability q/p).
func newThinnedMachine(g *graph.Graph, p float64, seed uint64) *rotation.Machine {
	src := rng.New(seed)
	return rotation.New(g, graph.NodeID(src.Intn(g.N())), src, rotation.Config{ThinningP: p})
}

// BenchmarkE1_DRASteps — Theorem 2: DRA steps vs the 7·n·ln n budget.
func BenchmarkE1_DRASteps(b *testing.B) {
	for _, n := range []int{512, 2048, 8192} {
		p := benchP(b, n, 16, 1.0)
		g := graph.GNP(n, p, rng.New(uint64(n)))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				_, cost, err := stepsim.DRA(g, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				steps = cost.Steps
			}
			b.ReportMetric(float64(steps)/(float64(n)*math.Log(float64(n))), "steps/nlnn")
			b.ReportMetric(p, "p")
		})
	}
}

// BenchmarkE2_DHC1Rounds — Theorem 1: DHC1 rounds ~ Õ(√n), with phase split
// (figure F1's two-phase structure). c = 3 keeps p < 1 from n = 1024 up.
func BenchmarkE2_DHC1Rounds(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384} {
		p := benchP(b, n, 3, 0.5)
		g := graph.GNP(n, p, rng.New(uint64(n)*3))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var cost stepsim.Cost
			for i := 0; i < b.N; i++ {
				var err error
				_, cost, err = stepsim.DHC1(g, uint64(i), stepsim.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cost.Rounds)/math.Sqrt(float64(n)), "rounds/sqrtn")
			b.ReportMetric(float64(cost.Phase1Rounds), "phase1-rounds")
			b.ReportMetric(float64(cost.Phase2Rounds), "phase2-rounds")
			b.ReportMetric(p, "p")
		})
	}
}

// BenchmarkE3_Partition — Lemma 4/7: colour-class sizes concentrate around
// n/K. Each vertex draws its colour uniformly from K = n^(1−δ) classes, as
// DHC phase 1 does; the metrics are the smallest and largest class over n/K.
func BenchmarkE3_Partition(b *testing.B) {
	for _, tc := range []struct {
		n     int
		delta float64
	}{
		{1024, 0.5}, {4096, 0.5}, {16384, 0.5}, {16384, 0.3}, {16384, 0.7},
	} {
		k := int(math.Round(math.Pow(float64(tc.n), 1-tc.delta)))
		counts := make([]int, k)
		b.Run(fmt.Sprintf("n=%d/delta=%.1f", tc.n, tc.delta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clear(counts)
				src := rng.New(uint64(i) + uint64(tc.n) + uint64(tc.delta*100))
				for v := 0; v < tc.n; v++ {
					counts[src.Intn(k)]++
				}
			}
			mean := float64(tc.n) / float64(k)
			b.ReportMetric(float64(slices.Min(counts))/mean, "min-ratio")
			b.ReportMetric(float64(slices.Max(counts))/mean, "max-ratio")
		})
	}
}

// BenchmarkE4_DHC2Rounds — Theorem 10: DHC2 rounds ~ Õ(n^δ); denser ⇒ faster.
// At n = 4096, p < 1 needs c < 1.45 for δ = 0.3, so each δ has its own c.
func BenchmarkE4_DHC2Rounds(b *testing.B) {
	n := 4096
	for _, leg := range []struct{ delta, c float64 }{{0.3, 1.4}, {0.5, 3}, {0.7, 16}} {
		delta := leg.delta
		p := benchP(b, n, leg.c, delta)
		g := graph.GNP(n, p, rng.New(uint64(n)+uint64(delta*100)))
		b.Run(fmt.Sprintf("delta=%.1f", delta), func(b *testing.B) {
			var cost stepsim.Cost
			for i := 0; i < b.N; i++ {
				var err error
				_, cost, err = stepsim.DHC2(g, uint64(i), stepsim.Options{Delta: delta})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cost.Rounds)/math.Pow(float64(n), delta), "rounds/n^delta")
			b.ReportMetric(p, "p")
		})
	}
}

// BenchmarkE5_MergeBridges — Lemma 8/9 and figure F3: all ⌈log K⌉ merge
// levels succeed; the exact engine exercises the real bridge protocol.
func BenchmarkE5_MergeBridges(b *testing.B) {
	g := graph.GNP(240, 0.75, rng.New(99))
	for i := 0; i < b.N; i++ {
		res, err := core.NewDHC2Session(core.Options{NumColors: 8, B: 10}).RunLocal(g, uint64(i), congest.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.PartitionSizes) != 8 {
			b.Fatalf("%d partitions, want 8 (three merge levels)", len(res.PartitionSizes))
		}
	}
}

// BenchmarkE6_Upcast — Theorems 17/19, Corollary 20: Upcast rounds vs
// log(n)/p at δ ∈ {1/2, 2/3}.
func BenchmarkE6_Upcast(b *testing.B) {
	n := 4096
	for _, delta := range []float64{0.5, 2.0 / 3.0} {
		p := benchP(b, n, 3, delta)
		g := graph.GNP(n, p, rng.New(uint64(n)*7+uint64(delta*100)))
		b.Run(fmt.Sprintf("delta=%.2f", delta), func(b *testing.B) {
			var cost stepsim.Cost
			for i := 0; i < b.N; i++ {
				var err error
				_, cost, err = stepsim.Upcast(g, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cost.Rounds)/(math.Log(float64(n))/p), "rounds/(lnn÷p)")
			b.ReportMetric(p, "p")
		})
	}
}

// BenchmarkE7_MemoryBalance — fully-distributed claim: DHC2's per-node
// memory and work stay balanced while Upcast concentrates Ω(n) at the root.
func BenchmarkE7_MemoryBalance(b *testing.B) {
	g := graph.GNP(240, 0.75, rng.New(17))
	b.Run("dhc2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := dhc.Solve(g, dhc.AlgorithmDHC2, dhc.Options{Seed: uint64(i), NumColors: 6})
			if err != nil {
				b.Fatal(err)
			}
			mem := res.Counters.MemoryDistribution()
			b.ReportMetric(float64(mem.Max)/(mem.Mean+1), "mem-balance")
		}
	})
	b.Run("upcast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := dhc.Solve(g, dhc.AlgorithmUpcast, dhc.Options{Seed: uint64(i)})
			if err != nil {
				b.Fatal(err)
			}
			mem := res.Counters.MemoryDistribution()
			b.ReportMetric(float64(mem.Max)/(mem.Mean+1), "mem-balance")
		}
	})
}

// BenchmarkE8_Baselines — comparison of all algorithms (incl. Levy-style and
// the trivial O(m) bound) on identical graphs.
func BenchmarkE8_Baselines(b *testing.B) {
	n := 2048
	p := benchP(b, n, 3, 0.5)
	g := graph.GNP(n, p, rng.New(uint64(n)*11))
	run := map[string]func(seed uint64) (stepsim.Cost, error){
		"dhc1": func(s uint64) (stepsim.Cost, error) {
			_, c, err := stepsim.DHC1(g, s, stepsim.Options{})
			return c, err
		},
		"dhc2": func(s uint64) (stepsim.Cost, error) {
			_, c, err := stepsim.DHC2(g, s, stepsim.Options{Delta: 0.5})
			return c, err
		},
		"upcast": func(s uint64) (stepsim.Cost, error) {
			_, c, err := stepsim.Upcast(g, s)
			return c, err
		},
		"levy": func(s uint64) (stepsim.Cost, error) {
			_, c, err := stepsim.Levy(g, s)
			return c, err
		},
		"trivial": func(s uint64) (stepsim.Cost, error) {
			_, c, err := stepsim.Trivial(g, s)
			return c, err
		},
	}
	for _, name := range []string{"dhc1", "dhc2", "upcast", "levy", "trivial"} {
		b.Run(name, func(b *testing.B) {
			var cost stepsim.Cost
			for i := 0; i < b.N; i++ {
				var err error
				cost, err = run[name](uint64(i))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cost.Rounds), "rounds")
			b.ReportMetric(p, "p")
		})
	}
}

// BenchmarkD1_Diameter — Chung–Lu diameter fact used by Theorems 1/10.
func BenchmarkD1_Diameter(b *testing.B) {
	n := 8192
	p := benchP(b, n, 4, 1.0)
	g := graph.GNP(n, p, rng.New(uint64(n)*13))
	var d int
	for i := 0; i < b.N; i++ {
		d = g.DiameterSampled(3, rng.New(uint64(i)))
	}
	b.ReportMetric(float64(d), "diameter")
	b.ReportMetric(math.Log(float64(n))/math.Log(math.Log(float64(n))), "chung-lu-bound")
	b.ReportMetric(p, "p")
}

// BenchmarkA1_EngineAgreement — ablation: exact CONGEST engine vs step
// engine round counts on identical small instances.
func BenchmarkA1_EngineAgreement(b *testing.B) {
	g := graph.GNP(200, 0.8, rng.New(23))
	var exact, step int64
	for i := 0; i < b.N; i++ {
		re, err := dhc.Solve(g, dhc.AlgorithmDHC2, dhc.Options{Seed: uint64(i), NumColors: 8})
		if err != nil {
			b.Fatal(err)
		}
		rs, err := dhc.Solve(g, dhc.AlgorithmDHC2, dhc.Options{Seed: uint64(i), NumColors: 8, Engine: dhc.EngineStep})
		if err != nil {
			b.Fatal(err)
		}
		exact, step = re.Rounds, rs.Rounds
	}
	b.ReportMetric(float64(exact), "exact-rounds")
	b.ReportMetric(float64(step), "step-rounds")
}

// BenchmarkA3_EdgeThinning — ablation: the Theorem 2 analysis coupling
// (q-thinned unused lists) vs the practical full lists.
func BenchmarkA3_EdgeThinning(b *testing.B) {
	n := 2048
	p := benchP(b, n, 24, 1.0)
	g := graph.GNP(n, p, rng.New(uint64(n)*17))
	b.Run("full", func(b *testing.B) {
		var steps int64
		for i := 0; i < b.N; i++ {
			_, cost, err := stepsim.DRA(g, uint64(i))
			if err != nil {
				b.Fatal(err)
			}
			steps = cost.Steps
		}
		b.ReportMetric(float64(steps), "steps")
		b.ReportMetric(p, "p")
	})
	b.Run("thinned", func(b *testing.B) {
		// Thinning is exercised through the rotation machine directly.
		var steps int64
		for i := 0; i < b.N; i++ {
			m := newThinnedMachine(g, p, uint64(i))
			_, st, err := m.Run()
			if err != nil {
				b.Fatal(err)
			}
			steps = st.Steps
		}
		b.ReportMetric(float64(steps), "steps")
		b.ReportMetric(p, "p")
	})
}

// BenchmarkA4_StitchVsMerge — ablation: DHC1's hypernode stitching vs
// DHC2's tree merging at the same K = √n.
func BenchmarkA4_StitchVsMerge(b *testing.B) {
	n := 2048
	p := benchP(b, n, 3, 0.5)
	g := graph.GNP(n, p, rng.New(uint64(n)*19))
	k := int(math.Round(math.Sqrt(float64(n))))
	b.Run("dhc1-stitch", func(b *testing.B) {
		var cost stepsim.Cost
		for i := 0; i < b.N; i++ {
			var err error
			_, cost, err = stepsim.DHC1(g, uint64(i), stepsim.Options{NumColors: k})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(cost.Phase2Rounds), "phase2-rounds")
		b.ReportMetric(p, "p")
	})
	b.Run("dhc2-merge", func(b *testing.B) {
		var cost stepsim.Cost
		for i := 0; i < b.N; i++ {
			var err error
			_, cost, err = stepsim.DHC2(g, uint64(i), stepsim.Options{NumColors: k})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(cost.Phase2Rounds), "phase2-rounds")
		b.ReportMetric(p, "p")
	})
}

// BenchmarkGraphRepresentation — the CSR tentpole claim: constructing
// G(n, c·ln n/n) at n = 10^5 through the one-pass CSR path vs a faithful
// replica of the seed's representation (map[Edge]struct{} dedup feeding
// per-vertex []NodeID lists). Run with -benchmem; the CSR path must allocate
// at least 2x fewer bytes (measured on 2 vCPUs: 115 MB in ~1.7k
// allocations, most of them the skip blocks' goroutine hand-offs, vs 533 MB
// in 366k allocations — 4.6x less memory — and 0.26–0.33 s vs 6.6–7.6 s
// wall-clock).
func BenchmarkGraphRepresentation(b *testing.B) {
	n := 100_000
	p := graph.HCThresholdP(n, 16, 1.0)
	b.Run("csr-one-pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := graph.GNP(n, p, rng.New(42))
			if g.M() == 0 {
				b.Fatal("empty graph")
			}
		}
	})
	b.Run("seed-map-adjacency", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Identical Batagelj-Brandes edge stream, stored the way the
			// seed's Builder did it.
			src := rng.New(42)
			logq := math.Log1p(-p)
			edges := make(map[graph.Edge]struct{})
			v, w := 1, -1
			for v < n {
				w += 1 + src.Geometric(logq)
				for w >= v && v < n {
					w -= v
					v++
				}
				if v < n {
					edges[graph.Edge{U: graph.NodeID(w), V: graph.NodeID(v)}] = struct{}{}
				}
			}
			degs := make([]int, n)
			for e := range edges {
				degs[e.U]++
				degs[e.V]++
			}
			adj := make([][]graph.NodeID, n)
			for i, d := range degs {
				adj[i] = make([]graph.NodeID, 0, d)
			}
			for e := range edges {
				adj[e.U] = append(adj[e.U], e.V)
				adj[e.V] = append(adj[e.V], e.U)
			}
			for i := range adj {
				sort.Slice(adj[i], func(a, c int) bool { return adj[i][a] < adj[i][c] })
			}
			if len(edges) == 0 {
				b.Fatal("empty graph")
			}
		}
	})
}

// BenchmarkStepEngineWorkers — the sharding tentpole: DHC2 phase 1 across
// the worker pool. On multi-core hardware workers=4 cuts wall-clock; on any
// hardware the results are byte-identical (see determinism_test.go).
func BenchmarkStepEngineWorkers(b *testing.B) {
	n := 20000
	pr := graph.HCThresholdP(n, 16, 1.0)
	g := graph.GNP(n, pr, rng.New(77))
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := stepsim.DHC2(g, uint64(i), stepsim.Options{NumColors: 8, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
