package bench

import (
	"fmt"
	"math"

	"dhc/internal/graph"
	"dhc/internal/rng"
	"dhc/internal/stepsim"
)

// Config tunes experiment sweeps. Zero values select defaults sized for a
// laptop run of a few minutes total.
type Config struct {
	// Trials per sweep point.
	Trials int
	// Scale multiplies the default n grids (1 = default; 0.5 halves).
	Scale float64
	Seed  uint64
	// Workers shards the step engine's phase 1 across a worker pool.
	// Results are identical for every value; only wall-clock changes.
	Workers int
}

// simOpts builds the step-engine options for one sweep point.
func (c Config) simOpts(delta float64, numColors int) stepsim.Options {
	return stepsim.Options{
		Delta:       delta,
		NumColors:   numColors,
		MaxAttempts: 6,
		Workers:     c.Workers,
	}
}

func (c Config) trials() int {
	if c.Trials <= 0 {
		return 3
	}
	return c.Trials
}

func (c Config) scale(n int) int {
	if c.Scale <= 0 {
		return n
	}
	s := int(float64(n) * c.Scale)
	if s < 64 {
		s = 64
	}
	return s
}

// cEff is the effective density constant used by the sweeps: the paper's
// analysis constant (86) forces p ≥ 1 at laptop n, so experiments use an
// empirically sufficient multiple of the threshold instead.
const cEff = 16.0

// maxSweepP caps sweep densities: near-clamped p means a near-complete
// graph, which measures nothing about the sparse regime and costs quadratic
// memory/time.
const maxSweepP = 0.7

func capP(p float64) float64 {
	if p > maxSweepP {
		return maxSweepP
	}
	return p
}

// E1 — Theorem 2: DRA closes within 7·n·ln n steps whp; measure
// steps/(n·ln n) and the success rate at p = c·ln n/n.
func E1(cfg Config) *Table {
	t := &Table{
		Name:      "E1",
		Caption:   "Theorem 2 - DRA step count vs the 7 n ln n budget at p = c ln(n)/n",
		ExtraCols: []string{"steps_over_nlogn", "success_rate"},
	}
	for _, n0 := range []int{256, 512, 1024, 2048, 4096, 8192} {
		n := cfg.scale(n0)
		p := graph.HCThresholdP(n, cEff, 1.0)
		var steps, rounds int64
		ok := 0
		for tr := 0; tr < cfg.trials(); tr++ {
			g := graph.GNP(n, p, rng.New(cfg.Seed+uint64(n*31+tr)))
			_, cost, err := stepsim.DRA(g, cfg.Seed+uint64(tr), 1)
			steps += cost.Steps
			rounds += cost.Rounds
			if err == nil {
				ok++
			}
		}
		tr := int64(cfg.trials())
		t.Append(Row{
			Label: "dra", N: n, P: p,
			Rounds: rounds / tr, Steps: steps / tr, OK: ok > 0,
			Extra: map[string]float64{
				"steps_over_nlogn": float64(steps/tr) / (float64(n) * math.Log(float64(n))),
				"success_rate":     float64(ok) / float64(cfg.trials()),
			},
		})
	}
	return t
}

// E2 — Theorem 1: DHC1 rounds scale as Õ(√n) at p = c·ln n/√n.
func E2(cfg Config) *Table {
	t := &Table{
		Name:      "E2",
		Caption:   "Theorem 1 - DHC1 rounds at p = c ln(n)/sqrt(n); expect exponent ~0.5 (x polylog)",
		ExtraCols: []string{"rounds_over_sqrtn", "phase1", "phase2"},
	}
	for _, n0 := range []int{512, 1024, 2048, 4096, 8192, 16384} {
		n := cfg.scale(n0)
		p := capP(graph.HCThresholdP(n, 8, 0.5))
		var rounds, steps, p1, p2 int64
		ok := 0
		for tr := 0; tr < cfg.trials(); tr++ {
			g := graph.GNP(n, p, rng.New(cfg.Seed+uint64(n*37+tr)))
			_, cost, err := stepsim.DHC1(g, cfg.Seed+uint64(tr), cfg.simOpts(0, 0))
			rounds += cost.Rounds
			steps += cost.Steps
			p1 += cost.Phase1Rounds
			p2 += cost.Phase2Rounds
			if err == nil {
				ok++
			}
		}
		tr := int64(cfg.trials())
		t.Append(Row{
			Label: "dhc1", N: n, P: p,
			Rounds: rounds / tr, Steps: steps / tr, OK: ok == cfg.trials(),
			Extra: map[string]float64{
				"rounds_over_sqrtn": float64(rounds/tr) / math.Sqrt(float64(n)),
				"phase1":            float64(p1 / tr),
				"phase2":            float64(p2 / tr),
			},
		})
	}
	return t
}

// E3 — Lemma 4/7: partition sizes concentrate within [1/2, 3/2] of n/K.
func E3(cfg Config) *Table {
	t := &Table{
		Name:      "E3",
		Caption:   "Lemma 4/7 - color-class size concentration around n/K",
		ExtraCols: []string{"k", "min_ratio", "max_ratio"},
	}
	for _, tc := range []struct {
		n     int
		delta float64
	}{
		{1024, 0.5}, {4096, 0.5}, {16384, 0.5}, {16384, 0.3}, {16384, 0.7},
	} {
		n := cfg.scale(tc.n)
		k := int(math.Round(math.Pow(float64(n), 1-tc.delta)))
		src := rng.New(cfg.Seed + uint64(n) + uint64(tc.delta*100))
		counts := make([]int, k)
		for v := 0; v < n; v++ {
			counts[src.Intn(k)]++
		}
		minC, maxC := counts[0], counts[0]
		for _, c := range counts {
			if c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
		}
		mean := float64(n) / float64(k)
		t.Append(Row{
			Label: fmt.Sprintf("delta=%.1f", tc.delta), N: n, OK: true,
			Extra: map[string]float64{
				"k":         float64(k),
				"min_ratio": float64(minC) / mean,
				"max_ratio": float64(maxC) / mean,
			},
		})
	}
	return t
}

// E4 — Theorem 10: DHC2 rounds scale as Õ(n^δ); denser graphs are faster.
func E4(cfg Config) *Table {
	t := &Table{
		Name:      "E4",
		Caption:   "Theorem 10 - DHC2 rounds at p = c ln(n)/n^delta; expect exponent ~delta",
		ExtraCols: []string{"delta", "rounds_over_ndelta"},
	}
	for _, delta := range []float64{0.3, 0.5, 0.7} {
		for _, n0 := range []int{1024, 2048, 4096, 8192} {
			n := cfg.scale(n0)
			p := capP(graph.HCThresholdP(n, 8, delta))
			var rounds, steps int64
			ok := 0
			for tr := 0; tr < cfg.trials(); tr++ {
				g := graph.GNP(n, p, rng.New(cfg.Seed+uint64(n*41+tr)))
				_, cost, err := stepsim.DHC2(g, cfg.Seed+uint64(tr), cfg.simOpts(delta, 0))
				rounds += cost.Rounds
				steps += cost.Steps
				if err == nil {
					ok++
				}
			}
			tr := int64(cfg.trials())
			t.Append(Row{
				Label: fmt.Sprintf("delta=%.1f", delta), N: n, P: p,
				Rounds: rounds / tr, Steps: steps / tr, OK: ok == cfg.trials(),
				Extra: map[string]float64{
					"delta":              delta,
					"rounds_over_ndelta": float64(rounds/tr) / math.Pow(float64(n), delta),
				},
			})
		}
	}
	return t
}

// E6 — Theorems 17/19, Corollary 20: Upcast rounds ≈ O(log n/p).
func E6(cfg Config) *Table {
	t := &Table{
		Name:      "E6",
		Caption:   "Theorem 17/19 - Upcast rounds vs log(n)/p at delta in {1/2, 2/3}",
		ExtraCols: []string{"delta", "rounds_over_bound"},
	}
	for _, delta := range []float64{0.5, 2.0 / 3.0} {
		for _, n0 := range []int{1024, 4096, 16384} {
			n := cfg.scale(n0)
			p := graph.HCThresholdP(n, 3, delta)
			if p >= 1 {
				continue
			}
			var rounds int64
			ok := 0
			for tr := 0; tr < cfg.trials(); tr++ {
				g := graph.GNP(n, p, rng.New(cfg.Seed+uint64(n*43+tr)))
				_, cost, err := stepsim.Upcast(g, cfg.Seed+uint64(tr))
				rounds += cost.Rounds
				if err == nil {
					ok++
				}
			}
			tr := int64(cfg.trials())
			bound := math.Log(float64(n)) / p
			t.Append(Row{
				Label: fmt.Sprintf("delta=%.2f", delta), N: n, P: p,
				Rounds: rounds / tr, OK: ok == cfg.trials(),
				Extra: map[string]float64{
					"delta":             delta,
					"rounds_over_bound": float64(rounds/tr) / bound,
				},
			})
		}
	}
	return t
}

// E8 — baseline comparison: DHC2 vs DHC1 vs Upcast vs Levy-style vs the
// trivial O(m) bound, on identical graphs.
func E8(cfg Config) *Table {
	t := &Table{
		Name:      "E8",
		Caption:   "Baselines - rounds on identical G(n, c ln(n)/sqrt(n)) graphs",
		ExtraCols: nil,
	}
	for _, n0 := range []int{1024, 2048, 4096} {
		n := cfg.scale(n0)
		p := capP(graph.HCThresholdP(n, 8, 0.5))
		type algo struct {
			name string
			run  func(g *graph.Graph, seed uint64) (int64, error)
		}
		algos := []algo{
			{"dhc1", func(g *graph.Graph, s uint64) (int64, error) {
				_, c, err := stepsim.DHC1(g, s, cfg.simOpts(0, 0))
				return c.Rounds, err
			}},
			{"dhc2", func(g *graph.Graph, s uint64) (int64, error) {
				_, c, err := stepsim.DHC2(g, s, cfg.simOpts(0.5, 0))
				return c.Rounds, err
			}},
			{"upcast", func(g *graph.Graph, s uint64) (int64, error) {
				_, c, err := stepsim.Upcast(g, s)
				return c.Rounds, err
			}},
			{"levy", func(g *graph.Graph, s uint64) (int64, error) {
				_, c, err := stepsim.Levy(g, s)
				return c.Rounds, err
			}},
			{"trivial", func(g *graph.Graph, s uint64) (int64, error) {
				_, c, err := stepsim.Trivial(g, s)
				return c.Rounds, err
			}},
		}
		for _, a := range algos {
			var rounds int64
			ok := 0
			for tr := 0; tr < cfg.trials(); tr++ {
				g := graph.GNP(n, p, rng.New(cfg.Seed+uint64(n*47+tr)))
				r, err := a.run(g, cfg.Seed+uint64(tr))
				rounds += r
				if err == nil {
					ok++
				}
			}
			t.Append(Row{
				Label: a.name, N: n, P: p,
				Rounds: rounds / int64(cfg.trials()), OK: ok == cfg.trials(),
			})
		}
	}
	return t
}

// D1 — Chung–Lu: diameter of threshold random graphs is Θ(ln n/ln ln n).
func D1(cfg Config) *Table {
	t := &Table{
		Name:      "D1",
		Caption:   "Chung-Lu diameter fact - measured diameter vs ln(n)/lnln(n)",
		ExtraCols: []string{"diameter", "bound"},
	}
	for _, n0 := range []int{256, 1024, 4096, 16384} {
		n := cfg.scale(n0)
		p := graph.HCThresholdP(n, 4, 1.0)
		g := graph.GNP(n, p, rng.New(cfg.Seed+uint64(n)))
		d := g.DiameterSampled(4, rng.New(cfg.Seed+uint64(n)+1))
		bound := math.Log(float64(n)) / math.Log(math.Log(float64(n)))
		t.Append(Row{
			Label: "gnp", N: n, P: p, OK: d > 0,
			Extra: map[string]float64{"diameter": float64(d), "bound": bound},
		})
	}
	return t
}
