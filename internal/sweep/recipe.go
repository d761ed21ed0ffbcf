package sweep

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"

	"dhc"
	"dhc/internal/graph"
	"dhc/internal/rng"
)

// Recipe names one generated graph: family, size, density parameter,
// threshold exponent δ of p = c·ln n / n^δ (also DHC2's partition exponent)
// and graph seed. hcrun -graph, hcgen -graph, POST /solve and sweep cells
// all build through it, so one recipe is one graph everywhere. Its text form
// is
//
//	gnp/n=1024/param=8/delta=1/gs=0
//
// which String prints and ParseRecipe reads back.
type Recipe struct {
	Family    Family
	N         int
	Param     float64
	Delta     float64
	GraphSeed uint64
}

// String prints the canonical text form.
func (r Recipe) String() string {
	return fmt.Sprintf("%s/n=%d/param=%g/delta=%g/gs=%d", r.Family, r.N, r.Param, r.Delta, r.GraphSeed)
}

// WithDefaults fills the zero fields with the bare recipe's values: the
// threshold graph gnp/n=1024/param=8/delta=1/gs=0.
func (r Recipe) WithDefaults() Recipe {
	if r.Family == 0 {
		r.Family = FamilyGNP
	}
	if r.N == 0 {
		r.N = 1024
	}
	if r.Param == 0 {
		r.Param = 8
	}
	if r.Delta == 0 {
		r.Delta = 1
	}
	return r
}

// Validate rejects recipes no generator or solver accepts: an unknown
// family, n below the minimum cycle length, δ outside (0, 1], a negative or
// non-finite param, and sizes or params the family's shape forbids.
func (r Recipe) Validate() error {
	switch _, known := familyNames[r.Family]; {
	case !known:
		return fmt.Errorf("recipe: unknown family %d", int(r.Family))
	case r.N < 3:
		return fmt.Errorf("recipe: n = %d below the minimum cycle length 3", r.N)
	case !(r.Delta > 0 && r.Delta <= 1):
		return fmt.Errorf("recipe: delta %v outside (0, 1]", r.Delta)
	case !(r.Param >= 0 && r.Param <= math.MaxFloat64):
		return fmt.Errorf("recipe: param %v is not a finite non-negative number", r.Param)
	case r.Family == FamilyRegular && (r.Param != math.Trunc(r.Param) || r.Param < 1):
		return fmt.Errorf("recipe: regular family needs an integer degree param >= 1, got %v", r.Param)
	case r.Family == FamilyHypercube && (r.N < 8 || r.N > 1<<30 || !isPow2(r.N) && !isPow2(r.N+1)):
		// A size is either the full cube 2^d (Hamiltonian) or the
		// vertex-deleted cube 2^d - 1 (the family's negative control:
		// bipartite with unequal sides, hence no Hamiltonian cycle).
		return fmt.Errorf("recipe: hypercube sizes must be 2^d or 2^d-1 with 3 <= d <= 30, got %d", r.N)
	case r.Family == FamilyTorus:
		if side := intSqrt(r.N); side < 3 || side*side != r.N {
			return fmt.Errorf("recipe: torus sizes must be perfect squares >= 9, got %d", r.N)
		}
	}
	return nil
}

// isPow2 reports whether n is a positive power of two.
func isPow2(n int) bool { return n > 0 && bits.OnesCount(uint(n)) == 1 }

// intSqrt returns the floor of √n for n >= 0. Its corrections compare by
// division, so squares near MaxInt cannot overflow.
func intSqrt(n int) int {
	r := int(math.Sqrt(float64(n)))
	for r > 0 && r > n/r {
		r--
	}
	for r+1 <= n/(r+1) {
		r++
	}
	return r
}

// ParseRecipe reads a recipe's text form: the family, then any of the keys
// n, param, delta and gs, each at most once. Omitted keys take
// WithDefaults' values, so "torus/n=64" names the 8×8 torus.
func ParseRecipe(s string) (Recipe, error) {
	name, rest, hasKeys := strings.Cut(s, "/")
	fam, err := ParseFamily(name)
	if err != nil {
		return Recipe{}, err
	}
	r := Recipe{Family: fam}.WithDefaults()
	if !hasKeys {
		return r, nil
	}
	seen := map[string]bool{}
	for _, kv := range strings.Split(rest, "/") {
		key, val, _ := strings.Cut(kv, "=")
		if seen[key] {
			return Recipe{}, fmt.Errorf("recipe %q: duplicate key %q", s, key)
		}
		seen[key] = true
		switch key {
		case "n":
			r.N, err = strconv.Atoi(val)
		case "param":
			r.Param, err = strconv.ParseFloat(val, 64)
		case "delta":
			r.Delta, err = strconv.ParseFloat(val, 64)
		case "gs":
			r.GraphSeed, err = strconv.ParseUint(val, 10, 64)
		default:
			return Recipe{}, fmt.Errorf("recipe %q: unknown key %q (valid: n, param, delta, gs)", s, key)
		}
		if err != nil {
			return Recipe{}, fmt.Errorf("recipe %q: %w", s, err)
		}
	}
	return r, r.Validate()
}

// reportDelta is the δ that cell keys and reports record: the recipe's where
// it sets the density p = c·ln n / n^δ, else 0 (regular's degree,
// geometric's radius and the lattices scale without it).
func (r Recipe) reportDelta() float64 {
	switch r.Family {
	case FamilyGNP, FamilyGNM, FamilyPowerlaw, FamilySBM:
		return r.Delta
	}
	return 0
}

// Build validates the recipe and samples its graph. Families read only the
// fields their generator takes: δ only where p = c·ln n / n^δ sets the
// density, and the deterministic lattices neither param nor seed.
func (r Recipe) Build() (*dhc.Graph, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	src := rng.New(r.GraphSeed)
	switch r.Family {
	case FamilyGNP:
		return graph.GNP(r.N, graph.HCThresholdP(r.N, r.Param, r.Delta), src), nil
	case FamilyGNM:
		p := graph.HCThresholdP(r.N, r.Param, r.Delta)
		// Pair counts in int64: at n >= 10^7, n(n-1)/2 wraps 32-bit arithmetic
		// and would silently shrink the requested density.
		maxM := graph.MaxEdges(r.N)
		m := int64(math.Round(p * float64(maxM)))
		if m > maxM {
			m = maxM
		}
		if err := graph.ValidateEdgeCount(r.N, m); err != nil {
			return nil, fmt.Errorf("sweep: gnm cell n=%d param=%v: %w", r.N, r.Param, err)
		}
		return graph.GNM(r.N, int(m), src), nil
	case FamilyRegular:
		return graph.RandomRegular(r.N, int(r.Param), src)
	case FamilyPowerlaw:
		avg := float64(r.N) * graph.HCThresholdP(r.N, r.Param, r.Delta)
		return graph.ChungLu(r.N, avg, PowerlawExponent, src), nil
	case FamilyGeometric:
		return graph.Geometric(r.N, graph.GeometricThresholdR(r.N, r.Param), src), nil
	case FamilySBM:
		// The param scales the mean pair probability p̄ = c·ln n / n^δ; the
		// fixed in/out ratio R and block count k then pin
		// pOut = k·p̄/(R+k-1), pIn = R·pOut (equal-block mixture mean p̄).
		pbar := graph.HCThresholdP(r.N, r.Param, r.Delta)
		pOut := float64(SBMBlocks) * pbar / (SBMRatio + float64(SBMBlocks) - 1)
		return graph.SBM(r.N, SBMBlocks, SBMRatio*pOut, pOut, src), nil
	case FamilyHypercube:
		if isPow2(r.N) {
			return graph.Hypercube(bits.Len(uint(r.N)) - 1), nil
		}
		// The vertex-deleted cube: Q_d minus its all-ones corner, bipartite
		// with unequal sides — the family's negative control.
		keep := make([]graph.NodeID, r.N)
		for i := range keep {
			keep[i] = graph.NodeID(i)
		}
		g, _ := graph.Hypercube(bits.Len(uint(r.N))).InducedSubgraph(keep)
		return g, nil
	default: // FamilyTorus, the one family left after Validate
		side := intSqrt(r.N)
		return graph.Torus(side, side), nil
	}
}

// Record is the one result record of a solve: hcrun -json prints it and
// POST /solve answers with it. Beside the outcome (Status is the dhc
// failure-class name) it carries every input that shapes the outcome — the
// canonical recipe (absent for an explicit edge list), algorithm, engine,
// solver seed and any non-zero budget — so
//
//	hcrun -graph RECIPE -algo ALGO -engine ENGINE -seed SEED
//
// reproduces every number in it. Only a sharded hcrun run's Shards hold
// wall-clock time; POST /solve never shards, so its records are a pure
// function of the request, which its replay cache relies on.
type Record struct {
	Status    string `json:"status"`
	Recipe    string `json:"recipe,omitempty"`
	Algo      string `json:"algo,omitempty"`
	Engine    string `json:"engine,omitempty"`
	Seed      uint64 `json:"seed"`
	NumColors int    `json:"num_colors,omitempty"`
	MaxRounds int64  `json:"max_rounds,omitempty"`
	N         int    `json:"n,omitempty"`
	M         int64  `json:"m,omitempty"`
	Rounds    int64  `json:"rounds,omitempty"`
	Steps     int64  `json:"steps,omitempty"`
	Phase1    int64  `json:"phase1,omitempty"`
	Phase2    int64  `json:"phase2,omitempty"`
	// Messages, Bits and MaxMemWords are the exact engine's counters.
	Messages    int64           `json:"messages,omitempty"`
	Bits        int64           `json:"bits,omitempty"`
	MaxMemWords int64           `json:"max_mem_words,omitempty"`
	Shards      []dhc.ShardStat `json:"shards,omitempty"`
	Cycle       []graph.NodeID  `json:"cycle,omitempty"`
	Error       string          `json:"error,omitempty"`
}

// NewRecord records one solve of g under opts: the outcome when err is nil,
// else its failure class and message. The cycle is left to the caller.
func NewRecord(recipe string, algo dhc.Algorithm, opts dhc.Options, g *dhc.Graph, res *dhc.Result, err error) Record {
	rec := Record{
		Status: dhc.Classify(err).String(), Recipe: recipe,
		Algo: algo.String(), Engine: opts.Engine.String(), Seed: opts.Seed,
		NumColors: opts.NumColors, MaxRounds: opts.MaxRounds,
		N: g.N(), M: int64(g.M()),
	}
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	rec.Rounds, rec.Steps = res.Rounds, res.Steps
	rec.Phase1, rec.Phase2 = res.Phase1Rounds, res.Phase2Rounds
	if res.Counters != nil {
		rec.Messages, rec.Bits = res.Counters.Messages, res.Counters.Bits
		rec.MaxMemWords = res.Counters.MemoryDistribution().Max
	}
	rec.Shards = res.ShardStats
	return rec
}
