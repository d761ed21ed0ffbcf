package dhc

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden regenerates testdata/golden/exact.json from the current
// engines. Only an explicit `go test -run TestGoldenExact -update .` passes
// it; CI never does, so the committed file stays the oracle.
var updateGolden = flag.Bool("update", false, "regenerate testdata/golden fixtures")

const goldenExactPath = "testdata/golden/exact.json"

// goldenCell is one exact-engine instance of the golden matrix: algorithm,
// G(n, p) instance, run seed and solver options.
type goldenCell struct {
	Algo      string  `json:"algo"`
	N         int     `json:"n"`
	P         float64 `json:"p"`
	GraphSeed uint64  `json:"graph_seed"`
	Seed      uint64  `json:"seed"`
	NumColors int     `json:"colors,omitempty"`
	Delta     float64 `json:"delta,omitempty"`
}

// goldenMode holds the counters that differ between the event-driven
// schedule and the dense sweep by design.
type goldenMode struct {
	Invocations   int64 `json:"invocations"`
	RoundsSkipped int64 `json:"rounds_skipped"`
}

// goldenRecord is a cell's pinned outcome: everything a run measures that
// must not depend on Workers, DenseSweep or sharding, plus the per-mode
// scheduling counters.
type goldenRecord struct {
	goldenCell
	Rounds      int64                 `json:"rounds"`
	Steps       int64                 `json:"steps"`
	Phase1      int64                 `json:"phase1"`
	Phase2      int64                 `json:"phase2"`
	Messages    int64                 `json:"messages"`
	Bits        int64                 `json:"bits"`
	MaxMemWords int64                 `json:"max_mem_words"`
	CycleSHA256 string                `json:"cycle_sha256"`
	Modes       map[string]goldenMode `json:"modes"`
}

// goldenCells is the matrix: DRA at n in {64, 128} (DRA at n=256 costs
// seconds per exact solve), DHC1, DHC2 and Upcast at n in {64, 256}, two
// seeds each, all on G(n, p) with p < 1.
func goldenCells() []goldenCell {
	var cells []goldenCell
	for _, seed := range []uint64{1, 2} {
		for _, n := range []int{64, 128} {
			cells = append(cells, goldenCell{Algo: "dra", N: n, P: 0.5, GraphSeed: seed + 1, Seed: seed})
		}
		for _, algo := range []string{"dhc1", "dhc2"} {
			cells = append(cells,
				goldenCell{Algo: algo, N: 64, P: 0.8, GraphSeed: seed + 1, Seed: seed, NumColors: 4, Delta: 0.5},
				goldenCell{Algo: algo, N: 256, P: 0.7, GraphSeed: seed + 1, Seed: seed, NumColors: 16, Delta: 0.5})
		}
		for _, n := range []int{64, 256} {
			cells = append(cells, goldenCell{Algo: "upcast", N: n, P: 0.5, GraphSeed: seed + 1, Seed: seed})
		}
	}
	return cells
}

// goldenConfig is one engine configuration every cell must reproduce.
type goldenConfig struct {
	name string
	mode string // key into goldenRecord.Modes
	opts func(*Options)
}

var goldenConfigs = []goldenConfig{
	{"workers=1", "event", func(o *Options) { o.Workers = 1 }},
	{"workers=4", "event", func(o *Options) { o.Workers = 4 }},
	{"dense", "dense", func(o *Options) { o.DenseSweep = true }},
	{"shards=4", "event", func(o *Options) { o.Shards = 4 }},
}

// solveGolden runs one cell under one configuration and returns its record
// with only cfg's mode filled in.
func solveGolden(t *testing.T, c goldenCell, cfg goldenConfig) goldenRecord {
	t.Helper()
	algo, err := ParseAlgorithm(c.Algo)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: c.Seed, NumColors: c.NumColors, Delta: c.Delta}
	cfg.opts(&opts)
	res, err := Solve(NewGNP(c.N, c.P, c.GraphSeed), algo, opts)
	if err != nil {
		t.Fatalf("%s: %v", cfg.name, err)
	}
	var order []byte
	for _, v := range res.Cycle.Order() {
		order = binary.LittleEndian.AppendUint32(order, uint32(v))
	}
	sum := sha256.Sum256(order)
	return goldenRecord{
		goldenCell:  c,
		Rounds:      res.Rounds,
		Steps:       res.Steps,
		Phase1:      res.Phase1Rounds,
		Phase2:      res.Phase2Rounds,
		Messages:    res.Counters.Messages,
		Bits:        res.Counters.Bits,
		MaxMemWords: res.Counters.MemoryDistribution().Max,
		CycleSHA256: hex.EncodeToString(sum[:]),
		Modes: map[string]goldenMode{cfg.mode: {
			Invocations:   res.Counters.Invocations,
			RoundsSkipped: res.Counters.RoundsSkipped,
		}},
	}
}

// TestGoldenExact pins the exact engine's observable output. Every cell of
// the matrix must reproduce its committed record byte for byte under
// Workers 1, Workers 4, the dense sweep and 4 unix shards. The fixture was
// generated by the engines as they stood before the in-process and
// distributed round loops were merged, so it stays an oracle that does not
// depend on the code under test.
func TestGoldenExact(t *testing.T) {
	skipIfShort(t)
	var want []goldenRecord
	if !*updateGolden {
		raw, err := os.ReadFile(goldenExactPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	cells := goldenCells()
	if !*updateGolden && len(want) != len(cells) {
		t.Fatalf("%s holds %d cells, the matrix has %d", goldenExactPath, len(want), len(cells))
	}
	got := make([]goldenRecord, len(cells))
	for i, c := range cells {
		t.Run(fmt.Sprintf("%s/n=%d/seed=%d", c.Algo, c.N, c.Seed), func(t *testing.T) {
			var ref goldenRecord
			if !*updateGolden {
				ref = want[i]
			}
			for _, cfg := range goldenConfigs {
				r := solveGolden(t, c, cfg)
				if *updateGolden {
					// The first configuration of each mode defines the
					// record; the rest must agree with it.
					if ref.Modes == nil {
						ref, ref.Modes = r, map[string]goldenMode{}
					}
					if _, ok := ref.Modes[cfg.mode]; !ok {
						ref.Modes[cfg.mode] = r.Modes[cfg.mode]
					}
				}
				if a, b := goldenJSON(t, r), goldenJSON(t, ref.forMode(cfg.mode)); !bytes.Equal(a, b) {
					t.Fatalf("%s differs from %s:\n got %s\nwant %s", cfg.name, goldenExactPath, a, b)
				}
			}
			got[i] = ref
		})
	}
	if !*updateGolden || t.Failed() {
		return
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenExactPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenExactPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// forMode returns r with only mode's scheduling counters.
func (r goldenRecord) forMode(mode string) goldenRecord {
	r.Modes = map[string]goldenMode{mode: r.Modes[mode]}
	return r
}

func goldenJSON(t *testing.T, r goldenRecord) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
