package dhc

// Scaling-PR regression tests: golden step-engine counters pinned across the
// streaming-construction and packed-state refactors, a bytes-per-vertex
// allocation budget for the step solver, and the DHC_BIG-gated large-scale
// demonstrations (streaming construction peak at 10^6, the ten-million-vertex
// step run).

import (
	"runtime"
	"testing"
	"time"

	"dhc/internal/peakmem"
)

// TestGoldenCountersDRA pins the DRA step engine byte-for-byte: these exact
// counters were recorded before the streaming CSR, packed path node, flat
// rotation-machine and splay-tree path refactors, so any RNG draw or
// rotation reordering shows up as a diff here, not as a silent distribution
// shift. The cycle's SHA-256 (golden_test.go's encoding) pins the output
// bytes as well.
func TestGoldenCountersDRA(t *testing.T) {
	skipIfShort(t)
	n := 4096
	g := NewGNP(n, ThresholdP(n, 4, 0.5), 0xA11CE)
	if got, want := g.M(), 4359671; got != want {
		t.Fatalf("generator drift: m=%d, want %d", got, want)
	}
	res, err := Solve(g, AlgorithmDRA, Options{Seed: 0xBEEF, Engine: EngineStep})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 275949 || res.Steps != 42932 {
		t.Fatalf("solver drift: rounds=%d steps=%d, want rounds=275949 steps=42932",
			res.Rounds, res.Steps)
	}
	const wantSHA = "1c48d1ea22ec2a8174ca924416a6879fe9f4166d6893dbc04d9e5165da2d577e"
	if got := cycleSHA256(res.Cycle); got != wantSHA {
		t.Fatalf("cycle drift: sha256 %s, want %s", got, wantSHA)
	}
}

// TestGoldenCountersDHC2 pins the sharded DHC2 step engine at n=10^5 with
// K=8 partitions and a 2-worker pool — the same configuration at every
// worker count by the determinism contract. Like the DRA test it also pins
// the cycle's SHA-256.
func TestGoldenCountersDHC2(t *testing.T) {
	skipIfShort(t)
	n := 100000
	g := NewGNP(n, ThresholdP(n, 32, 1.0), 0xA11CE)
	if got, want := int64(g.M()), int64(18425799); got != want {
		t.Fatalf("generator drift: m=%d, want %d", got, want)
	}
	res, err := Solve(g, AlgorithmDHC2, Options{
		Seed: 0xBEEF, Engine: EngineStep, NumColors: 8, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1346463 || res.Steps != 954948 ||
		res.Phase1Rounds != 1346379 || res.Phase2Rounds != 84 {
		t.Fatalf("solver drift: rounds=%d steps=%d p1=%d p2=%d, "+
			"want rounds=1346463 steps=954948 p1=1346379 p2=84",
			res.Rounds, res.Steps, res.Phase1Rounds, res.Phase2Rounds)
	}
	const wantSHA = "b017f638acaa93ef9ca214bf56aea6e94db28d78e053fd90c405f7f8d5a058e9"
	if got := cycleSHA256(res.Cycle); got != wantSHA {
		t.Fatalf("cycle drift: sha256 %s, want %s", got, wantSHA)
	}
}

// TestGoldenCountersDHC1 pins the step engine's DHC1 on the DRA pin's
// instance (the dense δ = 0.5 regime DHC1's hypernode phase needs): rounds,
// steps, the two phase charges and the cycle's SHA-256, so the splice that
// lifts the hypernode cycle onto the partition subcycles has an oracle
// outside the code that builds it.
func TestGoldenCountersDHC1(t *testing.T) {
	skipIfShort(t)
	n := 4096
	g := NewGNP(n, ThresholdP(n, 4, 0.5), 0xA11CE)
	if got, want := g.M(), 4359671; got != want {
		t.Fatalf("generator drift: m=%d, want %d", got, want)
	}
	res, err := Solve(g, AlgorithmDHC1, Options{Seed: 0xBEEF, Engine: EngineStep})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 6788 || res.Steps != 21298 ||
		res.Phase1Rounds != 3540 || res.Phase2Rounds != 3248 {
		t.Fatalf("solver drift: rounds=%d steps=%d p1=%d p2=%d, "+
			"want rounds=6788 steps=21298 p1=3540 p2=3248",
			res.Rounds, res.Steps, res.Phase1Rounds, res.Phase2Rounds)
	}
	const wantSHA = "ef93dcb565b7d1f89d13b22b0d72d350da3ccbca2b82ce9ce2ce5a4022321655"
	if got := cycleSHA256(res.Cycle); got != wantSHA {
		t.Fatalf("cycle drift: sha256 %s, want %s", got, wantSHA)
	}
}

// TestStepSolverBytesPerVertex is the packed-state allocation regression: a
// DHC2 step solve at n=10^5 must stay within an allocation budget per vertex
// (TotalAlloc delta, single-goroutine Workers=1 so the measurement is
// stable). The budget was set with ~1.5x headroom over the treap-path value
// (627 bytes/vertex); the 16-byte splay-tree path node brought it to 522,
// and building phase 1's subgraphs over the reused per-worker index table
// (no n-sized table per partition) to 489. Re-materializing an []Edge during construction or reverting a bitset to
// []bool blows through it.
func TestStepSolverBytesPerVertex(t *testing.T) {
	skipIfShort(t)
	n := 100000
	g := NewGNP(n, ThresholdP(n, 32, 1.0), 0xA11CE)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Solve(g, AlgorithmDHC2, Options{
		Seed: 0xBEEF, Engine: EngineStep, NumColors: 8, Workers: 1,
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycle == nil || res.Cycle.Len() != n {
		t.Fatal("missing Hamiltonian cycle")
	}
	perVertex := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("step solve allocated %.0f bytes/vertex", perVertex)
	const budget = 1000
	if perVertex > budget {
		t.Fatalf("step solve allocated %.0f bytes/vertex, budget %d", perVertex, budget)
	}
}

// TestStreamingConstructionPeak demonstrates the streaming-construction
// memory contract at n=10^6: the heap high-water during G(n,p) generation
// stays within 2x the finished CSR footprint (the chunked scatter's staging
// is capped at half the arena, so the design point is ~1.5x).
func TestStreamingConstructionPeak(t *testing.T) {
	requireBig(t)
	n := 1_000_000
	p := ThresholdP(n, 32, 1.0)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := int64(ms.HeapAlloc)
	s := peakmem.Start(time.Millisecond)
	g := NewGNP(n, p, 1)
	peak := s.Stop() - base
	graphBytes := g.MemBytes()
	ratio := float64(peak) / float64(graphBytes)
	t.Logf("construction peak %.1f MB over baseline, graph %.1f MB (%.2fx)",
		float64(peak)/(1<<20), float64(graphBytes)/(1<<20), ratio)
	if ratio > 2.0 {
		t.Fatalf("construction peak %.2fx of final CSR, want <= 2x", ratio)
	}
}

// TestDHC2TenMillionVertexStepEngine is the PR's headline run: a 10^7-vertex
// G(n,p) at c=9 (m ≈ 7.3·10^8; 2m stays under the int32 half-edge ceiling
// the CSR can address), solved by the sharded DHC2 step engine with K=2.
// K matters at this scale: each partition keeps only its within-class edges,
// so its effective density constant is c·ln(n)/(K·ln(n/K)) — about 4.7 here,
// matching the proven 10^6 c=32/K=8 configuration, whereas K=8 would leave
// the partitions below the threshold the phase-1 DRA needs (c=12/K=8 fails
// with "partition exhausted attempts", and the ceiling caps c at 13).
func TestDHC2TenMillionVertexStepEngine(t *testing.T) {
	requireBig(t)
	n := 10_000_000
	p := ThresholdP(n, 9, 1.0)
	start := time.Now()
	g := NewGNP(n, p, 1)
	genTime := time.Since(start)
	t.Logf("generated G(n=%d, p=%.8f): m=%d (%.1f GB CSR) in %v",
		n, p, g.M(), float64(g.MemBytes())/(1<<30), genTime)

	start = time.Now()
	res, err := Solve(g, AlgorithmDHC2, Options{
		Seed:      2,
		Engine:    EngineStep,
		NumColors: 2,
		Workers:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	solveTime := time.Since(start)
	if err := Verify(g, res.Cycle); err != nil {
		t.Fatal(err)
	}
	if res.Cycle.Len() != n {
		t.Fatalf("cycle length %d, want %d", res.Cycle.Len(), n)
	}
	t.Logf("DHC2 step engine (K=2, workers=2): rounds=%d steps=%d phase1=%d phase2=%d in %v",
		res.Rounds, res.Steps, res.Phase1Rounds, res.Phase2Rounds, solveTime)
}
