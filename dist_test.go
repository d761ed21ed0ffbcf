package dhc

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// checkDistIdentity solves g both ways and requires byte-identical results:
// the distributed engine's whole contract is that sharding is invisible in
// every measured quantity, so any drift — rounds, skipped rounds, messages,
// bits, per-node distributions, or the cycle itself — is a bug.
func checkDistIdentity(t *testing.T, g *Graph, algo Algorithm, base Options, dist Options) {
	t.Helper()
	want, err := Solve(g, algo, base)
	if err != nil {
		t.Fatalf("in-process solve: %v", err)
	}
	got, err := Solve(g, algo, dist)
	if err != nil {
		t.Fatalf("distributed solve: %v", err)
	}
	if got.Rounds != want.Rounds || got.Steps != want.Steps ||
		got.Phase1Rounds != want.Phase1Rounds || got.Phase2Rounds != want.Phase2Rounds {
		t.Fatalf("result drift: dist (rounds=%d steps=%d p1=%d p2=%d) vs oracle (rounds=%d steps=%d p1=%d p2=%d)",
			got.Rounds, got.Steps, got.Phase1Rounds, got.Phase2Rounds,
			want.Rounds, want.Steps, want.Phase1Rounds, want.Phase2Rounds)
	}
	if !reflect.DeepEqual(got.Cycle.Order(), want.Cycle.Order()) {
		t.Fatal("distributed run found a different cycle")
	}
	if !reflect.DeepEqual(got.Counters, want.Counters) {
		t.Fatalf("counter drift:\ndist:   %+v\noracle: %+v", got.Counters, want.Counters)
	}
	if want.ShardStats != nil {
		t.Fatal("in-process run carries shard stats")
	}
	shards := dist.Shards
	if shards > g.N() {
		shards = g.N()
	}
	if len(got.ShardStats) != shards {
		t.Fatalf("%d shard stats for %d shards", len(got.ShardStats), shards)
	}
	// The fused protocol's RTT budget is exact: one init exchange, one fused
	// exchange per executed (non-skipped) round, one FINISH/FINAL collection
	// — on every link, because exchanges fan out to all shards.
	wantRTTs := want.Counters.Rounds - want.Counters.RoundsSkipped + 2
	var routed int64
	for _, st := range got.ShardStats {
		if st.BytesSent <= 0 || st.BytesRecv <= 0 || st.NodeN <= 0 {
			t.Fatalf("shard %d stats not metered: %+v", st.Shard, st)
		}
		if st.RTTs != wantRTTs {
			t.Fatalf("shard %d: %d RTTs for %d executed rounds, want %d",
				st.Shard, st.RTTs, want.Counters.Rounds-want.Counters.RoundsSkipped, wantRTTs)
		}
		if st.BatchBytesFixed <= 0 {
			t.Fatalf("shard %d: fixed-width batch byte accounting missing: %+v", st.Shard, st)
		}
		if st.BatchBytesDelta >= st.BatchBytesFixed {
			t.Fatalf("shard %d: delta encoding (%d bytes) did not beat fixed-width (%d bytes)",
				st.Shard, st.BatchBytesDelta, st.BatchBytesFixed)
		}
		routed += st.LocalMsgs + st.CrossMsgs
	}
	// Local and cross routing are two halves of the same metered stream:
	// together they must account for every counted message.
	if routed != want.Counters.Messages {
		t.Fatalf("local+cross routed messages %d != counted messages %d", routed, want.Counters.Messages)
	}
}

// TestDistMatchesInProcessOracle is the differential harness of the
// distributed engine: n in {64, 256} x {dra, dhc2}, each across two shard
// counts, goroutine workers behind real unix sockets. Run under -race
// this also proves the coordinator/worker handoff is properly synchronized.
func TestDistMatchesInProcessOracle(t *testing.T) {
	skipIfShort(t)
	cases := []struct {
		algo      Algorithm
		n         int
		p         float64
		graphSeed uint64
		shards    []int
	}{
		{AlgorithmDRA, 64, 0.5, 11, []int{2, 5}},
		{AlgorithmDRA, 256, 0.15, 11, []int{3, 4}},
		{AlgorithmDHC2, 64, 0.8, 4, []int{2, 5}},
		{AlgorithmDHC2, 256, 0.7, 4, []int{3, 4}},
	}
	for _, tc := range cases {
		for _, k := range tc.shards {
			t.Run(fmt.Sprintf("%s/n%d/k%d", tc.algo, tc.n, k), func(t *testing.T) {
				g := NewGNP(tc.n, tc.p, tc.graphSeed)
				base := Options{Seed: 3, Delta: 0.5}
				dist := base
				dist.Shards = k
				checkDistIdentity(t, g, tc.algo, base, dist)
			})
		}
	}
}

// TestDistUpcastWireDeterministic: a sharded run is deterministic on the
// wire, not only in its counters. Upcast's root queues one downcast message
// per vertex, so the order it queues them in decides every later frame; two
// 4-shard unix runs must report identical ShardStats, frame and section
// bytes included (BusySeconds, a wall-clock reading, aside).
func TestDistUpcastWireDeterministic(t *testing.T) {
	skipIfShort(t)
	g := NewGNP(256, 0.5, 3)
	var stats [2][]ShardStat
	for i := range stats {
		res, err := Solve(g, AlgorithmUpcast, Options{Seed: 2, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		for j := range res.ShardStats {
			res.ShardStats[j].BusySeconds = 0
		}
		stats[i] = res.ShardStats
	}
	if !reflect.DeepEqual(stats[0], stats[1]) {
		t.Fatalf("shard stats differ between identical runs:\n%+v\n%+v", stats[0], stats[1])
	}
}

// hcshardBinary builds cmd/hcshard once per test process for the proc
// transport legs.
var hcshardBinary = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "hcshard-test-")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "hcshard")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hcshard")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build hcshard: %v\n%s", err, out)
	}
	return bin, nil
})

// TestDistProcMatchesInProcessOracle runs the differential harness against
// real hcshard OS processes: the graph ships over the socket, the programs
// are rebuilt from their portable specs, and the final states are restored
// into the parent — and the results must still be byte-identical.
func TestDistProcMatchesInProcessOracle(t *testing.T) {
	skipIfShort(t)
	bin, err := hcshardBinary()
	if err != nil {
		t.Skipf("cannot build hcshard: %v", err)
	}
	for _, tc := range []struct {
		algo      Algorithm
		n         int
		p         float64
		graphSeed uint64
	}{
		{AlgorithmDRA, 64, 0.5, 11},
		{AlgorithmDHC2, 96, 0.8, 4},
	} {
		t.Run(fmt.Sprintf("%s/n%d", tc.algo, tc.n), func(t *testing.T) {
			g := NewGNP(tc.n, tc.p, tc.graphSeed)
			base := Options{Seed: 3, Delta: 0.5}
			dist := base
			dist.Shards = 3
			dist.Transport = "proc"
			dist.ShardBinary = bin
			checkDistIdentity(t, g, tc.algo, base, dist)
		})
	}
}

// TestDistProcShardDeath kills every worker process mid-run via the fault
// environment (the same knob the CI chaos leg uses) and requires a classified
// error — FailureError, within the deadline, never a hang.
func TestDistProcShardDeath(t *testing.T) {
	skipIfShort(t)
	bin, err := hcshardBinary()
	if err != nil {
		t.Skipf("cannot build hcshard: %v", err)
	}
	t.Setenv("HCSHARD_FAULT_MODE", "crash")
	t.Setenv("HCSHARD_FAULT_ROUND", "2")
	g := NewGNP(64, 0.5, 11)
	_, err = Solve(g, AlgorithmDRA, Options{
		Seed: 3, NumColors: 8, Shards: 3, Transport: "proc", ShardBinary: bin,
	})
	if err == nil {
		t.Fatal("run with crashing shards succeeded")
	}
	if class := Classify(err); class != FailureError {
		t.Fatalf("shard death classified as %s (%v), want %s", class, err, FailureError)
	}
}

// TestDistProcHangTeardownBounded hangs every worker process at round 2 and
// cancels the run by deadline. The run must be classified canceled, and
// teardown must reap the hung processes within one shared grace period
// rather than one grace period per process.
func TestDistProcHangTeardownBounded(t *testing.T) {
	skipIfShort(t)
	bin, err := hcshardBinary()
	if err != nil {
		t.Skipf("cannot build hcshard: %v", err)
	}
	t.Setenv("HCSHARD_FAULT_MODE", "hang")
	t.Setenv("HCSHARD_FAULT_ROUND", "2")
	g := NewGNP(64, 0.5, 11)
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, err = SolveContext(ctx, g, AlgorithmDRA, Options{
		Seed: 3, NumColors: 8, Shards: 3, Transport: "proc", ShardBinary: bin,
	})
	if class := Classify(err); class != FailureCanceled {
		t.Fatalf("hung shards classified as %s (%v), want %s", class, err, FailureCanceled)
	}
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Fatalf("canceled run with 3 hung workers took %v to tear down", elapsed)
	}
}

// TestDistCancelClassified cancels a distributed run up front and requires
// the canceled classification, mirroring the in-process engine's contract.
func TestDistCancelClassified(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := NewGNP(64, 0.5, 11)
	_, err := SolveContext(ctx, g, AlgorithmDRA, Options{Seed: 3, NumColors: 8, Shards: 2})
	if err == nil {
		t.Fatal("pre-canceled run succeeded")
	}
	if class := Classify(err); class != FailureCanceled {
		t.Fatalf("canceled run classified as %s (%v)", class, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("context.Canceled lost from the chain: %v", err)
	}
}

// TestDistOptionValidation pins the solver-level shard option checking.
func TestDistOptionValidation(t *testing.T) {
	g := NewGNP(16, 0.5, 1)
	if _, err := Solve(g, AlgorithmDRA, Options{Shards: -1}); err == nil {
		t.Fatal("negative shard count accepted")
	}
	if _, err := Solve(g, AlgorithmDRA, Options{Shards: 2, Engine: EngineStep}); err == nil {
		t.Fatal("step engine with shards accepted")
	}
	if _, err := Solve(g, AlgorithmDRA, Options{Transport: "unix"}); err == nil {
		t.Fatal("transport without shards accepted")
	}
	if _, err := Solve(g, AlgorithmDHC1, Options{Shards: 2, Transport: "proc"}); err == nil {
		t.Fatal("proc transport with non-portable algorithm accepted")
	}
	for _, transport := range []string{"quantum", "tcp"} {
		_, err := Solve(g, AlgorithmDRA, Options{Shards: 2, Transport: transport})
		if err == nil || !strings.Contains(err.Error(), "(valid: unix, proc)") {
			t.Fatalf("unknown transport %q: err = %v, want a rejection listing unix, proc", transport, err)
		}
	}
}
