package dist

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"dhc/internal/congest"
	"dhc/internal/dra"
	"dhc/internal/graph"
	"dhc/internal/rng"
	"dhc/internal/wire"
)

// runDRA drives one DRA trial through the cluster, exactly as the solver
// does: the session binds the programs, the cluster executes them.
func runDRA(ctx context.Context, cl *Cluster, n int) error {
	g := graph.GNP(n, 0.5, rng.New(7))
	_, err := dra.NewSession(dra.NodeOptions{}).Run(ctx, cl, g, 1, congest.Options{BandwidthBits: 64})
	return err
}

// TestCrashFaultClassified kills one worker mid-run and requires a classified
// ErrShardDown within the step deadline — never a hang, never a nil error.
func TestCrashFaultClassified(t *testing.T) {
	t.Run(TransportUnix, func(t *testing.T) {
		cl, err := NewCluster(Options{
			Shards:      3,
			Transport:   TransportUnix,
			StepTimeout: 20 * time.Second,
			Fault:       &FaultPlan{Shard: 1, Round: 2, Mode: "crash"},
		})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		err = runDRA(context.Background(), cl, 24)
		if !errors.Is(err, ErrShardDown) {
			t.Fatalf("crashed shard returned %v, want ErrShardDown", err)
		}
		if elapsed := time.Since(start); elapsed > 30*time.Second {
			t.Fatalf("classification took %v", elapsed)
		}
	})
}

// TestHangFaultClassified stalls one worker instead of killing it: the step
// timeout must convert the silence into ErrShardDown instead of waiting
// forever on the round barrier.
func TestHangFaultClassified(t *testing.T) {
	cl, err := NewCluster(Options{
		Shards:      3,
		StepTimeout: 2 * time.Second,
		Fault:       &FaultPlan{Shard: 2, Round: 1, Mode: "hang"},
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = runDRA(context.Background(), cl, 24)
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("hung shard returned %v, want ErrShardDown", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("classification took %v, want ~the 2s step timeout", elapsed)
	}
}

// TestCancelBeatsHungShard cancels the run's context while a worker hangs
// with a long step timeout still pending: the watchdog must surface the
// context's verdict ("run canceled"), not the transport's.
func TestCancelBeatsHungShard(t *testing.T) {
	cl, err := NewCluster(Options{
		Shards:      2,
		StepTimeout: 60 * time.Second,
		Fault:       &FaultPlan{Shard: 0, Round: 1, Mode: "hang"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	start := time.Now()
	err = runDRA(ctx, cl, 24)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled run returned %v, want DeadlineExceeded in the chain", err)
	}
	if !strings.Contains(err.Error(), "run canceled") {
		t.Fatalf("canceled run rendered %q", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("cancellation took %v, want ~the 1s context deadline", elapsed)
	}
}

// TestFaultsLeakNoGoroutines runs a crash fault and a hang fault back to
// back and requires the goroutine count to return to its baseline: with a
// per-link I/O goroutine in the coordinator, a leaked ioLoop (or a worker
// stuck on an unreleased hang) would show up here even when the runs
// themselves classify correctly.
func TestFaultsLeakNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, fault := range []*FaultPlan{
		{Shard: 1, Round: 2, Mode: "crash"},
		{Shard: 0, Round: 1, Mode: "hang"},
	} {
		cl, err := NewCluster(Options{Shards: 3, StepTimeout: 2 * time.Second, Fault: fault})
		if err != nil {
			t.Fatal(err)
		}
		if err := runDRA(context.Background(), cl, 24); !errors.Is(err, ErrShardDown) {
			t.Fatalf("fault %+v returned %v, want ErrShardDown", fault, err)
		}
	}
	waitGoroutines(t, baseline)
}

// waitGoroutines fails the test unless the goroutine count falls back to
// baseline within five seconds.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive after the runs, baseline %d", n, baseline)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// badSendNode ticks every round and halts in round 6; the node with bad set
// makes one invalid send in round 3, on an out-of-range port when byPort and
// otherwise to the non-neighbor id to.
type badSendNode struct {
	bad    bool
	byPort bool
	to     graph.NodeID
}

func (b *badSendNode) Init(ctx *congest.Context) { ctx.WakeAt(ctx.Round() + 1) }

func (b *badSendNode) Round(ctx *congest.Context, inbox []congest.Envelope) {
	ctx.WakeAt(ctx.Round() + 1)
	if b.bad && ctx.Round() == 3 {
		m := wire.Msg(wire.KindToken, 1)
		if b.byPort {
			ctx.SendPorts([]int32{int32(ctx.Degree())}, -1, m)
		} else {
			ctx.Send(b.to, m)
		}
	}
	if ctx.Round() >= 6 {
		ctx.Halt()
	}
}

// TestDistNotNeighborCrossesTheWire: a send to a non-neighbor inside a shard
// worker — by bad port or by non-adjacent id — must reach the caller of a
// real 2-shard unix cluster as ErrNotNeighbor carrying the in-process
// engine's message text, within the step timeout and without leaking
// goroutines.
func TestDistNotNeighborCrossesTheWire(t *testing.T) {
	const stepTimeout = 10 * time.Second
	g := graph.Path(8) // shards [0,4) and [4,8); node 6 is adjacent to 5 and 7 only
	for _, byPort := range []bool{true, false} {
		name := "bad-id"
		if byPort {
			name = "bad-port"
		}
		t.Run(name, func(t *testing.T) {
			programs := func() []congest.Node {
				nodes := make([]congest.Node, g.N())
				for v := range nodes {
					nodes[v] = &badSendNode{bad: v == 6, byPort: byPort, to: 1}
				}
				return nodes
			}
			net, err := congest.NewNetwork(g, programs(), congest.Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, inErr := net.Run(1)
			if !errors.Is(inErr, congest.ErrNotNeighbor) {
				t.Fatalf("in-process run returned %v, want ErrNotNeighbor", inErr)
			}

			baseline := runtime.NumGoroutine()
			cl, err := NewCluster(Options{Shards: 2, StepTimeout: stepTimeout})
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.Reset(g, programs(), congest.Options{}); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			_, distErr := cl.RunContext(context.Background(), 1)
			if elapsed := time.Since(start); elapsed > stepTimeout {
				t.Fatalf("error took %v, longer than the %v step timeout", elapsed, stepTimeout)
			}
			if !errors.Is(distErr, congest.ErrNotNeighbor) {
				t.Fatalf("cluster run returned %v, want ErrNotNeighbor", distErr)
			}
			if !strings.Contains(distErr.Error(), inErr.Error()) {
				t.Fatalf("cluster error %q lost the in-process text %q", distErr, inErr)
			}
			waitGoroutines(t, baseline)
		})
	}
}

// TestProcBadBinary exercises the spawn-failure path of the process
// transport: a missing hcshard binary must fail the run cleanly.
func TestProcBadBinary(t *testing.T) {
	cl, err := NewCluster(Options{
		Shards:      2,
		Transport:   TransportProc,
		ShardBinary: "/nonexistent/hcshard-missing",
		StepTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := runDRA(context.Background(), cl, 24); err == nil || !strings.Contains(err.Error(), "start") {
		t.Fatalf("missing binary returned %v", err)
	}
}

// TestClusterOptionValidation pins the constructor's input checking.
func TestClusterOptionValidation(t *testing.T) {
	if _, err := NewCluster(Options{Shards: 0}); err == nil {
		t.Fatal("shard count 0 accepted")
	}
	for _, transport := range []string{"carrier-pigeon", "tcp"} {
		_, err := NewCluster(Options{Shards: 2, Transport: transport})
		if err == nil || !strings.Contains(err.Error(), "(valid: unix, proc)") {
			t.Fatalf("unknown transport %q: err = %v, want a rejection listing unix, proc", transport, err)
		}
	}
	if _, err := NewCluster(Options{Shards: 2, StepTimeout: -time.Second}); err == nil {
		t.Fatal("negative timeout accepted")
	}
	cl, err := NewCluster(Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cl.opts.Transport != TransportUnix || cl.opts.StepTimeout != defaultStepTimeout {
		t.Fatalf("defaults not applied: %+v", cl.opts)
	}
}

// TestClusterResetRefusals pins the configurations Reset refuses before any
// worker starts: a FaultHook (the in-process chaos hook cannot cross shard
// boundaries, and running without it would silently drop the faults), the
// dense sweep (the in-process oracle schedule, which a proc worker's config
// frame does not carry), a program count that does not match the vertex count, and a
// program that cannot be rebuilt in a worker process under TransportProc.
// Each refusal is a dist error naming its cause.
func TestClusterResetRefusals(t *testing.T) {
	g := graph.GNP(8, 0.5, rng.New(1))
	portable, err := BuildPrograms(congest.ProgramSpec{Algo: "dra", B: 4}, 0, g.N())
	if err != nil {
		t.Fatal(err)
	}
	plain := make([]congest.Node, g.N())
	for v := range plain {
		plain[v] = &badSendNode{}
	}
	hook := func(round int64, from, to graph.NodeID, m wire.Message) (wire.Message, bool) { return m, true }
	for _, tc := range []struct {
		name      string
		transport string
		nodes     []congest.Node
		opts      congest.Options
		want      string
	}{
		{"fault-hook", TransportUnix, portable, congest.Options{FaultHook: hook}, "FaultHook"},
		{"dense-sweep", TransportUnix, portable, congest.Options{DenseSweep: true}, "DenseSweep"},
		{"program-count", TransportUnix, portable[:g.N()-1], congest.Options{}, "7 node programs for 8 vertices"},
		{"not-portable", TransportProc, plain, congest.Options{}, "is not portable"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := NewCluster(Options{Shards: 2, Transport: tc.transport})
			if err != nil {
				t.Fatal(err)
			}
			err = cl.Reset(g, tc.nodes, tc.opts)
			if err == nil || !strings.HasPrefix(err.Error(), "dist: ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Reset returned %v, want a dist: error containing %q", err, tc.want)
			}
		})
	}
}
