package congest

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dhc/internal/graph"
	"dhc/internal/metrics"
	"dhc/internal/rng"
	"dhc/internal/wire"
)

// fanoutHalt is the round every fanoutNode halts in.
const fanoutHalt = 12

// fanoutNode gossips over random subsets of its incident edges: every fifth
// node seeds a message with a hop budget, and a node forwards the first
// message of each inbox that has hops left to a random half of its edges,
// skipping the edge it arrived on. byPort selects SendPort or Send for the
// same fan-out, so the two variants must produce the same execution; log
// records every delivery in inbox order.
type fanoutNode struct {
	byPort bool
	log    []delivery
}

type delivery struct {
	round int64
	env   Envelope
}

func (f *fanoutNode) Init(ctx *Context) {
	ctx.WakeAt(fanoutHalt)
	if ctx.ID()%5 == 0 {
		f.fanout(ctx, wire.Msg(wire.KindBroadcast, 4, int32(ctx.ID())), -1)
	}
}

func (f *fanoutNode) Round(ctx *Context, inbox []Envelope) {
	for _, env := range inbox {
		f.log = append(f.log, delivery{round: ctx.Round(), env: env})
	}
	ctx.ObserveMemory(int64(len(f.log)))
	if ctx.Round() >= fanoutHalt {
		ctx.Halt()
		return
	}
	for _, env := range inbox {
		if hops := env.Msg.Arg(0); hops > 0 {
			f.fanout(ctx, wire.Msg(wire.KindBroadcast, hops-1, env.Msg.Arg(1)), env.From)
			return
		}
	}
}

func (f *fanoutNode) fanout(ctx *Context, m wire.Message, except graph.NodeID) {
	for port, nb := range ctx.Neighbors() {
		if nb == except || ctx.Rand().Intn(2) == 0 {
			continue
		}
		ctx.AddWork(1)
		if f.byPort {
			ctx.SendPort(port, m)
		} else {
			ctx.Send(nb, m)
		}
	}
}

func newFanout(n int, byPort bool) ([]*fanoutNode, []Node) {
	progs := make([]*fanoutNode, n)
	nodes := make([]Node, n)
	for v := range progs {
		progs[v] = &fanoutNode{byPort: byPort}
		nodes[v] = progs[v]
	}
	return progs, nodes
}

// memShards is a test-side Fused executor over k in-memory Shards: the
// distributed coordinator without transports. Cross-shard outboxes are
// routed per destination in shard order, and a cross message activates the
// next round only if its target has not halted, judged against a global
// halted view folded from every step's newly-halted nodes.
type memShards struct {
	shards  []*Shard
	owner   []int // vertex -> shard
	inbound [][]Routed
	halted  []bool
}

func (m *memShards) deliver(round int64) error {
	for i, sh := range m.shards {
		if err := sh.Deliver(round, m.inbound[i]); err != nil {
			return err
		}
		m.inbound[i] = m.inbound[i][:0]
	}
	return nil
}

func (m *memShards) Fuse(deliverRound, stepRound int64, isInit bool) (Activity, error) {
	var act Activity
	if deliverRound >= 0 {
		if err := m.deliver(deliverRound); err != nil {
			return act, err
		}
	}
	for _, sh := range m.shards {
		out, rep, err := sh.Step(stepRound, isInit)
		if err != nil {
			return act, err
		}
		act.Live += rep.Live
		act.Messages = act.Messages || rep.LocalActive
		if rep.WakeOK && (!act.WakeOK || rep.EarliestWake < act.Wake) {
			act.Wake, act.WakeOK = rep.EarliestWake, true
		}
		for _, lv := range rep.NewlyHalted {
			m.halted[sh.Lo()+int(lv)] = true
		}
		for _, rm := range out {
			m.inbound[m.owner[rm.To]] = append(m.inbound[m.owner[rm.To]], rm)
		}
	}
	for _, in := range m.inbound {
		for _, rm := range in {
			act.Messages = act.Messages || !m.halted[rm.To]
		}
	}
	return act, nil
}

func (m *memShards) Finish(deliverRound int64) error { return m.deliver(deliverRound) }

// runShards executes nodes as k in-memory Shards driven by RunRounds, and
// returns the merged counters.
func runShards(g *graph.Graph, nodes []Node, opts Options, k int, seed uint64) (*metrics.Counters, error) {
	n := g.N()
	m := &memShards{owner: make([]int, n), inbound: make([][]Routed, k), halted: make([]bool, n)}
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		sh, err := NewShard(g, nodes[lo:hi], opts, lo, hi)
		if err != nil {
			return nil, err
		}
		sh.Begin(seed)
		m.shards = append(m.shards, sh)
		for v := lo; v < hi; v++ {
			m.owner[v] = i
		}
	}
	total := metrics.NewCounters(n)
	if err := RunRounds(context.Background(), m, NormalizeOptions(opts, n), total); err != nil {
		return nil, err
	}
	for _, sh := range m.shards {
		total.Merge(sh.Counters())
	}
	return total, nil
}

// TestSendPortMatchesSend: fanning out by port and by id must be the same
// execution on every engine configuration — identical counters and the
// identical per-node sequence of deliveries — and the sharded executions
// must meter exactly what the in-process engine meters.
func TestSendPortMatchesSend(t *testing.T) {
	g := graph.GNP(120, 0.3, rng.New(5))
	type config struct {
		name   string
		opts   Options
		shards int
	}
	configs := []config{
		{name: "workers=1", opts: Options{Workers: 1}},
		{name: "workers=4", opts: Options{Workers: 4}},
		{name: "workers=1/dense", opts: Options{Workers: 1, DenseSweep: true}},
		{name: "workers=4/dense", opts: Options{Workers: 4, DenseSweep: true}},
		{name: "shards=2", shards: 2},
		{name: "shards=3", shards: 3},
		{name: "shards=3/dense", opts: Options{DenseSweep: true}, shards: 3},
	}
	run := func(t *testing.T, c config, byPort bool) (*metrics.Counters, []*fanoutNode) {
		t.Helper()
		progs, nodes := newFanout(g.N(), byPort)
		var (
			counters *metrics.Counters
			err      error
		)
		if c.shards > 0 {
			counters, err = runShards(g, nodes, c.opts, c.shards, 9)
		} else {
			var net *Network
			if net, err = NewNetwork(g, nodes, c.opts); err == nil {
				counters, err = net.Run(9)
			}
		}
		if err != nil {
			t.Fatalf("byPort=%v: %v", byPort, err)
		}
		return counters, progs
	}
	ref, refProgs := run(t, configs[0], false)
	if ref.Messages == 0 {
		t.Fatal("fan-out sent no messages")
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			byID, idProgs := run(t, c, false)
			byPort, portProgs := run(t, c, true)
			if !reflect.DeepEqual(byID, byPort) {
				t.Fatalf("counters differ:\n  Send:     %v\n  SendPort: %v", byID, byPort)
			}
			for v := range idProgs {
				if !reflect.DeepEqual(idProgs[v].log, portProgs[v].log) {
					t.Fatalf("node %d inbox sequence differs between Send and SendPort", v)
				}
				if !reflect.DeepEqual(portProgs[v].log, refProgs[v].log) {
					t.Fatalf("node %d inbox sequence differs from the sequential engine", v)
				}
			}
			if byPort.Messages != ref.Messages || byPort.Bits != ref.Bits {
				t.Fatalf("metering differs from the sequential engine: %v vs %v", byPort, ref)
			}
			if byPort.Rounds != ref.Rounds {
				t.Fatalf("rounds %d, sequential engine %d", byPort.Rounds, ref.Rounds)
			}
			if !c.opts.DenseSweep && (byPort.Invocations != ref.Invocations || byPort.RoundsSkipped != ref.RoundsSkipped) {
				t.Fatalf("invocations %d, skipped rounds %d; sequential engine %d, %d",
					byPort.Invocations, byPort.RoundsSkipped, ref.Invocations, ref.RoundsSkipped)
			}
		})
	}
}

// portSender makes one SendPort call on the given port during Init.
type portSender struct{ port int }

func (p *portSender) Init(ctx *Context) {
	ctx.SendPort(p.port, wire.Msg(wire.KindBroadcast, 0))
}
func (p *portSender) Round(ctx *Context, inbox []Envelope) { ctx.Halt() }

// TestSendPortOutOfRangeFails: a port outside [0, Degree()) is a send to a
// non-neighbor — the run aborts after the round with ErrNotNeighbor, and the
// valid sends of the same round are never delivered.
func TestSendPortOutOfRangeFails(t *testing.T) {
	g := graph.Path(3) // node 1 has ports 0 (node 0) and 1 (node 2)
	for _, port := range []int{-1, 2} {
		t.Run(fmt.Sprintf("port=%d", port), func(t *testing.T) {
			nodes := []Node{&portSender{port: 0}, &portSender{port: port}, &portSender{port: 0}}
			net, err := NewNetwork(g, nodes, Options{})
			if err != nil {
				t.Fatal(err)
			}
			counters, err := net.Run(1)
			if !errors.Is(err, ErrNotNeighbor) {
				t.Fatalf("got %v, want ErrNotNeighbor", err)
			}
			if want := fmt.Sprintf("1 -> port %d of 2", port); !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name the bad port (%q)", err, want)
			}
			if counters.Messages != 0 {
				t.Fatalf("%d messages delivered from the failed round", counters.Messages)
			}
		})
	}
}

// BenchmarkSend compares the per-send cost of Send and SendPort on one
// degree-200 fan-out: an op is one send on every incident edge.
func BenchmarkSend(b *testing.B) {
	const deg = 200
	bld := graph.NewBuilder(deg + 1)
	for v := 1; v <= deg; v++ {
		bld.AddEdge(0, graph.NodeID(v))
	}
	g := bld.Build()
	net, err := NewNetwork(g, make([]Node, g.N()), Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := &Context{sh: net.shard, id: 0, outbox: make([]Routed, 0, deg)}
	m := wire.Msg(wire.KindBroadcast, 1)
	perSend := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*deg), "ns/send")
		if ctx.err != nil || len(ctx.outbox) != deg {
			b.Fatalf("fan-out queued %d of %d sends: %v", len(ctx.outbox), deg, ctx.err)
		}
	}
	b.Run("Send", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx.outbox = ctx.outbox[:0]
			for _, nb := range ctx.Neighbors() {
				ctx.Send(nb, m)
			}
		}
		perSend(b)
	})
	b.Run("SendPort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx.outbox = ctx.outbox[:0]
			for port := range ctx.Degree() {
				ctx.SendPort(port, m)
			}
		}
		perSend(b)
	})
}
