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

// sendForm selects how fanoutNode addresses its fan-out.
type sendForm int

const (
	formSend      sendForm = iota // Send by neighbor id
	formOnePort                   // a one-port SendPorts call per edge
	formSendPorts                 // one SendPorts call over the chosen ports
	formFlood                     // a flood-kind SendPorts over every port (ping-pong only)
)

// fanoutNode gossips over random subsets of its incident edges: every fifth
// node seeds a message with a hop budget, and a node forwards the first
// message of each inbox that has hops left to a random half of its edges,
// skipping the edge it arrived on. form selects how the same fan-out is
// sent, so every form must produce the same execution; log records every
// delivery in inbox order.
type fanoutNode struct {
	form  sendForm
	ports []int32  // formSendPorts scratch
	one   [1]int32 // formOnePort scratch
	log   []delivery
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

// fanout sends m to a random half of the edges other than except's. The
// SendPorts form lists except's port too, for SendPorts to skip.
func (f *fanoutNode) fanout(ctx *Context, m wire.Message, except graph.NodeID) {
	f.ports = f.ports[:0]
	for port, nb := range ctx.Neighbors() {
		if nb == except {
			f.ports = append(f.ports, int32(port))
			continue
		}
		if ctx.Rand().Intn(2) == 0 {
			continue
		}
		ctx.AddWork(1)
		switch f.form {
		case formSend:
			ctx.Send(nb, m)
		case formOnePort:
			f.one[0] = int32(port)
			ctx.SendPorts(f.one[:], -1, m)
		default:
			f.ports = append(f.ports, int32(port))
		}
	}
	if f.form == formSendPorts {
		ctx.SendPorts(f.ports, except, m)
	}
}

func newFanout(n int, form sendForm) ([]*fanoutNode, []Node) {
	progs := make([]*fanoutNode, n)
	nodes := make([]Node, n)
	for v := range progs {
		progs[v] = &fanoutNode{form: form}
		nodes[v] = progs[v]
	}
	return progs, nodes
}

// memShards is a test-side Fused executor over k in-memory Shards: the
// distributed coordinator without transports. Each cross-shard record is
// split per destination shard, keeping its receivers' send order, and
// routed in shard order; a cross message activates the next round only if
// its target has not halted, judged against a global halted view folded
// from every step's newly-halted nodes.
type memShards struct {
	shards  []*Shard
	owner   []int // vertex -> shard
	inbound [][]Record
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
		for _, r := range out {
			for dst := range m.shards {
				var to []graph.NodeID
				for _, v := range r.To {
					if m.owner[v] == dst {
						to = append(to, v)
					}
				}
				if len(to) > 0 {
					m.inbound[dst] = append(m.inbound[dst], Record{From: r.From, Msg: r.Msg, To: to})
				}
			}
		}
	}
	for _, in := range m.inbound {
		for _, r := range in {
			for _, v := range r.To {
				act.Messages = act.Messages || !m.halted[v]
			}
		}
	}
	return act, nil
}

func (m *memShards) Finish(deliverRound int64) error { return m.deliver(deliverRound) }

// runShards executes nodes as k in-memory Shards driven by RunRounds, and
// returns the merged counters.
func runShards(g *graph.Graph, nodes []Node, opts Options, k int, seed uint64) (*metrics.Counters, error) {
	n := g.N()
	m := &memShards{owner: make([]int, n), inbound: make([][]Record, k), halted: make([]bool, n)}
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

// config is one engine configuration of the send-form tests: in process
// (shards == 0) or as that many in-memory shards.
type config struct {
	name   string
	opts   Options
	shards int
}

// sendConfigs lists the engine configurations every send form must agree
// on, each on top of base. The "workers=1" names denote the in-process
// Network, a single goroutine.
func sendConfigs(base Options) []config {
	dense := base
	dense.DenseSweep = true
	return []config{
		{name: "workers=1", opts: base},
		{name: "workers=1/dense", opts: dense},
		{name: "shards=2", opts: base, shards: 2},
		{name: "shards=3", opts: base, shards: 3},
		{name: "shards=3/dense", opts: dense, shards: 3},
	}
}

// runConfig runs nodes in process (shards == 0) or as that many in-memory
// shards.
func runConfig(g *graph.Graph, nodes []Node, opts Options, shards int, seed uint64) (*metrics.Counters, error) {
	if shards > 0 {
		return runShards(g, nodes, opts, shards, seed)
	}
	net, err := NewNetwork(g, nodes, opts)
	if err != nil {
		return nil, err
	}
	return net.Run(seed)
}

// TestOnePortSendPortsMatchesSend: fanning out by one-port SendPorts calls
// and by id must be the same execution on every engine configuration —
// identical counters and the identical per-node sequence of deliveries —
// and the sharded executions must meter exactly what the in-process engine
// meters.
func TestOnePortSendPortsMatchesSend(t *testing.T) {
	g := graph.GNP(120, 0.3, rng.New(5))
	configs := sendConfigs(Options{})
	run := func(t *testing.T, c config, form sendForm) (*metrics.Counters, []*fanoutNode) {
		t.Helper()
		progs, nodes := newFanout(g.N(), form)
		counters, err := runConfig(g, nodes, c.opts, c.shards, 9)
		if err != nil {
			t.Fatalf("form %d: %v", form, err)
		}
		return counters, progs
	}
	ref, refProgs := run(t, configs[0], formSend)
	if ref.Messages == 0 {
		t.Fatal("fan-out sent no messages")
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			byID, idProgs := run(t, c, formSend)
			byPort, portProgs := run(t, c, formOnePort)
			if !reflect.DeepEqual(byID, byPort) {
				t.Fatalf("counters differ:\n  Send:      %v\n  SendPorts: %v", byID, byPort)
			}
			for v := range idProgs {
				if !reflect.DeepEqual(idProgs[v].log, portProgs[v].log) {
					t.Fatalf("node %d inbox sequence differs between Send and one-port SendPorts", v)
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

// portsNode floods over port lists: a seed flood over AllPorts from every
// seventh node, then each round a forward of the first hop-carrying message
// to a random third of the ports (listing the arrival port, for except to
// skip), an empty flood, and from some receiving nodes a flood naming port
// 0 twice.
// form selects how each flood is sent: one SendPorts call, a Send loop over
// the listed ports' neighbors, or a Scope built from the list and flooded
// with SendScope; all three must produce the same execution. After every
// flood the node overwrites its port list, which SendPorts and Scope must
// already have copied.
type portsNode struct {
	form  floodForm
	ports []int32
	scope Scope
	log   []delivery
}

// floodForm is how portsNode sends a flood over a port list.
type floodForm int

const (
	floodSendPorts floodForm = iota
	floodSendLoop
	floodScope
)

func (p *portsNode) Init(ctx *Context) {
	ctx.WakeAt(fanoutHalt)
	if ctx.ID()%7 == 0 {
		p.flood(ctx, ctx.AllPorts(), -1, wire.Msg(wire.KindBroadcast, 3, int32(ctx.ID())))
	}
}

func (p *portsNode) Round(ctx *Context, inbox []Envelope) {
	for _, env := range inbox {
		p.log = append(p.log, delivery{round: ctx.Round(), env: env})
	}
	if ctx.Round() >= fanoutHalt {
		ctx.Halt()
		return
	}
	p.flood(ctx, p.ports[:0], -1, wire.Msg(wire.KindToken, 0))
	for _, env := range inbox {
		if hops := env.Msg.Arg(0); env.Msg.Kind == wire.KindBroadcast && hops > 0 {
			p.ports = p.ports[:0]
			for port, nb := range ctx.Neighbors() {
				if nb == env.From || ctx.Rand().Intn(3) == 0 {
					p.ports = append(p.ports, int32(port))
				}
			}
			p.flood(ctx, p.ports, env.From, wire.Msg(wire.KindBroadcast, hops-1, env.Msg.Arg(1)))
			p.scrub()
			break
		}
	}
	if len(inbox) > 0 && ctx.Round()%3 == 0 && ctx.ID()%4 == 1 && ctx.Degree() > 0 {
		p.ports = append(p.ports[:0], 0, 0)
		p.flood(ctx, p.ports, -1, wire.Msg(wire.KindColor, int32(ctx.Round())))
		p.scrub()
	}
}

func (p *portsNode) flood(ctx *Context, ports []int32, except graph.NodeID, m wire.Message) {
	switch p.form {
	case floodSendLoop:
		nbrs := ctx.Neighbors()
		for _, port := range ports {
			if nbrs[port] != except {
				ctx.Send(nbrs[port], m)
			}
		}
	case floodScope:
		p.scope = ctx.Scope(ports, p.scope)
		ctx.SendScope(p.scope, except, m)
	default:
		ctx.SendPorts(ports, except, m)
	}
}

// scrub overwrites the port list just flooded.
func (p *portsNode) scrub() {
	for i := range p.ports {
		p.ports[i] = -1
	}
}

// TestSendPortsMatchesSendLoop: a flood sent as one SendPorts record, and
// one sent with SendScope over a Scope of the same ports, must be the same
// execution as the Send loop over the ports' neighbors — identical inboxes,
// counters, rounds and skipped rounds — with except set and unset, an empty
// port list, a duplicated port, AllPorts, and the caller overwriting its
// list right after the call, on every engine configuration.
func TestSendPortsMatchesSendLoop(t *testing.T) {
	g := graph.GNP(120, 0.3, rng.New(6))
	run := func(t *testing.T, c config, form floodForm) (*metrics.Counters, []*portsNode) {
		t.Helper()
		progs := make([]*portsNode, g.N())
		nodes := make([]Node, g.N())
		for v := range progs {
			progs[v] = &portsNode{form: form}
			nodes[v] = progs[v]
		}
		counters, err := runConfig(g, nodes, c.opts, c.shards, 4)
		if err != nil {
			t.Fatalf("form %d: %v", form, err)
		}
		return counters, progs
	}
	// The duplicated port puts two messages on one edge in a round, beside
	// the forwards: budget past the default.
	configs := sendConfigs(Options{BandwidthBits: 256})
	ref, refProgs := run(t, configs[0], floodSendLoop)
	if ref.Messages == 0 {
		t.Fatal("floods sent no messages")
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			loop, loopProgs := run(t, c, floodSendLoop)
			ports, portsProgs := run(t, c, floodSendPorts)
			scope, scopeProgs := run(t, c, floodScope)
			if !reflect.DeepEqual(loop, ports) || !reflect.DeepEqual(loop, scope) {
				t.Fatalf("counters differ:\n  Send loop: %v\n  SendPorts: %v\n  SendScope: %v", loop, ports, scope)
			}
			for v := range portsProgs {
				if !reflect.DeepEqual(portsProgs[v].log, loopProgs[v].log) {
					t.Fatalf("node %d inbox sequence differs between SendPorts and the Send loop", v)
				}
				if !reflect.DeepEqual(scopeProgs[v].log, loopProgs[v].log) {
					t.Fatalf("node %d inbox sequence differs between SendScope and the Send loop", v)
				}
				if !reflect.DeepEqual(portsProgs[v].log, refProgs[v].log) {
					t.Fatalf("node %d inbox sequence differs from the sequential engine", v)
				}
			}
			if ports.Messages != ref.Messages || ports.Bits != ref.Bits || ports.Rounds != ref.Rounds {
				t.Fatalf("metering differs from the sequential engine: %v vs %v", ports, ref)
			}
			if !c.opts.DenseSweep && (ports.Invocations != ref.Invocations || ports.RoundsSkipped != ref.RoundsSkipped) {
				t.Fatalf("invocations %d, skipped rounds %d; sequential engine %d, %d",
					ports.Invocations, ports.RoundsSkipped, ref.Invocations, ref.RoundsSkipped)
			}
		})
	}
}

// portSender makes one SendPorts call during Init, or with scope one
// SendScope over the Scope of the same list: over the given port, or with
// second over port 0 and then port.
type portSender struct {
	port   int
	second bool
	scope  bool
}

func (p *portSender) Init(ctx *Context) {
	ports := []int32{int32(p.port)}
	if p.second {
		ports = []int32{0, int32(p.port)}
	}
	if p.scope {
		ctx.SendScope(ctx.Scope(ports, Scope{}), -1, wire.Msg(wire.KindBroadcast, 0))
		return
	}
	ctx.SendPorts(ports, -1, wire.Msg(wire.KindBroadcast, 0))
}
func (p *portSender) Round(ctx *Context, inbox []Envelope) { ctx.Halt() }

// TestSendPortsOutOfRangeFails: a port outside [0, Degree()) is a send to a
// non-neighbor — the run aborts after the round with ErrNotNeighbor naming
// the port, and the valid sends of the same round, the same call's valid
// port included, are never delivered. A Scope of such a list fails alike.
func TestSendPortsOutOfRangeFails(t *testing.T) {
	g := graph.Path(3) // node 1 has ports 0 (node 0) and 1 (node 2)
	for _, tc := range []struct {
		name          string
		port          int
		second, scope bool
	}{
		{"port=-1", -1, false, false},
		{"port=2", 2, false, false},
		{"second/port=-1", -1, true, false},
		{"second/port=2", 2, true, false},
		{"scope/port=-1", -1, false, true},
		{"scope/second/port=2", 2, true, true},
	} {
		port := tc.port
		t.Run(tc.name, func(t *testing.T) {
			nodes := []Node{&portSender{port: 0}, &portSender{port: port, second: tc.second, scope: tc.scope}, &portSender{port: 0}}
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

// BenchmarkSend compares the per-send cost of Send and SendPorts on one
// degree-200 fan-out: an op is one send on every incident edge.
func BenchmarkSend(b *testing.B) {
	const deg = 200
	star := make([]graph.Edge, deg)
	for v := range star {
		star[v] = graph.Edge{U: 0, V: graph.NodeID(v + 1)}
	}
	g := graph.FromEdges(deg+1, star)
	net, err := NewNetwork(g, make([]Node, g.N()), Options{})
	if err != nil {
		b.Fatal(err)
	}
	net.shard.Begin(1)
	ctx := net.shard.ctxs[0]
	m := wire.Msg(wire.KindBroadcast, 1)
	perSend := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*deg), "ns/send")
		if ctx.err != nil || len(ctx.ids) != deg {
			b.Fatalf("fan-out queued %d of %d sends: %v", len(ctx.ids), deg, ctx.err)
		}
	}
	b.Run("Send", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx.reset(0)
			for _, nb := range ctx.Neighbors() {
				ctx.Send(nb, m)
			}
		}
		perSend(b)
	})
	b.Run("SendPorts", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx.reset(0)
			ctx.SendPorts(ctx.AllPorts(), -1, m)
		}
		perSend(b)
	})
}

// scopeThief floods during Init with the Scope in *shared, after building
// its own there when build is set: vertex 1 builds, vertex 2 floods
// vertex 1's.
type scopeThief struct {
	shared *Scope
	build  bool
}

func (s *scopeThief) Init(ctx *Context) {
	if s.build {
		*s.shared = ctx.Scope(ctx.AllPorts(), *s.shared)
	}
	ctx.SendScope(*s.shared, -1, wire.Msg(wire.KindBroadcast, 0))
}

func (s *scopeThief) Round(ctx *Context, _ []Envelope) { ctx.Halt() }

// TestSendScopeRejectsForeignAndStaleScopes: a Scope is valid only for the
// node, the network and the run that built it. Flooding another node's
// Scope, one built in an earlier run of the same network, or one built by
// another network is a send to non-neighbors: ErrNotNeighbor, and nothing
// of that round is delivered.
func TestSendScopeRejectsForeignAndStaleScopes(t *testing.T) {
	g := graph.Path(4)
	shared := new(Scope)
	nodes := []Node{&portSender{port: 0}, &scopeThief{shared: shared, build: true}, &scopeThief{shared: shared}, &portSender{port: 0}}
	net, err := NewNetwork(g, nodes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	counters, err := net.Run(1)
	if !errors.Is(err, ErrNotNeighbor) || !strings.Contains(err.Error(), "2 floods a scope it did not build") {
		t.Fatalf("foreign scope: got %v, want ErrNotNeighbor from vertex 2", err)
	}
	if counters.Messages != 0 {
		t.Fatalf("foreign scope: %d messages delivered from the failed round", counters.Messages)
	}
	nodes[1].(*scopeThief).build, nodes[2] = false, &portSender{port: 0}
	if _, err = net.Run(1); !errors.Is(err, ErrNotNeighbor) || !strings.Contains(err.Error(), "1 floods a scope it did not build") {
		t.Fatalf("stale scope: got %v, want ErrNotNeighbor from vertex 1", err)
	}
	// Vertex 1 of K4 builds a Scope naming 0, 2 and 3 in the first run of
	// one network; vertex 1 of a fresh path network, in its own first run,
	// must not flood it to 3, which is no neighbor there.
	nodes = []Node{&portSender{port: 0}, &scopeThief{shared: shared, build: true}, &portSender{port: 0}, &portSender{port: 0}}
	k4, err := NewNetwork(graph.Complete(4), nodes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err = k4.Run(1); err != nil {
		t.Fatalf("K4 run: %v", err)
	}
	nodes[1].(*scopeThief).build = false
	path, err := NewNetwork(g, nodes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err = path.Run(1); !errors.Is(err, ErrNotNeighbor) || !strings.Contains(err.Error(), "1 floods a scope it did not build") {
		t.Fatalf("scope of another network: got %v, want ErrNotNeighbor from vertex 1", err)
	}
}
