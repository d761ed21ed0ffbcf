package congest

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"dhc/internal/graph"
	"dhc/internal/metrics"
	"dhc/internal/rng"
	"dhc/internal/wire"
)

// identityHook passes every message through unchanged. Any FaultHook sends
// delivery down the per-edge loop, so running a program with and without
// it compares the hook-free delivery against that loop.
func identityHook(_ int64, _, _ graph.NodeID, m wire.Message) (wire.Message, bool) { return m, true }

// chaosPool is the payload pool chaosNode draws from: both flood kinds and
// two kinds that are not floods, with few distinct payloads so that flood
// copies collide, and two three-argument messages that are oversize under
// the tight budget of TestDeliveryMatchesPerEdgeLoop.
var chaosPool = []wire.Message{
	wire.Msg(wire.KindRotation, 1, 2),
	wire.Msg(wire.KindRotation, 3, 4),
	wire.Msg(wire.KindSuccess, 5, 6),
	wire.Msg(wire.KindSuccess, 5, 7),
	wire.Msg(wire.KindBroadcast, 1, 2),
	wire.Msg(wire.KindBroadcast, 2, 1),
	wire.Msg(wire.KindCandidate, 9),
	wire.Msg(wire.KindRotation, 1, 2, 3),
	wire.Msg(wire.KindBroadcast, 4, 5, 6),
}

// chaosNode sends random traffic in every shape delivery distinguishes:
// ascending and shuffled SendPorts lists with an excluded neighbor, a
// duplicated port, descending Send runs of one message (which merge into
// one record), single point sends, and several records per sender. A node
// halts at a random round, so later traffic to it reaches a halted
// receiver; every node halts by round chaosRounds. log records every
// delivery in inbox order.
type chaosNode struct {
	ports []int32
	log   []delivery
}

const chaosRounds = 10

func (c *chaosNode) Init(ctx *Context) {
	ctx.WakeAt(1)
	c.send(ctx)
}

func (c *chaosNode) Round(ctx *Context, inbox []Envelope) {
	for _, env := range inbox {
		c.log = append(c.log, delivery{round: ctx.Round(), env: env})
	}
	if ctx.Round() >= chaosRounds || ctx.Rand().Intn(12) == 0 {
		ctx.Halt()
		return
	}
	ctx.WakeAt(ctx.Round() + 1)
	c.send(ctx)
}

func (c *chaosNode) send(ctx *Context) {
	r, nbrs := ctx.Rand(), ctx.Neighbors()
	for s := r.Intn(4); s > 0; s-- {
		m := chaosPool[r.Intn(len(chaosPool))]
		c.ports = c.ports[:0]
		for p := range nbrs {
			if r.Intn(3) == 0 {
				c.ports = append(c.ports, int32(p))
			}
		}
		if len(c.ports) == 0 {
			continue
		}
		switch r.Intn(5) {
		case 0: // ascending scoped flood, maybe excluding a neighbor
			except := graph.NodeID(-1)
			if r.Intn(2) == 0 {
				except = nbrs[c.ports[r.Intn(len(c.ports))]]
			}
			ctx.SendPorts(c.ports, except, m)
		case 1: // shuffled port list
			r.Shuffle(len(c.ports), func(i, j int) { c.ports[i], c.ports[j] = c.ports[j], c.ports[i] })
			ctx.SendPorts(c.ports, -1, m)
		case 2: // a duplicated port
			c.ports = append(c.ports, c.ports[r.Intn(len(c.ports))])
			ctx.SendPorts(c.ports, -1, m)
		case 3: // descending sends of one message: one record
			for i := len(c.ports) - 1; i >= 0; i-- {
				ctx.Send(nbrs[c.ports[i]], m)
			}
		default:
			ctx.Send(nbrs[c.ports[0]], m)
		}
	}
}

// runChaos runs chaosNode programs on g in process (shards == 0) or as that
// many in-memory shards. It returns every node's delivery log, the run's
// counters (merged over the shards, also when the run fails) and its error.
func runChaos(t *testing.T, g *graph.Graph, opts Options, shards int, seed uint64, setup func(*Shard)) ([][]delivery, *metrics.Counters, error) {
	t.Helper()
	n := g.N()
	progs := make([]*chaosNode, n)
	nodes := make([]Node, n)
	for v := range progs {
		progs[v] = &chaosNode{}
		nodes[v] = progs[v]
	}
	logs := func() [][]delivery {
		out := make([][]delivery, n)
		for v, p := range progs {
			out[v] = p.log
		}
		return out
	}
	if shards == 0 {
		net, err := NewNetwork(g, nodes, opts)
		if err != nil {
			t.Fatal(err)
		}
		if setup != nil {
			setup(net.shard)
		}
		c, err := net.Run(seed)
		return logs(), c, err
	}
	m := &memShards{owner: make([]int, n), inbound: make([][]Record, shards), halted: make([]bool, n)}
	for i := 0; i < shards; i++ {
		lo, hi := i*n/shards, (i+1)*n/shards
		sh, err := NewShard(g, nodes[lo:hi], opts, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		sh.Begin(seed)
		if setup != nil {
			setup(sh)
		}
		m.shards = append(m.shards, sh)
		for v := lo; v < hi; v++ {
			m.owner[v] = i
		}
	}
	total := metrics.NewCounters(n)
	err := RunRounds(context.Background(), m, NormalizeOptions(opts, n), total)
	for _, sh := range m.shards {
		total.Merge(sh.Counters())
	}
	return logs(), total, err
}

// sameRun fails the test unless two runs agree on every delivery log, on
// their counters and on their error text.
func sameRun(t *testing.T, name string, logsA, logsB [][]delivery, cA, cB *metrics.Counters, errA, errB error) {
	t.Helper()
	if fmt.Sprint(errA) != fmt.Sprint(errB) {
		t.Fatalf("%s: error %v, want %v", name, errB, errA)
	}
	if !reflect.DeepEqual(cA, cB) {
		t.Fatalf("%s: counters %+v, want %+v", name, cB, cA)
	}
	for v := range logsA {
		if !reflect.DeepEqual(logsA[v], logsB[v]) {
			t.Fatalf("%s: node %d read %v, want %v", name, v, logsB[v], logsA[v])
		}
	}
}

// TestDeliveryMatchesPerEdgeLoop is the differential oracle of hook-free
// delivery, which skips the per-edge bandwidth stamps and answers most
// flood duplicates by token: random programs must give byte-identical
// per-round inboxes, counters and error text with no FaultHook and with
// the identity hook, which forces the per-edge loop, in process and on 3
// shards (whose middle shard copies the cross part of a record that
// reaches both other shards). The roomy budget lets runs go to the end,
// where the in-process and sharded inboxes must agree too;
// under the tight one, two-argument messages fit once per edge, and a
// duplicated port, a second record to one receiver or a three-argument
// message overruns, so most runs end in a bandwidth error.
func TestDeliveryMatchesPerEdgeLoop(t *testing.T) {
	g := graph.GNP(48, 0.25, rng.New(11))
	idBits := int64(wire.NewCodec(g.N()).IDBits)
	failed := 0
	for _, budget := range []struct {
		name string
		bits int64
	}{{"roomy", 1 << 12}, {"tight", 8 + 2*idBits}} {
		for seed := uint64(1); seed <= 12; seed++ {
			var whole [][]delivery
			for _, shards := range []int{0, 3} {
				name := fmt.Sprintf("%s/shards=%d/seed=%d", budget.name, shards, seed)
				opts := Options{BandwidthBits: budget.bits}
				logs, c, err := runChaos(t, g, opts, shards, seed, nil)
				opts.FaultHook = identityHook
				hLogs, hC, hErr := runChaos(t, g, opts, shards, seed, nil)
				sameRun(t, name, logs, hLogs, c, hC, err, hErr)
				switch {
				case err != nil && budget.name == "roomy":
					t.Fatalf("%s: %v", name, err)
				case err != nil:
					failed++
				case whole == nil:
					whole = logs
				case !reflect.DeepEqual(logs, whole):
					// A run that stays within budget is the same execution
					// on every sharding.
					t.Fatalf("%s: inboxes differ from the in-process run", name)
				}
			}
		}
	}
	if failed == 0 {
		t.Fatal("no run under the tight budget overran an edge")
	}
}

// TestFloodTokenWrap: when the flood token counter wraps, every mailbox's
// token and the payload table are cleared, so a token issued after the
// wrap is never taken for one a mailbox kept from before it. The run
// starts with the counter at its last value and every mailbox holding a
// token the wrap will issue again; it must match a run that never wraps.
// A wrap that kept the mailboxes' tokens would drop the first flood
// payloads after it as duplicates.
func TestFloodTokenWrap(t *testing.T) {
	sh := newShard(graph.Ring(8), make([]Node, 8), NormalizeOptions(Options{}, 8), 0, 8)
	for v := range sh.boxes {
		sh.boxes[v].flood = uint32(v + 1)
	}
	sh.floods = append(sh.floods, floodToken{msg: chaosPool[0], tok: math.MaxUint32})
	sh.lastToken = math.MaxUint32
	if tok := sh.floodToken(&chaosPool[1]); tok != 1 {
		t.Fatalf("first token after the wrap is %d, want 1", tok)
	}
	for v := range sh.boxes {
		if sh.boxes[v].flood != 0 {
			t.Fatalf("mailbox %d kept token %d across the wrap", v, sh.boxes[v].flood)
		}
	}
	if want := []floodToken{{msg: chaosPool[1], tok: 1}}; !reflect.DeepEqual(sh.floods, want) {
		t.Fatalf("payload table after the wrap %v, want %v", sh.floods, want)
	}

	g := graph.GNP(48, 0.25, rng.New(11))
	stale := func(s *Shard) {
		for v := range s.boxes {
			s.boxes[v].flood = uint32(v%4 + 1)
		}
		s.lastToken = math.MaxUint32
	}
	for _, shards := range []int{0, 3} {
		for seed := uint64(1); seed <= 6; seed++ {
			name := fmt.Sprintf("shards=%d/seed=%d", shards, seed)
			opts := Options{BandwidthBits: 1 << 12}
			logs, c, err := runChaos(t, g, opts, shards, seed, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			wLogs, wC, wErr := runChaos(t, g, opts, shards, seed, stale)
			sameRun(t, name, logs, wLogs, c, wC, err, wErr)
		}
	}
}
