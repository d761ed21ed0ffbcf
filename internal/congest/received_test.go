package congest

import (
	"errors"
	"fmt"
	"testing"

	"dhc/internal/graph"
	"dhc/internal/metrics"
	"dhc/internal/rng"
	"dhc/internal/wire"
)

// maskNode checks Context.Received against its inbox on every call and
// keeps random traffic going: point sends by id, single-port sends and
// floods over random port lists with duplicated ports, under random kinds.
// It sometimes arms a wake-up, so event-driven runs also invoke it with an
// empty inbox, and it halts at haltAt, so later messages to it are metered
// but dropped.
type maskNode struct {
	haltAt int64
	ports  []int32
	check  func(ctx *Context, inbox []Envelope)
}

// maskLastRound bounds every maskNode's life.
const maskLastRound = 16

func (m *maskNode) Init(ctx *Context) {
	m.check(ctx, nil)
	m.send(ctx)
	ctx.WakeAt(m.haltAt)
}

func (m *maskNode) Round(ctx *Context, inbox []Envelope) {
	m.check(ctx, inbox)
	if ctx.Round() >= m.haltAt {
		ctx.Halt()
		return
	}
	m.send(ctx)
	// An earlier wake-up supersedes a pending later one, so the halt round
	// is re-armed on every call.
	ctx.WakeAt(m.haltAt)
	if ctx.Rand().Intn(3) == 0 {
		ctx.WakeAt(ctx.Round() + 1 + int64(ctx.Rand().Intn(3)))
	}
}

// send makes up to three random sends.
func (m *maskNode) send(ctx *Context) {
	deg := ctx.Degree()
	if deg == 0 {
		return
	}
	r := ctx.Rand()
	for range r.Intn(4) {
		msg := wire.Msg(wire.Kind(1+r.Intn(wire.NumKinds-1)), int32(ctx.Round()))
		switch r.Intn(3) {
		case 0:
			ctx.Send(ctx.Neighbors()[r.Intn(deg)], msg)
		case 1:
			m.ports = append(m.ports[:0], int32(r.Intn(deg)))
			ctx.SendPorts(m.ports, -1, msg)
		default:
			m.ports = m.ports[:0]
			for range 1 + r.Intn(2*deg) {
				m.ports = append(m.ports, int32(r.Intn(deg))) // repeats are likely
			}
			except := graph.NodeID(-1)
			if r.Intn(2) == 0 {
				except = ctx.Neighbors()[r.Intn(deg)]
			}
			ctx.SendPorts(m.ports, except, msg)
		}
	}
}

// kindFault is a stateless FaultHook, so every sharding sees the same
// faults: it drops some messages and rewrites the kind of others to a
// defined kind, to kind 0, to 30 (the last kind with its own mask bit), or
// to kinds that share the top bit.
func kindFault(round int64, from, to graph.NodeID, m wire.Message) (wire.Message, bool) {
	h := uint64(round)*0x9e3779b97f4a7c15 ^ uint64(from)*0xbf58476d1ce4e5b9 ^ uint64(to)*0x94d049bb133111eb
	h ^= h >> 29
	switch h % 11 {
	case 0, 1:
		return m, false
	case 2:
		m.Kind = wire.Kind(1 + h>>8%uint64(wire.NumKinds-1))
	case 3:
		m.Kind = 0
	case 4:
		m.Kind = 30
	case 5:
		m.Kind = 31
	case 6:
		m.Kind = 200
	}
	return m, true
}

// TestReceivedMatchesInbox pins Context.Received to the inbox: on every
// Round call, for every kind below the mask's shared top bit, Received(k)
// holds exactly when the inbox holds a message of kind k, and for kinds at
// or above it exactly when the inbox holds any such kind; Init sees no
// kinds. Traffic is random over G(n, p) through Send, one-port SendPorts and
// SendPorts with duplicated ports, with and without a FaultHook that drops messages
// and rewrites kinds, with receivers that halt mid-run, event-driven and
// dense, in one whole-network shard and in two shards. The whole-network
// legs first cut a run short and then rerun on the same network.
func TestReceivedMatchesInbox(t *testing.T) {
	g := graph.GNP(96, 0.15, rng.New(21))
	for _, hooked := range []bool{false, true} {
		for _, dense := range []bool{false, true} {
			for _, shards := range []int{0, 2} {
				name := fmt.Sprintf("hook=%v/dense=%v/shards=%d", hooked, dense, shards)
				t.Run(name, func(t *testing.T) {
					opts := Options{BandwidthBits: 1 << 20, DenseSweep: dense}
					if hooked {
						opts.FaultHook = kindFault
					}
					testReceived(t, g, opts, shards)
				})
			}
		}
	}
}

func testReceived(t *testing.T, g *graph.Graph, opts Options, shards int) {
	var calls, emptyRounds, highKinds int
	var delivered int64
	check := func(ctx *Context, inbox []Envelope) {
		calls++
		delivered += int64(len(inbox))
		if len(inbox) == 0 && ctx.Round() > 0 {
			emptyRounds++
		}
		var held [256]bool
		high := false
		for _, env := range inbox {
			held[env.Msg.Kind] = true
			high = high || env.Msg.Kind >= 31
		}
		if high {
			highKinds++
		}
		for k := range 256 {
			want := held[k]
			if k >= 31 {
				want = high
			}
			if got := ctx.Received(wire.Kind(k)); got != want {
				t.Fatalf("node %d round %d: Received(%d) = %v, inbox holds it: %v (inbox %v)",
					ctx.ID(), ctx.Round(), k, got, want, inbox)
			}
		}
	}
	src := rng.New(3)
	nodes := make([]Node, g.N())
	for v := range nodes {
		nodes[v] = &maskNode{haltAt: 4 + int64(src.Intn(maskLastRound-4)), check: check}
	}
	var counters *metrics.Counters
	var err error
	if shards > 0 {
		counters, err = runConfig(g, nodes, opts, shards, 11)
	} else {
		// A run cut off by its round limit leaves delivered mail unread;
		// the rerun on the same network must not see its kinds.
		cut := opts
		cut.MaxRounds = 6
		net, err := NewNetwork(g, nodes, cut)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Run(11); !errors.Is(err, ErrRoundLimit) {
			t.Fatalf("cut run: %v, want ErrRoundLimit", err)
		}
		if err := net.Reset(g, nodes, opts); err != nil {
			t.Fatal(err)
		}
		calls, delivered, emptyRounds, highKinds = 0, 0, 0, 0
		counters, err = net.Run(11)
	}
	if err != nil {
		t.Fatal(err)
	}
	if delivered == 0 || emptyRounds == 0 {
		t.Fatalf("checked %d calls: %d messages delivered, %d Round calls with an empty inbox; want both > 0",
			calls, delivered, emptyRounds)
	}
	// Metered messages that no inbox received went to halted nodes.
	if counters.Messages <= delivered {
		t.Fatalf("%d messages metered, %d delivered: no message reached a halted node", counters.Messages, delivered)
	}
	if opts.FaultHook != nil && highKinds == 0 {
		t.Fatal("the fault hook produced no kind past the mask's own bits")
	}
}
