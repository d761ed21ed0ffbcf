// Overlayring: the workload the paper's introduction motivates — building a
// ring overlay on a peer-to-peer network. A Hamiltonian cycle of the
// connectivity graph is exactly a token-passing ring that visits every peer
// once per lap using only existing links. This example finds the ring with
// DHC1, then simulates passing a token around it on the CONGEST network and
// measures lap latency.
package main

import (
	"fmt"
	"log"

	"dhc"
	"dhc/internal/congest"
	"dhc/internal/graph"
	"dhc/internal/wire"
)

// tokenNode forwards a token along a fixed ring successor; when the origin
// has counted enough laps it floods a shutdown notice and everyone halts.
type tokenNode struct {
	succ     graph.NodeID
	want     int32
	holds    int
	shutdown bool
}

func (t *tokenNode) Init(ctx *congest.Context) {
	// Message-driven: a node acts only when the token or the shutdown
	// notice reaches it, so it asks for no wake-ups of its own.
	if ctx.ID() == 0 {
		ctx.Send(t.succ, wire.Msg(wire.KindToken, 1))
	}
}

func (t *tokenNode) Round(ctx *congest.Context, inbox []congest.Envelope) {
	for _, env := range inbox {
		switch env.Msg.Kind {
		case wire.KindToken:
			t.holds++
			lap := env.Msg.Arg(0)
			if ctx.ID() == 0 {
				lap++
				if lap > t.want {
					// Done: flood shutdown instead of forwarding.
					t.flood(ctx, -1)
					ctx.Halt()
					return
				}
			}
			ctx.Send(t.succ, wire.Msg(wire.KindToken, lap))
		case wire.KindBroadcast:
			if !t.shutdown {
				t.flood(ctx, env.From)
				ctx.Halt()
				return
			}
		}
	}
}

func (t *tokenNode) flood(ctx *congest.Context, except graph.NodeID) {
	t.shutdown = true
	ctx.SendPorts(ctx.AllPorts(), except, wire.Msg(wire.KindBroadcast, 0))
}

func main() {
	const n = 200
	// A modest random P2P topology.
	g := dhc.NewGNP(n, 0.6, 7)
	fmt.Printf("P2P network: %d peers, %d links\n", g.N(), g.M())

	res, err := dhc.Solve(g, dhc.AlgorithmDHC1, dhc.Options{Seed: 3, NumColors: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ring overlay built by DHC1 in %d rounds\n", res.Rounds)

	// Drive a token twice around the ring on the same CONGEST substrate.
	succ := res.Cycle.Successors()
	nodes := make([]congest.Node, n)
	progs := make([]*tokenNode, n)
	for v := 0; v < n; v++ {
		progs[v] = &tokenNode{succ: succ[graph.NodeID(v)], want: 2}
		nodes[v] = progs[v]
	}
	net, err := congest.NewNetwork(g, nodes, congest.Options{})
	if err != nil {
		log.Fatal(err)
	}
	counters, err := net.Run(11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("token completed 2 laps in %d rounds (%.1f rounds/lap, ring length %d)\n",
		counters.Rounds, float64(counters.Rounds)/2, n)
	for v, p := range progs {
		if p.holds == 0 && v != 0 {
			log.Fatalf("peer %d never held the token: ring broken", v)
		}
	}
	fmt.Println("every peer held the token: overlay verified in service")
}
