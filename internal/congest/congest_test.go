package congest

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"dhc/internal/graph"
	"dhc/internal/metrics"
	"dhc/internal/rng"
	"dhc/internal/wire"
)

// floodNode floods a value: node 0 starts with its own id as the value; every
// node adopts the minimum value it hears and forwards it once, then halts
// after quietRounds rounds of silence. This exercises send/receive, rounds
// and halting. Counting silent rounds needs an invocation every round, so
// every invocation re-arms a wake-up for the next round.
type floodNode struct {
	value   int32
	sent    bool
	quiet   int
	adopted bool
}

func (f *floodNode) Init(ctx *Context) {
	ctx.WakeAt(ctx.Round() + 1)
	f.value = int32(ctx.ID())
	if ctx.ID() == 0 {
		f.adopted = true
		for _, nb := range ctx.Neighbors() {
			ctx.Send(nb, wire.Msg(wire.KindBroadcast, f.value))
		}
		f.sent = true
	}
}

func (f *floodNode) Round(ctx *Context, inbox []Envelope) {
	ctx.WakeAt(ctx.Round() + 1)
	heard := false
	for _, env := range inbox {
		if env.Msg.Kind == wire.KindBroadcast && (!f.adopted || env.Msg.Arg(0) < f.value) {
			f.value = env.Msg.Arg(0)
			f.adopted = true
			heard = true
		}
	}
	if heard && !f.sent {
		for _, nb := range ctx.Neighbors() {
			ctx.Send(nb, wire.Msg(wire.KindBroadcast, f.value))
		}
		f.sent = true
	}
	if !heard {
		f.quiet++
	} else {
		f.quiet = 0
	}
	ctx.ObserveMemory(4)
	ctx.AddWork(int64(len(inbox) + 1))
	if f.quiet >= ctx.N() { // conservative: diameter <= n
		ctx.Halt()
	}
}

func newFloodNet(t *testing.T, g *graph.Graph, opts Options) (*Network, []*floodNode) {
	t.Helper()
	progs := make([]*floodNode, g.N())
	nodes := make([]Node, g.N())
	for i := range progs {
		progs[i] = &floodNode{}
		nodes[i] = progs[i]
	}
	net, err := NewNetwork(g, nodes, opts)
	if err != nil {
		t.Fatal(err)
	}
	return net, progs
}

func TestFloodReachesEveryone(t *testing.T) {
	g := graph.Ring(12)
	net, progs := newFloodNet(t, g, Options{})
	counters, err := net.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range progs {
		if p.value != 0 {
			t.Fatalf("node %d ended with value %d", i, p.value)
		}
	}
	if counters.Rounds == 0 || counters.Messages == 0 {
		t.Fatalf("counters empty: %v", counters)
	}
	// Flood on a ring sends 2 messages per node except duplicates at the
	// antipode; at least n messages total.
	if counters.Messages < int64(g.N()) {
		t.Fatalf("too few messages: %d", counters.Messages)
	}
}

// senderNode runs every round; node 1 sends a configurable burst to target in its
// first round, and every node halts after 3 rounds.
type senderNode struct {
	burst  int
	target graph.NodeID
	rounds int
}

func (s *senderNode) Init(ctx *Context) { ctx.WakeAt(ctx.Round() + 1) }

func (s *senderNode) Round(ctx *Context, inbox []Envelope) {
	ctx.WakeAt(ctx.Round() + 1)
	s.rounds++
	if ctx.ID() == 1 && s.rounds == 1 {
		for i := 0; i < s.burst; i++ {
			ctx.Send(s.target, wire.Msg(wire.KindBroadcast, 1, 2, 3, 4))
		}
	}
	if s.rounds >= 3 {
		ctx.Halt()
	}
}

func TestBandwidthEnforced(t *testing.T) {
	g := graph.Path(3)
	nodes := []Node{
		&senderNode{burst: 0},
		&senderNode{burst: 100, target: 0},
		&senderNode{burst: 0},
	}
	net, err := NewNetwork(g, nodes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(1); !errors.Is(err, ErrBandwidth) {
		t.Fatalf("got %v, want ErrBandwidth", err)
	}
}

func TestSendToNonNeighborFails(t *testing.T) {
	g := graph.Path(3) // 0-1-2; 0 and 2 not adjacent
	nodes := []Node{
		&senderNode{burst: 1, target: 2}, // node 0 won't send (only node 1 sends)
		&senderNode{burst: 1, target: 0},
		&senderNode{burst: 0},
	}
	// Make node 0 the misbehaving sender by targeting node 2 directly.
	bad := &badSender{}
	nodes[0] = bad
	net, err := NewNetwork(g, nodes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(1); !errors.Is(err, ErrNotNeighbor) {
		t.Fatalf("got %v, want ErrNotNeighbor", err)
	}
}

type badSender struct{}

func (b *badSender) Init(ctx *Context) {
	ctx.Send(2, wire.Msg(wire.KindBroadcast, 0)) // 2 is not a neighbor of 0 on Path(3)
}
func (b *badSender) Round(ctx *Context, inbox []Envelope) { ctx.Halt() }

// spinner runs every round and never halts.
type spinner struct{}

func (s *spinner) Init(ctx *Context)                    { ctx.WakeAt(ctx.Round() + 1) }
func (s *spinner) Round(ctx *Context, inbox []Envelope) { ctx.WakeAt(ctx.Round() + 1) }

func TestRoundLimit(t *testing.T) {
	g := graph.Ring(4)
	nodes := []Node{&spinner{}, &spinner{}, &spinner{}, &spinner{}}
	net, err := NewNetwork(g, nodes, Options{MaxRounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	counters, err := net.Run(1)
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("got %v, want ErrRoundLimit", err)
	}
	if counters.Rounds != 10 {
		t.Fatalf("rounds=%d, want 10", counters.Rounds)
	}
}

func TestNodeCountMismatch(t *testing.T) {
	g := graph.Ring(4)
	if _, err := NewNetwork(g, []Node{&spinner{}}, Options{}); err == nil {
		t.Fatal("mismatched node count accepted")
	}
}

func TestFaultHookDropsMessages(t *testing.T) {
	g := graph.Ring(8)
	progs := make([]*floodNode, g.N())
	nodes := make([]Node, g.N())
	for i := range progs {
		progs[i] = &floodNode{}
		nodes[i] = progs[i]
	}
	// Drop everything: the flood never spreads and all nodes keep their id.
	opts := Options{
		FaultHook: func(round int64, from, to graph.NodeID, m wire.Message) (wire.Message, bool) {
			return m, false
		},
	}
	net, err := NewNetwork(g, nodes, opts)
	if err != nil {
		t.Fatal(err)
	}
	counters, err := net.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if counters.Messages != 0 {
		t.Fatalf("dropped messages were counted: %d", counters.Messages)
	}
	for i := 1; i < len(progs); i++ {
		if progs[i].value != int32(i) {
			t.Fatalf("node %d received a flood despite drops", i)
		}
	}

	// A stateful hook that drops every third message it sees: any call out
	// of global sender order changes which messages are dropped. The
	// dense-sweep leg must drop exactly the messages the event-driven
	// one-port leg drops and meter the same execution; the sendports leg
	// sends each fan-out as one SendPorts record, which delivery must expand
	// into the same per-edge hook calls.
	type call struct {
		round    int64
		from, to graph.NodeID
		m        wire.Message
	}
	g = graph.GNP(80, 0.2, rng.New(3))
	run := func(t *testing.T, opts Options, form sendForm) ([]call, []call, *metrics.Counters, []*fanoutNode) {
		var calls, drops []call
		opts.FaultHook = func(round int64, from, to graph.NodeID, m wire.Message) (wire.Message, bool) {
			calls = append(calls, call{round, from, to, m})
			if len(calls)%3 == 0 {
				drops = append(drops, call{round, from, to, m})
				return m, false
			}
			return m, true
		}
		progs, nodes := newFanout(g.N(), form)
		net, err := NewNetwork(g, nodes, opts)
		if err != nil {
			t.Fatal(err)
		}
		counters, err := net.Run(5)
		if err != nil {
			t.Fatal(err)
		}
		return calls, drops, counters, progs
	}
	refCalls, refDrops, ref, refProgs := run(t, Options{}, formOnePort)
	if len(refDrops) == 0 || ref.Messages == 0 {
		t.Fatalf("hook dropped %d and delivered %d messages; want both nonzero", len(refDrops), ref.Messages)
	}
	for _, leg := range []struct {
		name string
		opts Options
		form sendForm
	}{
		{"dense", Options{DenseSweep: true}, formOnePort},
		{"sendports", Options{}, formSendPorts},
	} {
		t.Run(leg.name, func(t *testing.T) {
			calls, drops, got, progs := run(t, leg.opts, leg.form)
			if !reflect.DeepEqual(calls, refCalls) {
				t.Fatalf("hook saw %d calls, the one-port reference saw %d, or a different sequence", len(calls), len(refCalls))
			}
			if !reflect.DeepEqual(drops, refDrops) {
				t.Fatalf("dropped %d messages, the reference dropped %d, or a different set", len(drops), len(refDrops))
			}
			if leg.opts.DenseSweep {
				// The schedule-dependent counters differ by design.
				got.Invocations, got.RoundsSkipped = ref.Invocations, ref.RoundsSkipped
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("counters differ from the reference:\n got %v\nwant %v", got, ref)
			}
			for v := range progs {
				if !reflect.DeepEqual(progs[v].log, refProgs[v].log) {
					t.Fatalf("node %d inbox sequence differs from the reference", v)
				}
			}
		})
	}
}

func TestMemoryAndWorkMetered(t *testing.T) {
	g := graph.Ring(6)
	net, _ := newFloodNet(t, g, Options{})
	counters, err := net.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if counters.MemoryDistribution().Max != 4 {
		t.Fatalf("memory high-water %d, want 4", counters.MemoryDistribution().Max)
	}
	if counters.WorkDistribution().Total == 0 {
		t.Fatal("work not metered")
	}
}

func TestInboxSortedBySender(t *testing.T) {
	// Star center receives from all leaves in one round; inbox must arrive
	// sorted by sender id.
	g := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}})
	center := &inboxRecorder{}
	nodes := []Node{center, &leafSender{}, &leafSender{}, &leafSender{}, &leafSender{}}
	net, err := NewNetwork(g, nodes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(1); err != nil {
		t.Fatal(err)
	}
	if len(center.senders) != 4 {
		t.Fatalf("center heard %d senders, want 4", len(center.senders))
	}
	for i := 1; i < len(center.senders); i++ {
		if center.senders[i-1] >= center.senders[i] {
			t.Fatalf("inbox not sorted: %v", center.senders)
		}
	}
}

type leafSender struct{}

func (l *leafSender) Init(ctx *Context) {
	ctx.WakeAt(ctx.Round() + 1)
	ctx.Send(0, wire.Msg(wire.KindBroadcast, int32(ctx.ID())))
}
func (l *leafSender) Round(ctx *Context, inbox []Envelope) { ctx.Halt() }

type inboxRecorder struct {
	senders []graph.NodeID
}

func (r *inboxRecorder) Init(ctx *Context) {}
func (r *inboxRecorder) Round(ctx *Context, inbox []Envelope) {
	for _, env := range inbox {
		r.senders = append(r.senders, env.From)
	}
	ctx.Halt()
}

func TestRandIsPerNodeDeterministic(t *testing.T) {
	g := graph.Ring(4)
	collect := func() [][]uint64 {
		recs := make([]*randRecorder, 4)
		nodes := make([]Node, 4)
		for i := range recs {
			recs[i] = &randRecorder{}
			nodes[i] = recs[i]
		}
		net, err := NewNetwork(g, nodes, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Run(99); err != nil {
			t.Fatal(err)
		}
		out := make([][]uint64, 4)
		for i, r := range recs {
			out[i] = r.draws
		}
		return out
	}
	a, b := collect(), collect()
	for v := range a {
		for i := range a[v] {
			if a[v][i] != b[v][i] {
				t.Fatalf("node %d draw %d differs across identical runs", v, i)
			}
		}
	}
	if a[0][0] == a[1][0] {
		t.Fatal("different nodes produced identical first draws (streams not split)")
	}
}

type randRecorder struct {
	draws []uint64
}

func (r *randRecorder) Init(ctx *Context) { ctx.WakeAt(ctx.Round() + 1) }
func (r *randRecorder) Round(ctx *Context, inbox []Envelope) {
	ctx.WakeAt(ctx.Round() + 1)
	r.draws = append(r.draws, ctx.Rand().Uint64())
	if len(r.draws) >= 5 {
		ctx.Halt()
	}
}

// tickerNode wakes itself every `every` rounds by re-arming WakeAt(round +
// every) on each invocation, records the rounds it ran, and halts after
// `stops` invocations. It never receives messages, so its execution is
// driven purely by the wake schedule.
type tickerNode struct {
	every int64
	stops int
	runs  []int64
}

func (tk *tickerNode) Init(ctx *Context) { ctx.WakeAt(ctx.Round() + tk.every) }
func (tk *tickerNode) Round(ctx *Context, inbox []Envelope) {
	tk.runs = append(tk.runs, ctx.Round())
	if len(tk.runs) >= tk.stops {
		ctx.Halt()
		return
	}
	ctx.WakeAt(ctx.Round() + tk.every)
}

func TestWakeAtTickerSchedulesAndSkips(t *testing.T) {
	g := graph.Ring(4)
	progs := []*tickerNode{
		{every: 7, stops: 5},
		{every: 7, stops: 5},
		{every: 7, stops: 5},
		{every: 7, stops: 5},
	}
	nodes := make([]Node, len(progs))
	for i := range progs {
		nodes[i] = progs[i]
	}
	net, err := NewNetwork(g, nodes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	counters, err := net.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range progs {
		want := []int64{7, 14, 21, 28, 35}
		if len(p.runs) != len(want) {
			t.Fatalf("node %d ran at %v, want %v", i, p.runs, want)
		}
		for j := range want {
			if p.runs[j] != want[j] {
				t.Fatalf("node %d ran at %v, want %v", i, p.runs, want)
			}
		}
	}
	if counters.Rounds != 35 {
		t.Fatalf("rounds=%d, want 35 (skipped rounds must still be charged)", counters.Rounds)
	}
	if counters.RoundsSkipped != 30 {
		t.Fatalf("skipped=%d, want 30", counters.RoundsSkipped)
	}
	// Init (4) + 5 invocations per node.
	if counters.Invocations != 4+4*5 {
		t.Fatalf("invocations=%d, want 24", counters.Invocations)
	}
}

// wakeAtNode asks for a single future wake from Init and halts there.
type wakeAtNode struct {
	at  int64
	ran int64
}

func (w *wakeAtNode) Init(ctx *Context) { ctx.WakeAt(w.at) }
func (w *wakeAtNode) Round(ctx *Context, inbox []Envelope) {
	w.ran = ctx.Round()
	ctx.Halt()
}

func TestWakeAtIsExact(t *testing.T) {
	g := graph.Ring(3)
	progs := []*wakeAtNode{{at: 5}, {at: 900}, {at: 17}}
	nodes := []Node{progs[0], progs[1], progs[2]}
	net, err := NewNetwork(g, nodes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	counters, err := net.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range progs {
		if p.ran != p.at {
			t.Fatalf("node %d ran at %d, want %d", i, p.ran, p.at)
		}
	}
	if counters.Rounds != 900 {
		t.Fatalf("rounds=%d, want 900", counters.Rounds)
	}
	if counters.Invocations != 3+3 {
		t.Fatalf("invocations=%d, want 6", counters.Invocations)
	}
}

// sleeperNode asks for no wake-up at all; it can only be advanced by
// deliveries.
type sleeperNode struct{ got int }

func (s *sleeperNode) Init(ctx *Context) {}
func (s *sleeperNode) Round(ctx *Context, inbox []Envelope) {
	s.got += len(inbox)
	ctx.Halt()
}

func TestSleepingNetworkHitsRoundLimitLikeDenseSweep(t *testing.T) {
	// A network where nobody will ever act again must charge the full
	// budget and fail exactly like the dense sweep does with spinners.
	g := graph.Ring(4)
	for _, dense := range []bool{false, true} {
		nodes := make([]Node, 4)
		for i := range nodes {
			if dense {
				nodes[i] = &spinner{}
			} else {
				nodes[i] = &sleeperNode{}
			}
		}
		net, err := NewNetwork(g, nodes, Options{MaxRounds: 10, DenseSweep: dense})
		if err != nil {
			t.Fatal(err)
		}
		counters, err := net.Run(1)
		if !errors.Is(err, ErrRoundLimit) {
			t.Fatalf("dense=%v: got %v, want ErrRoundLimit", dense, err)
		}
		if counters.Rounds != 10 {
			t.Fatalf("dense=%v: rounds=%d, want 10", dense, counters.Rounds)
		}
	}
}

func TestMessageWakesSleeper(t *testing.T) {
	// Node 1 sleeps (event-driven, no wake); node 0 messages it at round 4.
	g := graph.Path(2)
	sl := &sleeperNode{}
	wk := &delayedSender{at: 4, target: 1}
	net, err := NewNetwork(g, []Node{wk, sl}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(1); err != nil {
		t.Fatal(err)
	}
	if sl.got != 1 {
		t.Fatalf("sleeper received %d messages, want 1", sl.got)
	}
}

type delayedSender struct {
	at     int64
	target graph.NodeID
}

func (d *delayedSender) Init(ctx *Context) { ctx.WakeAt(d.at) }
func (d *delayedSender) Round(ctx *Context, inbox []Envelope) {
	if ctx.Round() < d.at {
		return // a dense-sweep invocation before the wake-up is a no-op
	}
	ctx.Send(d.target, wire.Msg(wire.KindToken))
	ctx.Halt()
}

// silentNode never calls WakeAt. It records every round it runs in and
// halts on its first delivery.
type silentNode struct{ ran []int64 }

func (s *silentNode) Init(ctx *Context) { s.ran = append(s.ran, ctx.Round()) }
func (s *silentNode) Round(ctx *Context, inbox []Envelope) {
	s.ran = append(s.ran, ctx.Round())
	if len(inbox) > 0 {
		ctx.Halt()
	}
}

// TestNodeWithoutWakeIsMessageDriven pins the default activity contract: a
// node that never calls WakeAt runs at Init and afterwards only when a
// message is delivered to it, and the quiet rounds in between are skipped.
// The dense sweep invokes it every round to the same round count.
func TestNodeWithoutWakeIsMessageDriven(t *testing.T) {
	g := graph.Path(2)
	for _, tc := range []struct {
		dense                bool
		ran                  []int64
		skipped, invocations int64
	}{
		{dense: false, ran: []int64{0, 5}, skipped: 3, invocations: 4},
		{dense: true, ran: []int64{0, 1, 2, 3, 4, 5}, skipped: 0, invocations: 2 + 4 + 5},
	} {
		silent := &silentNode{}
		net, err := NewNetwork(g, []Node{&delayedSender{at: 4, target: 1}, silent}, Options{DenseSweep: tc.dense})
		if err != nil {
			t.Fatal(err)
		}
		counters, err := net.Run(1)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(silent.ran, tc.ran) {
			t.Fatalf("dense=%v: silent node ran in rounds %v, want %v", tc.dense, silent.ran, tc.ran)
		}
		if counters.Rounds != 5 || counters.RoundsSkipped != tc.skipped || counters.Invocations != tc.invocations {
			t.Fatalf("dense=%v: rounds=%d skipped=%d invocations=%d, want 5, %d, %d",
				tc.dense, counters.Rounds, counters.RoundsSkipped, counters.Invocations, tc.skipped, tc.invocations)
		}
	}
}

// pingPongNode bounces a token to its peer forever: pure message-driven
// steady-state traffic for the allocation test. form selects how the token
// is addressed: by id, or as a SendPorts over a one-port list.
type pingPongNode struct {
	peer  graph.NodeID
	form  sendForm
	ports []int32 // the peer's port
}

func (p *pingPongNode) Init(ctx *Context) {
	p.ports = []int32{int32(slices.Index(ctx.Neighbors(), p.peer))}
	if ctx.ID()%2 == 0 {
		p.send(ctx)
	}
}
func (p *pingPongNode) Round(ctx *Context, inbox []Envelope) {
	for range inbox {
		p.send(ctx)
	}
}

func (p *pingPongNode) send(ctx *Context) {
	m := wire.Msg(wire.KindToken, 1)
	switch p.form {
	case formSend:
		ctx.Send(p.peer, m)
	case formFlood:
		// Both ring neighbors flood the same payload here, and delivery
		// keeps one copy, so each node still sends once per round.
		ctx.SendPorts(ctx.AllPorts(), -1, wire.Msg(wire.KindRotation, 1))
	default:
		ctx.SendPorts(p.ports, -1, m)
	}
}

// TestPerRoundDeliveryZeroAllocs pins the engine's steady state at exactly
// zero allocations per round: inbox buckets, outbox records, receiver
// arenas, the bandwidth stamps and the wake heap are all recycled — whether
// nodes send by id or by port list, or flood copies that delivery coalesces.
func TestPerRoundDeliveryZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		form sendForm
	}{{"Send", formSend}, {"SendPorts", formSendPorts}, {"Flood", formFlood}} {
		t.Run(tc.name, func(t *testing.T) { testPerRoundDeliveryZeroAllocs(t, tc.form) })
	}
}

func testPerRoundDeliveryZeroAllocs(t *testing.T, form sendForm) {
	g := graph.Ring(64)
	nodes := make([]Node, g.N())
	for v := 0; v < g.N(); v++ {
		peer := graph.NodeID((v + 1) % g.N())
		if v%2 == 1 {
			peer = graph.NodeID((v - 1 + g.N()) % g.N())
		}
		nodes[v] = &pingPongNode{peer: peer, form: form}
	}
	net, err := NewNetwork(g, nodes, Options{MaxRounds: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	sh := net.shard
	sh.Begin(1)
	ex := wholeNetwork{sh}
	if _, err := ex.Fuse(-1, 0, true); err != nil {
		t.Fatal(err)
	}
	round := int64(0)
	stepOnce := func() {
		round++
		if _, err := ex.Fuse(round-1, round, false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ { // warm up buffers to steady state
		stepOnce()
	}
	if avg := testing.AllocsPerRun(200, stepOnce); avg != 0 {
		t.Fatalf("per-round delivery allocates %.2f times per round", avg)
	}
	if sh.live == 0 {
		t.Fatal("ping-pong network unexpectedly halted")
	}
}
