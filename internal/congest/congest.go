// Package congest simulates the synchronous CONGEST model of distributed
// computing (Peleg 2000), the model of the paper. An n-node network runs in
// lock-step rounds; in each round every node may send one small message
// (O(log n) bits) along each incident edge, and messages sent in round r are
// delivered at the start of round r+1.
//
// The simulator enforces the model's constraints — messages may only travel
// along graph edges and may not exceed the per-edge bandwidth — and meters
// rounds, messages, bits, per-node memory and per-node computation via
// package metrics.
//
// # Activity contract (event-driven execution)
//
// The engine is event-driven: a node's Round method is invoked in round r
// only if (a) at least one message was delivered to it this round, (b) it
// scheduled a wake-up for r via Context.WakeAt, or (c) r is the Init round
// (round 0, where every node runs). When the whole network is quiet — no
// messages in flight and no wake-up due — the engine skips directly to the
// next scheduled wake-up, charging the skipped rounds to
// metrics.Counters so round accounting is identical to a dense sweep. A
// round's cost is therefore O(active nodes + delivered messages) instead of
// O(n).
//
// A node that never calls WakeAt is message-driven after Init: it runs
// again only when a message reaches it. Each invocation must arrange the
// next wake-up it needs; WakeAt(ctx.Round()+1) is how a node asks to run
// the next round as well. Options.DenseSweep invokes every live node every
// round; it is the differential-testing oracle, and a correct program
// behaves byte-identically under both modes because an invocation with an
// empty inbox outside its scheduled wake-ups must be a no-op.
//
// The same holds per message kind: a scan that consumes only certain kinds
// is a no-op when the inbox holds none of them, and Context.Received tells
// the node so without a scan. Delivery keeps a kind mask per inbox, so a
// program that hands its whole inbox to several sub-protocols pays only for
// the messages each one consumes, not one pass over the inbox per
// sub-protocol.
//
// # Execution
//
// Shard is the one executor: it runs a contiguous vertex range over one
// per-node state arena. A Network is a single Shard spanning every vertex;
// the distributed engine (internal/dist) runs K Shards behind transports.
// RunRounds is the one round loop, driving either through the Fused
// interface.
//
// # Sending
//
// A node sends only on its incident edges, and every send is validated.
// There are two send forms, and a cached form of the second. Send(to, m)
// names one edge by the neighbor's id and checks it with a binary search of
// the node's sorted neighbor list; point sends to a known id, such as a
// reply to Envelope.From, use it.
// SendPorts(ports, except, m) is a flood: it sends m on every listed port
// (the index of a neighbor in Neighbors()) whose neighbor is not except,
// and checks each port with a bounds check. AllPorts() is the shared
// read-only [0, Degree()) list for floods over every incident edge; a flood
// inside a subgraph keeps its own port list. A program that floods one port
// list many times builds a Scope of it once (Context.Scope checks each port
// and keeps the neighbor ids) and floods with SendScope(scope, except, m),
// which copies the ids instead of reading every port's neighbor again; a
// Scope is valid only for the node, the shard and the run that built it.
// Any failure records ErrNotNeighbor.
//
// All three append to the same outbox through one record append: an
// outbox entry is a Record — the sender, the message and its receivers —
// so a flood is one entry however many edges it covers. The receiver ids
// are copied into the node's per-invocation arena at call time, so the
// caller may reuse its port slice at once; consecutive sends of an equal
// message extend the previous record. Records change only how traffic is
// carried, never what is metered: delivery walks each record in send
// order, and message and bit counts, the bandwidth check, halted drops and
// FaultHook calls stay per edge. Which send form a program uses never
// changes an execution. Delivery stamps an edge's bandwidth only where the
// edge can overrun: a record that is its sender's only one in the round,
// fits the budget and has strictly ascending receivers cannot (see
// Shard.Deliver).
//
// A flood reaches a node once from every neighbor that forwards it, and a
// flood kind's programs act on the first copy only. So for the kinds wire
// declares idempotent floods (wire.Kind.Flood) delivery still meters every
// copy, but appends only the first copy of each payload a receiver gets in
// one round, in sender order: later identical copies would be read and
// dropped by the program anyway. Payloads compare after the FaultHook, so a
// corrupted copy is never merged with an intact one. A hook-free copy whose
// payload token (one per distinct flood payload per Deliver) matches the
// one its receiver's mailbox keeps is a duplicate at once; any other copy
// is compared with the receiver's inbox.
//
// Determinism: a run is a pure function of (graph, node programs, seed).
// Each node receives its own RNG stream split from the run seed, inboxes
// are assembled in sender-id order, and a Shard invokes its active nodes
// one after another on the caller's goroutine in local-id order, so the
// event-driven schedule, the dense sweep and every sharding produce
// identical executions. Parallelism comes only from running several Shards
// (internal/dist); a round holds too little work to pay for a goroutine
// fan-out inside one.
package congest

import (
	"context"
	"errors"
	"fmt"

	"dhc/internal/graph"
	"dhc/internal/metrics"
	"dhc/internal/rng"
	"dhc/internal/wire"
)

// Errors returned by Run. Callers match with errors.Is.
var (
	// ErrRoundLimit means the algorithm did not terminate within MaxRounds.
	ErrRoundLimit = errors.New("congest: round limit exceeded")
	// ErrBandwidth means a node tried to push more bits over one edge in
	// one round than the model allows.
	ErrBandwidth = errors.New("congest: per-edge bandwidth exceeded")
	// ErrNotNeighbor means a node tried to message a non-neighbor.
	ErrNotNeighbor = errors.New("congest: send to non-neighbor")
)

// Envelope is a delivered message together with its sender.
type Envelope struct {
	From graph.NodeID
	Msg  wire.Message
}

// Node is one processor's program. Implementations keep all their state in
// the struct; the simulator calls Init once before round 1 and then Round
// per active round (see the package-level activity contract) until the node
// halts.
type Node interface {
	// Init runs before the first round; the node may send initial messages
	// and declare its wake-up discipline.
	Init(ctx *Context)
	// Round processes the messages delivered this round and may send more.
	// Under event-driven execution it runs only on delivery or at a
	// scheduled wake-up.
	Round(ctx *Context, inbox []Envelope)
}

// Context is a node's per-round handle to the simulator. It is only valid
// during the Init or Round call that received it.
type Context struct {
	sh     *Shard
	id     graph.NodeID
	round  int64
	rng    *rng.Source
	halted bool
	err    error
	// kinds is the kind mask of this call's inbox (see Received).
	kinds uint32

	// This call's sends: outbox holds one Record per flood (or run of equal
	// sends), whose receivers are copied into ids; last is the ids offset
	// of the final record's receivers, so an equal send can extend it.
	outbox []Record
	ids    []graph.NodeID
	last   int

	// wakeAt is the earliest wake round requested this call (0 = none),
	// consumed by the scheduler.
	wakeAt int64

	// per-call metric deltas, merged by the shard
	memWords int64
	workOps  int64
}

// ID returns this node's identifier.
func (c *Context) ID() graph.NodeID { return c.id }

// Round returns the current round number (0 during Init).
func (c *Context) Round() int64 { return c.round }

// N returns the network size, which the paper assumes is global knowledge.
func (c *Context) N() int { return c.sh.g.N() }

// Degree returns this node's degree.
func (c *Context) Degree() int { return c.sh.g.Degree(c.id) }

// Neighbors returns this node's neighbor list (shared; do not modify),
// sorted by id. A neighbor's index in this list is its port: the name
// SendPorts addresses it by.
func (c *Context) Neighbors() []graph.NodeID { return c.sh.g.Neighbors(c.id) }

// HasNeighbor reports whether v is adjacent.
func (c *Context) HasNeighbor(v graph.NodeID) bool { return c.sh.g.HasEdge(c.id, v) }

// Rand returns this node's private deterministic RNG stream.
func (c *Context) Rand() *rng.Source { return c.rng }

// Received reports whether this call's inbox holds a message of kind k. It
// is exact for every defined kind: an inbox scan that consumes only kinds
// for which Received is false can return at once, which is what keeps a
// node's receive cost proportional to the messages it actually consumes.
// Init sees no kinds. Kinds 31 and above, which only a FaultHook can
// produce, share the mask's top bit, so Received may report such a kind
// that is absent, never the reverse.
func (c *Context) Received(k wire.Kind) bool { return c.kinds&kindBit(k) != 0 }

// kindBit is k's bit in an inbox kind mask. Defined kinds each own a bit;
// undefined kinds a FaultHook might produce fold into the top bit, which no
// defined kind uses.
func kindBit(k wire.Kind) uint32 { return 1 << min(k, 31) }

// Every defined kind must own a bit of the mask below the shared top bit.
const _ = uint8(31 - wire.NumKinds)

// Send queues a message to neighbor `to` for delivery next round. The target
// is validated by a binary search of this node's neighbor list, which suits
// point sends (a reply to a sender, a tree parent, a cycle neighbor); floods
// over incident edges should use SendPorts instead. Sending to a
// non-neighbor records ErrNotNeighbor and aborts the run after this round.
func (c *Context) Send(to graph.NodeID, m wire.Message) {
	if !c.sh.g.HasEdge(c.id, to) {
		c.fail(fmt.Errorf("%w: %d -> %d (%s)", ErrNotNeighbor, c.id, to, m))
		return
	}
	start := len(c.ids)
	c.ids = append(c.ids, to)
	c.push(start, m)
}

// SendPorts floods m on every listed port whose neighbor is not except
// (pass -1 to exclude none), in list order, for delivery next round. A port
// is the index of the neighbor in Neighbors(). It is the Send loop over the
// ports' neighbors as one outbox record: the receiver ids are copied at
// call time, so ports may be reused as soon as it returns, and a duplicated
// port sends twice exactly as the loop would. Each port is bounds-checked
// instead of searched; an out-of-range one records ErrNotNeighbor naming
// the port, queues nothing from this call, and aborts the run after this
// round, exactly like Send to a non-neighbor. Delivery still meters every
// edge separately.
func (c *Context) SendPorts(ports []int32, except graph.NodeID, m wire.Message) {
	nbrs := c.Neighbors()
	ids := c.ids
	start := len(ids)
	for _, p := range ports {
		if uint32(p) >= uint32(len(nbrs)) {
			c.ids = ids[:start]
			c.failPort(int(p), len(nbrs), m)
			return
		}
		if to := nbrs[p]; to != except {
			ids = append(ids, to)
		}
	}
	c.ids = ids
	c.push(start, m)
}

// Scope is one node's flood scope as checked receiver ids: the neighbors a
// port list names, in list order. A program that floods over the same port
// list many times builds the Scope once and floods it with SendScope, which
// copies the ids instead of looking every port up in the neighbor list
// again. It is valid only for the node, the shard and the run that built
// it.
type Scope struct {
	owner graph.NodeID
	run   uint64
	ids   []graph.NodeID
}

// Scope returns the Scope of ports, reusing old's storage. An out-of-range
// port records ErrNotNeighbor naming the port, as SendPorts does, and yields
// a Scope no SendScope accepts.
func (c *Context) Scope(ports []int32, old Scope) Scope {
	nbrs := c.Neighbors()
	ids := old.ids[:0]
	for _, p := range ports {
		if uint32(p) >= uint32(len(nbrs)) {
			c.fail(fmt.Errorf("%w: %d -> port %d of %d (scope)", ErrNotNeighbor, c.id, p, len(nbrs)))
			return Scope{ids: ids[:0]}
		}
		ids = append(ids, nbrs[p])
	}
	return Scope{owner: c.id, run: c.sh.run, ids: ids}
}

// SendScope is SendPorts over the port list s was built from: it floods m
// to every receiver of s that is not except, in order, as one outbox
// record. A Scope another node built, or that a previous run or another
// shard or network built, records ErrNotNeighbor and queues nothing.
func (c *Context) SendScope(s Scope, except graph.NodeID, m wire.Message) {
	if s.owner != c.id || s.run != c.sh.run {
		c.fail(fmt.Errorf("%w: %d floods a scope it did not build this run (%s)", ErrNotNeighbor, c.id, m))
		return
	}
	ids := c.ids
	start := len(ids)
	for _, to := range s.ids {
		if to != except {
			ids = append(ids, to)
		}
	}
	c.ids = ids
	c.push(start, m)
}

// AllPorts returns the ports [0, Degree()) of every incident edge, for
// SendPorts floods over all of them. The slice is shared and read-only.
func (c *Context) AllPorts() []int32 { return c.sh.ports[:c.Degree()] }

// push is the one record append behind Send and SendPorts: it
// queues m to the receivers ids[start:]. A send of the message the last
// record carries extends that record, since its receivers end at start.
func (c *Context) push(start int, m wire.Message) {
	if len(c.ids) == start {
		return
	}
	if k := len(c.outbox) - 1; k >= 0 && c.outbox[k].Msg == m {
		c.outbox[k].To = c.ids[c.last:len(c.ids):len(c.ids)]
		return
	}
	c.last = start
	c.outbox = append(c.outbox, Record{From: c.id, Msg: m, To: c.ids[start:len(c.ids):len(c.ids)]})
}

// failPort records an out-of-range port as ErrNotNeighbor.
func (c *Context) failPort(port, deg int, m wire.Message) {
	c.fail(fmt.Errorf("%w: %d -> port %d of %d (%s)", ErrNotNeighbor, c.id, port, deg, m))
}

// fail records the invocation's first send error.
func (c *Context) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Halt marks this node finished; it will receive no further Round calls.
// The run ends when every node has halted.
func (c *Context) Halt() { c.halted = true }

// Halted reports whether Halt was called during this invocation, so shared
// wake-arming helpers can skip scheduling for a finished node.
func (c *Context) Halted() bool { return c.halted }

// WakeAt guarantees this node is invoked no later than the given absolute
// round, even if no message is delivered to it. Requests for the current
// round or earlier mean "next round". Multiple calls keep the earliest
// round; an earlier wake-up already pending is never postponed.
func (c *Context) WakeAt(round int64) {
	if round <= c.round {
		round = c.round + 1
	}
	if c.wakeAt == 0 || round < c.wakeAt {
		c.wakeAt = round
	}
}

// reset prepares a persistent context for this round's Init/Round call,
// keeping the outbox's and the receiver arena's backing arrays.
func (c *Context) reset(round int64) {
	c.round = round
	c.outbox, c.ids = c.outbox[:0], c.ids[:0]
	c.halted = false
	c.err = nil
	c.wakeAt = 0
	c.memWords = 0
	c.workOps = 0
	c.kinds = 0
}

// ObserveMemory reports the node's current retained state size in words; the
// simulator keeps the high-water mark per node.
func (c *Context) ObserveMemory(words int64) {
	if words > c.memWords {
		c.memWords = words
	}
}

// AddWork charges local computation to this node, for load-balance metrics.
func (c *Context) AddWork(ops int64) { c.workOps += ops }

// Runner executes a bound network: Reset binds a graph and one program per
// vertex, RunContext runs the execution to completion. *Network is the
// in-process implementation; the distributed engine (internal/dist) provides
// one that partitions the vertex set across shard workers behind real
// transports. It is the executor parameter of Session.Run: the caller owns
// the executor, the session only binds its programs to it and extracts
// results, so one session drives either engine without a type switch. The two implementations are held byte-identical by differential
// tests and the golden fixtures.
type Runner interface {
	Reset(g *graph.Graph, nodes []Node, opts Options) error
	RunContext(ctx context.Context, seed uint64) (*metrics.Counters, error)
}

// Options configures a Network.
type Options struct {
	// BandwidthBits is the per-edge per-direction per-round budget.
	// Zero selects the default 8 * ceil(log2 n) bits, a constant number of
	// node ids — the standard CONGEST allowance.
	BandwidthBits int64
	// MaxRounds aborts runs that fail to terminate. Zero selects
	// 64 * n * ceil(log2 n) + 1024, comfortably above every algorithm's
	// bound on its intended inputs.
	MaxRounds int64
	// DenseSweep disables event-driven scheduling: every live node is
	// invoked every round and no rounds are skipped, exactly the historical
	// O(n)-per-round sweep. It is the differential-testing oracle for the
	// event-driven engine — both modes must produce byte-identical cycles,
	// rounds, and message/bit counters — and only tests set it. The
	// distributed engine refuses it.
	DenseSweep bool
	// FaultHook, if non-nil, intercepts every delivery: return false to
	// drop the message, or return a mutated copy. Used by robustness tests.
	// The Shard calls it while delivering, once per edge (a flood record is
	// expanded first), on the run's goroutine and in global sender order. A
	// dropped message is neither metered nor delivered. The distributed
	// engine refuses it: a function value cannot cross a process boundary.
	FaultHook func(round int64, from, to graph.NodeID, m wire.Message) (wire.Message, bool)
	// Progress, if non-nil, is called with the charged round total at the
	// engine's amortized checkpoint (every ctxCheckEvery executed rounds,
	// the same cadence cancellation is polled at). It observes only — a run
	// is byte-identical with or without it — and must be fast: it runs on
	// the engine's round loop.
	Progress func(rounds int64)
}

// Network binds node programs to a graph and executes rounds in process: it
// is one Shard spanning every vertex, driven by RunRounds. A Network is
// reusable: Reset rebinds it to a new graph and program set, and runs on a
// same-sized graph recycle the Shard's arena (persistent node Contexts,
// inbox buckets, the wake-schedule heap, the outbox buffers, the bandwidth
// stamps) instead of reallocating it, which is what makes repeated solver
// trials cheap. A Network is not safe for concurrent runs.
type Network struct {
	shard *Shard
}

var _ Runner = (*Network)(nil)

// NewNetwork creates a network over g with one Node program per vertex.
// len(nodes) must equal g.N().
func NewNetwork(g *graph.Graph, nodes []Node, opts Options) (*Network, error) {
	n := &Network{}
	if err := n.Reset(g, nodes, opts); err != nil {
		return nil, err
	}
	return n, nil
}

// Reset rebinds the network to a new graph and program set, normalizing opts
// exactly like NewNetwork. When the vertex count is unchanged the Shard and
// its arena are kept, so the next run reuses every engine-side allocation; a
// size change builds a new one.
func (n *Network) Reset(g *graph.Graph, nodes []Node, opts Options) error {
	if len(nodes) != g.N() {
		return fmt.Errorf("congest: %d node programs for %d vertices", len(nodes), g.N())
	}
	opts = NormalizeOptions(opts, g.N())
	if s := n.shard; s != nil && s.g.N() == g.N() {
		s.g, s.nodes, s.opts = g, nodes, opts
		return nil
	}
	n.shard = newShard(g, nodes, opts, 0, g.N())
	return nil
}

// NormalizeOptions fills the size-derived defaults of opts for an n-vertex
// network: the CONGEST bandwidth budget and the round watchdog.
// Network.Reset applies it; the distributed engine's coordinator and shard
// workers call it too, so every execution engine derives identical budgets
// from identical inputs — a precondition for byte-identical runs.
func NormalizeOptions(opts Options, n int) Options {
	codec := wire.NewCodec(n)
	if opts.BandwidthBits == 0 {
		opts.BandwidthBits = int64(8 * codec.IDBits)
	}
	if opts.MaxRounds == 0 {
		opts.MaxRounds = 64*int64(n)*int64(codec.IDBits) + 1024
	}
	return opts
}

// Run executes the network until every node halts. It returns the metered
// counters; on failure the counters reflect the partial run.
func (n *Network) Run(seed uint64) (*metrics.Counters, error) {
	return n.RunContext(context.Background(), seed)
}

// RunContext is Run with cooperative cancellation: ctx is polled at the
// amortized checkpoint (every ctxCheckEvery executed rounds), and a cancelled
// run stops between rounds and returns ctx's error (matchable with errors.Is
// against context.Canceled / context.DeadlineExceeded) with the counters of
// the partial run. Cancellation never corrupts the network: the next run
// resets the arena, so an uncancelled rerun of the same seed is byte-identical
// to a run that was never cancelled.
func (n *Network) RunContext(ctx context.Context, seed uint64) (*metrics.Counters, error) {
	s := n.shard
	s.Begin(seed)
	err := RunRounds(ctx, wholeNetwork{s}, s.opts, s.counters)
	return s.counters, err
}

// wholeNetwork drives a Shard spanning every vertex through RunRounds. With
// no exchange to fuse a delivery into, it delivers each round as soon as the
// round is stepped, so deliverRound was always delivered by the previous
// call and Finish has nothing left to flush. Delivering eagerly keeps the
// activity decision exact: it sees only the messages FaultHook let through.
type wholeNetwork struct{ s *Shard }

func (w wholeNetwork) Fuse(_, stepRound int64, isInit bool) (Activity, error) {
	_, rep, err := w.s.Step(stepRound, isInit)
	if err == nil {
		err = w.s.Deliver(stepRound, nil)
	}
	return Activity{Live: rep.Live, Messages: len(w.s.msgActive) > 0, Wake: rep.EarliestWake, WakeOK: rep.WakeOK}, err
}

func (wholeNetwork) Finish(int64) error { return nil }
