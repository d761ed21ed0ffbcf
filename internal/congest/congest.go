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
// The default executor is event-driven: a node's Round method is invoked in
// round r only if (a) at least one message was delivered to it this round,
// (b) it scheduled a wake-up covering r via Context.WakeAt/WakeEvery, or
// (c) r is the Init round (round 0, where every node runs). When the whole
// network is quiet — no messages in flight and no wake-up due — the engine
// skips directly to the next scheduled wake-up, charging the skipped rounds
// to metrics.Counters so round accounting is identical to a dense sweep.
// A round's cost is therefore O(active nodes + delivered messages) instead
// of O(n).
//
// A node program that never calls a wake API is treated as legacy-dense: it
// is invoked every round (and, while any such node is live, the engine
// never skips rounds). Calling WakeAt or WakeEvery — including WakeEvery(0),
// the explicit "message-driven only" declaration — permanently opts the node
// into event-driven scheduling: from then on it is invoked only on delivery
// or at its scheduled wake-ups, so each invocation must arrange the next
// wake-up it needs. Options.DenseSweep restores the dense sweep for every
// node; it is the differential-testing oracle, and a correct program behaves
// byte-identically under both modes because an invocation with an empty
// inbox outside its scheduled wake-ups must be a no-op.
//
// # Sending
//
// A node sends only on its incident edges, and every send is validated.
// Send(to, m) names the edge by the neighbor's id and checks it with a
// binary search of the node's sorted neighbor list. SendPort(p, m) names it
// by port, the index p of the neighbor in Neighbors(), and checks it with a
// bounds check. Both append to the same outbox, so which one a program uses
// never changes an execution. Fan-out loops (floods over all or a
// precomputed subset of the incident edges) keep port lists and use
// SendPort; point sends to a known id, such as a reply to Envelope.From,
// use Send. Either failure records ErrNotNeighbor.
//
// Determinism: a run is a pure function of (graph, node programs, seed).
// Each node receives its own RNG stream split from the run seed, inboxes
// are assembled in sender-id order, and the active set is derived
// single-threaded from deliveries and the wake schedule, so the sequential
// executor, the parallel executor, the event-driven schedule and the dense
// sweep all produce identical executions.
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
	net    *Network
	id     graph.NodeID
	round  int64
	rng    *rng.Source
	outbox []routedMsg
	halted bool
	err    error

	// per-call wake-up requests, consumed by the scheduler
	wakeAt       int64 // earliest requested wake round (0 = none this call)
	wakeEvery    int64 // requested standing interval (meaningful iff wakeEverySet)
	wakeEverySet bool
	wakeDeclared bool // any wake API call this invocation

	// per-call metric deltas, merged by the executor
	memWords int64
	workOps  int64
}

type routedMsg struct {
	from, to graph.NodeID
	msg      wire.Message
}

// ID returns this node's identifier.
func (c *Context) ID() graph.NodeID { return c.id }

// Round returns the current round number (0 during Init).
func (c *Context) Round() int64 { return c.round }

// N returns the network size, which the paper assumes is global knowledge.
func (c *Context) N() int { return c.net.g.N() }

// Degree returns this node's degree.
func (c *Context) Degree() int { return c.net.g.Degree(c.id) }

// Neighbors returns this node's neighbor list (shared; do not modify),
// sorted by id. A neighbor's index in this list is its port: the name
// SendPort addresses it by.
func (c *Context) Neighbors() []graph.NodeID { return c.net.g.Neighbors(c.id) }

// HasNeighbor reports whether v is adjacent.
func (c *Context) HasNeighbor(v graph.NodeID) bool { return c.net.g.HasEdge(c.id, v) }

// Rand returns this node's private deterministic RNG stream.
func (c *Context) Rand() *rng.Source { return c.rng }

// Send queues a message to neighbor `to` for delivery next round. The target
// is validated by a binary search of this node's neighbor list, which suits
// point sends (a reply to a sender, a tree parent, a cycle neighbor); fan-out
// loops over incident edges should use SendPort instead. Sending to a
// non-neighbor records ErrNotNeighbor and aborts the run after this round.
func (c *Context) Send(to graph.NodeID, m wire.Message) {
	if !c.net.g.HasEdge(c.id, to) {
		c.fail(fmt.Errorf("%w: %d -> %d (%s)", ErrNotNeighbor, c.id, to, m))
		return
	}
	c.push(to, m)
}

// SendPort queues a message on this node's incident edge number port — the
// index of the neighbor in Neighbors() — for delivery next round. The port
// is validated by a bounds check instead of Send's search, so a flood over
// a precomputed port list costs O(1) per message. An out-of-range port
// records ErrNotNeighbor and aborts the run after this round, exactly like
// Send to a non-neighbor. Apart from how the target is named, the two are
// indistinguishable: same outbox, delivery order, wire encoding and metering.
func (c *Context) SendPort(port int, m wire.Message) {
	nbrs := c.Neighbors()
	if uint(port) >= uint(len(nbrs)) {
		c.fail(fmt.Errorf("%w: %d -> port %d of %d (%s)", ErrNotNeighbor, c.id, port, len(nbrs), m))
		return
	}
	c.push(nbrs[port], m)
}

// push is the one outbox append site behind Send and SendPort.
func (c *Context) push(to graph.NodeID, m wire.Message) {
	c.outbox = append(c.outbox, routedMsg{from: c.id, to: to, msg: m})
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
// round; an earlier wake-up already pending is never postponed. The first
// wake-API call permanently opts the node into event-driven scheduling (see
// the package doc).
func (c *Context) WakeAt(round int64) {
	c.wakeDeclared = true
	if round <= c.round {
		round = c.round + 1
	}
	if c.wakeAt == 0 || round < c.wakeAt {
		c.wakeAt = round
	}
}

// WakeEvery installs a standing wake-up: at most `interval` rounds pass
// between invocations of this node (WakeEvery(1) keeps the node dense).
// interval <= 0 clears the standing wake-up — WakeEvery(0) is the explicit
// "message-driven only" declaration, opting the node into event-driven
// scheduling without scheduling any wake-up. The interval persists until
// changed by a later call.
func (c *Context) WakeEvery(interval int64) {
	c.wakeDeclared = true
	if interval < 0 {
		interval = 0
	}
	c.wakeEverySet = true
	c.wakeEvery = interval
}

// WakeAtOrSleep arms a wake-up at round w when w > 0 and otherwise declares
// the node message-driven (WakeEvery(0)) — the canonical re-arm idiom for
// programs whose nextWake helpers return 0 to mean "no self-scheduled work".
func (c *Context) WakeAtOrSleep(w int64) {
	if w > 0 {
		c.WakeAt(w)
	} else {
		c.WakeEvery(0)
	}
}

// reset prepares a persistent context for this round's Init/Round call,
// keeping the outbox's backing array.
func (c *Context) reset(round int64) {
	c.round = round
	c.outbox = c.outbox[:0]
	c.halted = false
	c.err = nil
	c.wakeAt = 0
	c.wakeEvery = 0
	c.wakeEverySet = false
	c.wakeDeclared = false
	c.memWords = 0
	c.workOps = 0
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
// transports. Drivers program against this seam so a session can swap
// execution engines without touching algorithm code — and the two
// implementations are held byte-identical by differential tests.
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
	// Workers > 1 enables the parallel executor with that many goroutines.
	Workers int
	// DenseSweep disables event-driven scheduling: every live node is
	// invoked every round and no rounds are skipped, exactly the historical
	// O(n)-per-round sweep. It is the differential-testing oracle for the
	// event-driven engine — both modes must produce byte-identical cycles,
	// rounds, and message/bit counters.
	DenseSweep bool
	// FaultHook, if non-nil, intercepts every delivery: return false to
	// drop the message, or return a mutated copy. Used by robustness tests.
	FaultHook func(round int64, from, to graph.NodeID, m wire.Message) (wire.Message, bool)
	// Progress, if non-nil, is called with the charged round total at the
	// engine's amortized checkpoint (every ctxCheckEvery executed rounds,
	// the same cadence cancellation is polled at). It observes only — a run
	// is byte-identical with or without it — and must be fast: it runs on
	// the engine's round loop.
	Progress func(rounds int64)
}

// Network binds node programs to a graph and executes rounds. A Network is
// reusable: Reset rebinds it to a new graph and program set, and runs on a
// same-sized graph recycle the per-run arena (persistent node Contexts, inbox
// buckets, the wake-schedule heap, the outbox concatenation buffer, the
// bandwidth stamps) instead of reallocating it, which is what makes repeated
// solver trials cheap. A Network is not safe for concurrent runs.
type Network struct {
	g     *graph.Graph
	nodes []Node
	codec wire.Codec
	opts  Options
	// arena is the reusable per-run storage; nil until the first run, and
	// dropped when Reset changes the network size.
	arena *runState
}

var _ Runner = (*Network)(nil)

// ctxCheckEvery is the engine's amortized checkpoint cadence: cancellation is
// polled and Progress fired once per this many executed rounds, so the hot
// loop pays one context poll per batch instead of per round and a run that is
// never cancelled stays byte-identical to one run without a context.
const ctxCheckEvery = 64

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
// exactly like NewNetwork. When the vertex count is unchanged the codec and
// the per-run arena are kept, so the next run reuses every engine-side
// allocation; a size change drops both.
func (n *Network) Reset(g *graph.Graph, nodes []Node, opts Options) error {
	if len(nodes) != g.N() {
		return fmt.Errorf("congest: %d node programs for %d vertices", len(nodes), g.N())
	}
	if n.g == nil || n.g.N() != g.N() {
		n.codec = wire.NewCodec(g.N())
		n.arena = nil
	}
	n.g, n.nodes, n.opts = g, nodes, NormalizeOptions(opts, g.N())
	return nil
}

// NormalizeOptions fills the size-derived defaults of opts for an n-vertex
// network: the CONGEST bandwidth budget, the round watchdog, and the worker
// floor. Network.Reset applies it; the distributed engine's coordinator and
// shard workers call it too, so every execution engine derives identical
// budgets from identical inputs — a precondition for byte-identical runs.
func NormalizeOptions(opts Options, n int) Options {
	codec := wire.NewCodec(n)
	if opts.BandwidthBits == 0 {
		opts.BandwidthBits = int64(8 * codec.IDBits)
	}
	if opts.MaxRounds == 0 {
		opts.MaxRounds = 64*int64(n)*int64(codec.IDBits) + 1024
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	return opts
}

// Codec returns the codec sizing messages for this network.
func (n *Network) Codec() wire.Codec { return n.codec }

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
	state, exec, counters := n.newRun(seed)
	if err := ctx.Err(); err != nil {
		return counters, fmt.Errorf("congest: run canceled before round 0: %w", err)
	}

	// Init phase (round 0).
	if err := exec.step(0, true); err != nil {
		return counters, err
	}
	sinceCheck := 0
	for round := int64(1); ; round++ {
		if state.live == 0 {
			return counters, nil
		}
		if round > n.opts.MaxRounds {
			return counters, fmt.Errorf("%w: %d rounds", ErrRoundLimit, n.opts.MaxRounds)
		}
		if !n.opts.DenseSweep {
			next, ok := state.nextActiveRound(round)
			if !ok || next > n.opts.MaxRounds {
				// No activity before the budget: the dense sweep would spin
				// through no-op rounds to the limit; charge them and stop.
				counters.Rounds += n.opts.MaxRounds - round + 1
				counters.RoundsSkipped += n.opts.MaxRounds - round + 1
				return counters, fmt.Errorf("%w: %d rounds", ErrRoundLimit, n.opts.MaxRounds)
			}
			// Skip directly to the next active round, charging the quiet
			// rounds so accounting matches the dense sweep bit for bit.
			counters.Rounds += next - round + 1
			counters.RoundsSkipped += next - round
			round = next
		} else {
			counters.Rounds++
		}
		if sinceCheck++; sinceCheck >= ctxCheckEvery {
			sinceCheck = 0
			if err := ctx.Err(); err != nil {
				return counters, fmt.Errorf("congest: run canceled in round %d: %w", round, err)
			}
			if n.opts.Progress != nil {
				n.opts.Progress(counters.Rounds)
			}
		}
		if err := exec.step(round, false); err != nil {
			return counters, err
		}
	}
}

// newRun readies the per-run storage and executor driving one execution,
// recycling the arena of a previous same-sized run; split from Run so
// white-box tests can step rounds individually.
func (n *Network) newRun(seed uint64) (*runState, *executor, *metrics.Counters) {
	N := n.g.N()
	counters := metrics.NewCounters(N)
	if n.arena == nil {
		n.arena = newRunState(N)
		for v := 0; v < N; v++ {
			n.arena.rngs[v] = &rng.Source{}
			n.arena.ctxs[v] = &Context{net: n, id: graph.NodeID(v), rng: n.arena.rngs[v]}
		}
	}
	state := n.arena
	state.reset()
	root := rng.New(seed)
	for v := 0; v < N; v++ {
		root.SplitInto(state.rngs[v], uint64(v))
	}
	return state, newExecutor(n, state, counters), counters
}

// runState is the engine's mutable per-run storage. Everything here is
// reused round over round — contexts keep their outbox capacity, inbox
// buckets recycle their backing arrays, and the bandwidth stamps are flat
// arrays — so a round's allocations are bounded by growth in message volume,
// not by n or by round count.
type runState struct {
	halted []bool
	live   int // number of non-halted nodes
	rngs   []*rng.Source
	// inboxes[v] is node v's current inbox bucket. deliver appends envelopes
	// in sender-id order (the outbox concatenation is already sender-sorted)
	// and the executor truncates the bucket back to length 0 after the node
	// consumed it, recycling the backing array.
	inboxes [][]Envelope
	// ctxs are the persistent per-node contexts: each is reset and reused
	// every invocation so outbox capacity survives. A Context is documented
	// as valid only during the Init/Round call, which makes reuse safe.
	ctxs []*Context
	// out is the reused node-id-ordered outbox concatenation buffer.
	out []routedMsg
	// msgActive lists the receivers of the messages delivered for the next
	// round (appended on first delivery to an empty bucket; never contains
	// halted nodes or duplicates).
	msgActive []int32
	// active is the reused active-set buffer built by the executor.
	active []int32
	// dueScratch is a reused buffer for draining due wakes in dense rounds.
	dueScratch []int32
	// inActive marks membership while the active set is assembled.
	inActive []bool
	// sched is the wake-up schedule of the event-driven executor.
	sched scheduler
	// Bandwidth accounting scratch: bwBits[to] accumulates the bits the
	// current sender pushed to `to` this round, valid while bwStamp[to]
	// equals the current sender generation. Generations never repeat, so
	// the arrays need no clearing between senders or rounds.
	bwStamp []int64
	bwBits  []int64
	bwGen   int64
}

func newRunState(n int) *runState {
	return &runState{
		halted:   make([]bool, n),
		live:     n,
		rngs:     make([]*rng.Source, n),
		inboxes:  make([][]Envelope, n),
		ctxs:     make([]*Context, n),
		inActive: make([]bool, n),
		sched:    newScheduler(n),
		bwStamp:  make([]int64, n),
		bwBits:   make([]int64, n),
	}
}

// reset restores the arena to its pre-run state while keeping every backing
// array (inbox buckets, outbox concatenation buffer, heap storage, context
// outboxes), so a rerun on a same-sized graph allocates nothing up front.
// The bandwidth stamps are left as-is: generations are monotonically
// increasing across runs, so stale stamps can never match a fresh generation.
func (s *runState) reset() {
	n := len(s.halted)
	for v := 0; v < n; v++ {
		s.halted[v] = false
		s.inActive[v] = false
		s.inboxes[v] = s.inboxes[v][:0]
	}
	s.live = n
	s.out = s.out[:0]
	s.msgActive = s.msgActive[:0]
	s.active = s.active[:0]
	s.dueScratch = s.dueScratch[:0]
	s.sched.reset()
}

// nextActiveRound returns the earliest round >= round in which any node must
// be invoked: `round` itself when messages are in flight or a legacy-dense
// node is live, else the earliest scheduled wake-up. ok is false when no
// activity can ever occur again (every live node is asleep with no wake-up).
func (s *runState) nextActiveRound(round int64) (int64, bool) {
	if len(s.msgActive) > 0 || s.sched.legacyLive > 0 {
		return round, true
	}
	w, ok := s.sched.earliestWake(s.halted)
	if !ok {
		return 0, false
	}
	if w < round {
		w = round
	}
	return w, true
}

// deliver routes the sender-ordered outbox concatenation into next-round
// inbox buckets, applying fault hooks and bandwidth enforcement. Called
// single-threaded. It performs no comparison sort and, at steady state, no
// allocations: `out` is grouped by sender in ascending id order (the merge
// loop concatenates outboxes in active-set order), so appending each
// envelope to its receiver's recycled bucket yields sender-sorted inboxes
// for free, and per-edge budgets are tracked with generation-stamped flat
// arrays instead of a per-round map.
func (n *Network) deliver(round int64, out []routedMsg, state *runState, counters *metrics.Counters) error {
	curFrom := graph.NodeID(-1)
	for i := range out {
		rm := &out[i]
		msg := rm.msg
		if n.opts.FaultHook != nil {
			var deliverIt bool
			msg, deliverIt = n.opts.FaultHook(round, rm.from, rm.to, msg)
			if !deliverIt {
				continue
			}
		}
		sz := n.codec.Bits(msg)
		if rm.from != curFrom {
			curFrom = rm.from
			state.bwGen++
		}
		if state.bwStamp[rm.to] != state.bwGen {
			state.bwStamp[rm.to] = state.bwGen
			state.bwBits[rm.to] = 0
		}
		state.bwBits[rm.to] += sz
		if state.bwBits[rm.to] > n.opts.BandwidthBits {
			return fmt.Errorf("%w: edge %d->%d carried %d bits in round %d (budget %d)",
				ErrBandwidth, rm.from, rm.to, state.bwBits[rm.to], round, n.opts.BandwidthBits)
		}
		counters.AddMessage(sz)
		if state.halted[rm.to] {
			continue // metered, but a halted node consumes nothing
		}
		if len(state.inboxes[rm.to]) == 0 {
			state.msgActive = append(state.msgActive, int32(rm.to))
		}
		state.inboxes[rm.to] = append(state.inboxes[rm.to], Envelope{From: rm.from, Msg: msg})
	}
	return nil
}
