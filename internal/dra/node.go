package dra

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"dhc/internal/arena"
	"dhc/internal/congest"
	"dhc/internal/cycle"
	"dhc/internal/graph"
	"dhc/internal/metrics"
	"dhc/internal/rotation"
	"dhc/internal/wire"
)

// ErrFailed is returned by Run when the rotation process fails (out of
// unused edges or step budget exceeded) — the low-probability events E1/E2
// of Theorem 2.
var ErrFailed = errors.New("dra: rotation process failed")

// Node runs a standalone DRA instance over the whole graph: node 0 is the
// initial head (the paper initializes "any one node"), the scope is every
// vertex, and the instance ends with a success or failure broadcast.
type Node struct {
	state *State
	opts  NodeOptions
}

// NodeOptions configures the standalone instance.
type NodeOptions struct {
	// BroadcastRounds bounds the graph diameter for rotation consistency
	// waits. Zero selects n (always safe for a connected graph).
	BroadcastRounds int64
	// MaxSteps overrides the Theorem 2 budget (0 = default).
	MaxSteps int64
}

var _ congest.Node = (*Node)(nil)

// Init implements congest.Node.
func (d *Node) Init(ctx *congest.Context) {
	b := d.opts.BroadcastRounds
	if b == 0 {
		b = int64(ctx.N())
	}
	p := Params{
		ScopeSize:       ctx.N(),
		IsInitialHead:   ctx.ID() == 0,
		ScopePorts:      ctx.AllPorts(), // the whole graph is the scope
		BroadcastRounds: b,
		StartRound:      1,
		Tag:             1,
		MaxSteps:        d.opts.MaxSteps,
	}
	if d.state == nil {
		d.state = NewState(ctx, p)
	} else {
		// Session reuse: the retained state machine from a prior trial is
		// reinitialized in place, keeping its allocations.
		d.state.Reset(ctx, p)
	}
	d.armWake(ctx)
}

// armWake declares the event-driven wake-up discipline: DRA nodes are
// message-driven except for the head, which must act at its own initiative
// once its consistency wait elapses.
func (d *Node) armWake(ctx *congest.Context) {
	if w := d.state.NextWake(ctx.Round()); w > 0 {
		ctx.WakeAt(w)
	}
}

// Round implements congest.Node.
func (d *Node) Round(ctx *congest.Context, inbox []congest.Envelope) {
	d.state.Tick(ctx, inbox)
	ctx.ObserveMemory(d.state.MemoryWords())
	if d.state.Status() != Running {
		// Keep forwarding the terminal broadcast for one round; the
		// scoped broadcaster already forwarded on receipt, so halt now.
		ctx.Halt()
		return
	}
	d.armWake(ctx)
}

// Result is the outcome of a standalone run.
type Result struct {
	Cycle    *cycle.Cycle
	Counters *metrics.Counters
	Steps    int64
}

// Run executes DRA on g with the given seed on a fresh in-process Network
// and returns the Hamiltonian cycle assembled from the per-node successor
// pointers. The cycle is verified against g before returning.
func Run(g *graph.Graph, seed uint64, opts NodeOptions, netOpts congest.Options) (*Result, error) {
	return NewSession().Run(context.Background(), new(congest.Network), g, seed, opts, netOpts)
}

// Session is a reusable standalone-DRA program set: the node programs (with
// their per-node state machines) survive across Run calls, so repeated
// trials on same-sized graphs allocate only what a single trial's execution
// needs. The session binds programs and extracts the cycle; the executor is
// the caller's. Not safe for concurrent use.
type Session struct {
	progs []*Node
	nodes []congest.Node
}

// NewSession returns an empty session; the first Run sizes it.
func NewSession() *Session { return &Session{} }

// Run resets ex to g and the session's programs and executes one DRA
// trial, honoring ctx at the executor's amortized cancellation checkpoint. A
// cancelled run returns ctx's error and leaves the session reusable.
func (sess *Session) Run(ctx context.Context, ex congest.Runner, g *graph.Graph, seed uint64, opts NodeOptions, netOpts congest.Options) (*Result, error) {
	if g.N() < 3 {
		return nil, fmt.Errorf("dra: need n >= 3, got %d", g.N())
	}
	if opts.BroadcastRounds == 0 {
		// 2*ecc(v) >= diameter for any v, so one BFS yields a safe
		// consistency-wait bound far below the trivial n.
		opts.BroadcastRounds = int64(2*g.BFS(0).Ecc + 1)
	}
	if netOpts.MaxRounds == 0 {
		maxSteps := opts.MaxSteps
		if maxSteps == 0 {
			maxSteps = rotation.DefaultMaxSteps(g.N())
		}
		// Every step costs at most BroadcastRounds+2 rounds, plus slack
		// for the terminal broadcast.
		netOpts.MaxRounds = maxSteps*(opts.BroadcastRounds+3) + 1024
	}
	// Prior Node values keep their state machines for reuse; only the
	// per-run options are refreshed.
	sess.progs = arena.Resize(sess.progs, g.N())
	sess.nodes = arena.Resize(sess.nodes, g.N())
	for i, p := range sess.progs {
		if p == nil {
			p = &Node{}
			sess.progs[i] = p
		}
		p.opts = opts
		sess.nodes[i] = p
	}
	if err := ex.Reset(g, sess.nodes, netOpts); err != nil {
		return nil, err
	}
	counters, err := ex.RunContext(ctx, seed)
	if err != nil {
		return nil, fmt.Errorf("dra: %w", err)
	}
	states := make([]*State, g.N())
	for i, p := range sess.progs {
		states[i] = p.state
	}
	hc, steps, err := ExtractCycle(g, states)
	if err != nil {
		return nil, err
	}
	return &Result{Cycle: hc, Counters: counters, Steps: steps}, nil
}

// NewNode constructs a standalone program for one vertex — the reconstruction
// entry point worker processes use to rebuild a session's programs from a
// ProgramSpec. opts must carry a resolved BroadcastRounds (the driver session
// computes it from an eccentricity BFS before binding).
func NewNode(opts NodeOptions) *Node { return &Node{opts: opts} }

var _ congest.PortableProgram = (*Node)(nil)

// DistSpec implements congest.PortableProgram.
func (d *Node) DistSpec() congest.ProgramSpec {
	return congest.ProgramSpec{Algo: "dra", B: d.opts.BroadcastRounds, MaxSteps: d.opts.MaxSteps}
}

// AppendFinal implements congest.PortableProgram: status, step count, and the
// two cycle pointers — exactly what ExtractCycle consumes.
func (d *Node) AppendFinal(dst []byte) []byte {
	st := d.state
	if st == nil {
		st = &State{}
	}
	dst = append(dst, byte(st.Status()))
	dst = binary.BigEndian.AppendUint64(dst, uint64(st.Steps()))
	dst = binary.BigEndian.AppendUint32(dst, uint32(st.Succ()))
	dst = binary.BigEndian.AppendUint32(dst, uint32(st.Pred()))
	return dst
}

// RestoreFinal implements congest.PortableProgram.
func (d *Node) RestoreFinal(src []byte) ([]byte, error) {
	if len(src) < 17 {
		return nil, fmt.Errorf("dra: truncated final state (%d bytes)", len(src))
	}
	status := Status(src[0])
	steps := int64(binary.BigEndian.Uint64(src[1:]))
	succ := graph.NodeID(binary.BigEndian.Uint32(src[9:]))
	pred := graph.NodeID(binary.BigEndian.Uint32(src[13:]))
	d.state = NewFinalState(status, steps, succ, pred)
	return src[17:], nil
}

// ExtractCycle reconstructs and verifies the Hamiltonian cycle from per-node
// DRA states (each node knows its cycle successor, which is the paper's
// output condition: every node knows its two incident HC edges).
func ExtractCycle(g *graph.Graph, states []*State) (*cycle.Cycle, int64, error) {
	var steps int64
	succ := make([]graph.NodeID, len(states))
	for v, st := range states {
		if st.Status() != Succeeded {
			return nil, st.Steps(), fmt.Errorf("%w: node %d status %d after %d steps",
				ErrFailed, v, st.Status(), st.Steps())
		}
		if st.Steps() > steps {
			steps = st.Steps()
		}
		succ[v] = st.Succ()
	}
	hc, err := cycle.FromSuccessors(succ, 0)
	if err != nil {
		return nil, steps, fmt.Errorf("dra: bad successor structure: %w", err)
	}
	if err := hc.Verify(g); err != nil {
		return nil, steps, fmt.Errorf("dra: extracted cycle invalid: %w", err)
	}
	return hc, steps, nil
}

// wireCheck documents that all DRA messages fit the CONGEST budget; the
// compiler keeps this in sync with wire.Msg arity limits.
var _ = wire.Msg(wire.KindRotation, 0, 0, 0, 0)
