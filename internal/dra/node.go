package dra

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dhc/internal/congest"
	"dhc/internal/cycle"
	"dhc/internal/graph"
	"dhc/internal/rotation"
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
	b     int64 // the graph's broadcast bound, resolved by Bind
}

// NodeOptions configures the standalone instance.
type NodeOptions struct {
	// MaxSteps overrides the Theorem 2 budget (0 = default).
	MaxSteps int64
}

var _ congest.Node = (*Node)(nil)

// Init implements congest.Node.
func (d *Node) Init(ctx *congest.Context) {
	p := Params{
		ScopeSize:       ctx.N(),
		IsInitialHead:   ctx.ID() == 0,
		ScopePorts:      ctx.AllPorts(), // the whole graph is the scope
		BroadcastRounds: d.b,
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

// Session is a reusable standalone-DRA program set: the node programs, with
// their per-node state machines, survive across Run calls.
type Session = congest.Session[Node, *Node]

// NewSession returns an empty session that runs DRA under opts; the first
// Run sizes it.
func NewSession(opts NodeOptions) *Session {
	return congest.NewSession[Node]("dra", &algorithm{opts: opts})
}

// algorithm is the standalone DRA's part of a Session: opts as configured,
// b as resolved for the current graph.
type algorithm struct {
	opts NodeOptions
	b    int64
}

// Bind implements congest.Algorithm: every rotation waits b, the graph's
// broadcast bound.
func (a *algorithm) Bind(g *graph.Graph, b int64, netOpts *congest.Options) error {
	a.b = b
	if netOpts.MaxRounds == 0 {
		maxSteps := a.opts.MaxSteps
		if maxSteps == 0 {
			maxSteps = rotation.DefaultMaxSteps(g.N())
		}
		// Every step costs at most b+2 rounds, plus slack for the terminal
		// broadcast.
		netOpts.MaxRounds = maxSteps*(b+3) + 1024
	}
	return nil
}

// Recycle implements congest.Algorithm: the program keeps its state machine
// for reuse; only the run's options and bound are refreshed.
func (a *algorithm) Recycle(p *Node) { p.opts, p.b = a.opts, a.b }

// Extract implements congest.Algorithm: it reconstructs and verifies the
// Hamiltonian cycle from the per-node successors (every node knows its two
// incident HC edges, the paper's output condition).
func (a *algorithm) Extract(g *graph.Graph, progs []*Node, res *congest.Result) error {
	succ := make([]graph.NodeID, len(progs))
	for v, p := range progs {
		st := p.state
		if st.Status() != Succeeded {
			return fmt.Errorf("%w: node %d status %d after %d steps",
				ErrFailed, v, st.Status(), st.Steps())
		}
		res.Steps = max(res.Steps, st.Steps())
		succ[v] = st.Succ()
	}
	var err error
	if res.Cycle, err = cycle.FromVerifiedSuccessors(g, succ); err != nil {
		return fmt.Errorf("dra: %w", err)
	}
	return nil
}

// NewNode constructs a standalone program for one vertex — the reconstruction
// entry point worker processes use to rebuild a session's programs from a
// ProgramSpec. b is the graph's broadcast bound as Session's Bind received
// it (rotation.GraphBound).
func NewNode(opts NodeOptions, b int64) *Node { return &Node{opts: opts, b: b} }

var _ congest.PortableProgram = (*Node)(nil)

// DistSpec implements congest.PortableProgram.
func (d *Node) DistSpec() congest.ProgramSpec {
	return congest.ProgramSpec{Algo: "dra", B: d.b, MaxSteps: d.opts.MaxSteps}
}

// AppendFinal implements congest.PortableProgram: status, step count, and the
// two cycle pointers — exactly what the session's Extract consumes.
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
