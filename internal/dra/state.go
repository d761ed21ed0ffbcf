// Package dra implements the Distributed Rotation Algorithm (paper
// Algorithm 1) in the CONGEST model: the distributed form of the
// Angluin–Valiant rotation process in which the current path head picks a
// random unused incident edge, sends progress(pos) along it, and the receiver
// either extends the path, closes the cycle, or triggers a rotation that is
// renumbered by a scope-wide broadcast of rotation(h, j).
//
// The State type is a per-node state machine embedded both by the standalone
// Node in this package and by the DHC1/DHC2 phase machines in internal/core,
// which run one DRA instance per partition. A "scope" is the vertex subset
// the instance runs on (the whole graph for standalone use, one color class
// for DHC).
//
// Timing: extensions cost one round. A rotation is followed by a
// consistency wait of BroadcastRounds (an upper bound on the scope diameter)
// so that every node has applied the renumbering before the new head acts —
// the paper charges the same O(D) per step in its round bounds (proof of
// Theorem 1).
package dra

import (
	"fmt"

	"dhc/internal/congest"
	"dhc/internal/graph"
	"dhc/internal/rotation"
	"dhc/internal/wire"
)

// Status is the lifecycle of one DRA instance at one node.
type Status uint8

const (
	// Running means the instance has not yet terminated.
	Running Status = iota + 1
	// Succeeded means the success broadcast arrived: the scope has a
	// Hamiltonian cycle and this node knows its position and neighbors.
	Succeeded
	// Failed means the failure broadcast of the last attempt arrived (head
	// ran out of unused edges or exceeded the step budget) and no restart
	// is left: see rotation.Attempts.
	Failed
)

// Params configures one node's participation in a DRA instance.
type Params struct {
	// ScopeSize is the number of vertices in this instance's scope (the
	// |V| of Algorithm 1's success test).
	ScopeSize int
	// IsInitialHead designates the single starting node.
	IsInitialHead bool
	// ScopePorts lists this node's in-scope neighbors as ports (indices into
	// ctx.Neighbors()), ascending. Reset builds a congest.Scope of them, so a
	// flood is one SendScope call: one outbox record, whose receivers are
	// copied from the Scope instead of being looked up port by port. Reset
	// also seeds the unused list from them, as neighbor ids.
	ScopePorts []int32
	// BroadcastRounds is the consistency wait after a rotation; it must be
	// an upper bound on the scope diameter.
	BroadcastRounds int64
	// StartRound is the first round the initial head may act.
	StartRound int64
	// Tag distinguishes broadcast sessions of different DRA instances that
	// could share nodes over time (DHC phase 1 vs phase 2). A restart runs
	// its attempt under Tag plus the attempt number, so a late terminal
	// flood of a failed attempt cannot end the next one.
	Tag int32
	// MaxSteps overrides the Theorem 2 step budget; 0 selects
	// rotation.DefaultMaxSteps(ScopeSize).
	MaxSteps int64
}

// State is the per-node DRA state machine.
//
// Broadcast handling uses O(1) control state instead of a per-payload
// dedup set: rotation broadcasts carry a strictly increasing step number and
// never overlap in flight (the new head waits BroadcastRounds before acting),
// so "new payload" is simply "step number above my watermark". This is what
// keeps per-node memory at O(deg) words — the fully-distributed o(n) claim
// of the paper.
//
// A failed attempt restarts in place, up to rotation.Attempts attempts in
// all, when the scope has at least 3 vertices: after the failure flood every
// node waits out a quiet period of 2·BroadcastRounds+2 rounds past the
// flooded terminal round, so every stale flood has drained and the whole
// scope starts the next attempt in the same round, at the same initial head.
type State struct {
	p Params

	cycindex int32        // 1-based path position; 0 = not on path
	pred     graph.NodeID // cycle predecessor id, -1 unknown
	succ     graph.NodeID // cycle successor id, -1 unknown
	isHead   bool
	actAfter int64        // head may act in rounds >= actAfter
	lastSent graph.NodeID // the neighbor last sent progress, -1 none

	lastRotStep   int64 // watermark of rotation broadcasts forwarded
	terminalSeen  bool  // success/failure flood already forwarded
	terminalRound int64 // round stamped into the terminal flood

	scope  congest.Scope   // in-scope neighbors, from Params.ScopePorts
	unused rotation.Unused // in-scope neighbor ids no progress message has crossed yet
	steps  int64           // this attempt's steps
	status Status          // this attempt's status

	attempt    int   // failed attempts before this one
	restartAt  int64 // round the next attempt starts in, 0 = no restart pending
	stepsPrior int64 // this node's view of the failed attempts' steps
}

// NewState initializes the machine for one node. ctx is the Init (or current
// round) context; the unused list starts as the node's in-scope neighbors.
func NewState(ctx *congest.Context, p Params) *State {
	s := &State{}
	s.Reset(ctx, p)
	return s
}

// NewFinalState builds a terminal-only State carrying exactly the fields
// result extraction reads (status, step count, cycle pointers). The
// distributed engine uses it to replay a worker process's outcome into the
// driver's program structs; the returned State must not Tick.
func NewFinalState(status Status, steps int64, succ, pred graph.NodeID) *State {
	return &State{status: status, steps: steps, succ: succ, pred: pred}
}

// Reset reinitializes the machine in place for a fresh instance, reusing the
// unused-list allocation — the solver-session reuse path that keeps
// repeated instances from reallocating per-node state.
func (s *State) Reset(ctx *congest.Context, p Params) {
	if p.MaxSteps == 0 {
		p.MaxSteps = rotation.DefaultMaxSteps(p.ScopeSize)
	}
	unused := s.unused[:0]
	*s = State{
		p:        p,
		pred:     -1,
		succ:     -1,
		lastSent: -1,
		status:   Running,
		scope:    ctx.Scope(p.ScopePorts, s.scope),
	}
	nbrs := ctx.Neighbors()
	for _, port := range p.ScopePorts {
		unused = append(unused, nbrs[port])
	}
	s.unused = unused
	if p.IsInitialHead {
		s.cycindex = 1
		s.isHead = true
		s.actAfter = p.StartRound
	}
}

// Status returns the node's view of the instance lifecycle. A failed attempt
// with a restart pending reads Running: the instance has not terminated.
func (s *State) Status() Status {
	if s.restartAt != 0 {
		return Running
	}
	return s.status
}

// CycleIndex returns the node's 1-based position on the (sub)cycle, 0 if the
// node never joined a path.
func (s *State) CycleIndex() int32 { return s.cycindex }

// Succ returns the cycle successor id, -1 if unknown.
func (s *State) Succ() graph.NodeID { return s.succ }

// Pred returns the cycle predecessor id, -1 if unknown.
func (s *State) Pred() graph.NodeID { return s.pred }

// Steps returns this node's view of the instance step count, summed over
// every attempt.
func (s *State) Steps() int64 { return s.stepsPrior + s.steps }

// NextWake returns the next round this node must be invoked even if no
// message arrives — the head's action round, or the round a pending restart
// starts the next attempt in (every scope node must run then to begin it
// before its first messages arrive) — or 0 when the node is purely
// message-driven (non-heads only react to progress messages and floods, and
// terminal states never act again). Embedders call it after Tick to declare
// the wake-up discipline of the event-driven simulator; a head's actAfter
// always lies in the future at the end of a Tick, because acting clears
// headship and a rotation's consistency wait outlasts the flood that
// announces it.
func (s *State) NextWake(now int64) int64 {
	var w int64
	switch {
	case s.restartAt != 0:
		w = s.restartAt
	case s.status == Running && s.isHead:
		w = s.actAfter
	default:
		return 0
	}
	if w > now {
		return w
	}
	return now + 1
}

// MemoryWords estimates the retained state in words for metering: the unused
// list plus O(1) scalars.
func (s *State) MemoryWords() int64 {
	return int64(len(s.unused)) + 12
}

// Tick advances the machine by one round. The embedding congest.Node must
// call it exactly once per round while the instance runs, passing the full
// inbox (non-DRA messages are ignored; DRA messages of other scopes cannot
// arrive because all traffic stays inside the scope). The embedder meters
// memory, once per call, from MemoryWords and whatever state it adds.
func (s *State) Tick(ctx *congest.Context, inbox []congest.Envelope) {
	if s.status == Running {
		s.absorbBroadcasts(ctx, inbox)
		s.absorbProgress(ctx, inbox)
		if s.status == Running && s.isHead && ctx.Round() >= s.actAfter {
			s.act(ctx)
		}
	}
	if s.status == Failed && s.attempt+1 < rotation.Attempts && s.p.ScopeSize >= 3 {
		s.awaitRestart(ctx)
	}
}

// awaitRestart schedules the next attempt once the failure flood is in, and
// starts it when its round comes. The quiet period lets every stale flood of
// the failed attempt drain (<= BroadcastRounds rounds past the terminal
// flood's origin); every scope node computes the same round from the
// flooded terminal round, so the next attempt starts in step. The failed
// attempt ignores its inbox meanwhile, and the new attempt first acts in
// the round after the restart.
func (s *State) awaitRestart(ctx *congest.Context) {
	if s.restartAt == 0 {
		s.restartAt = s.terminalRound + 2*s.p.BroadcastRounds + 2
	}
	if ctx.Round() < s.restartAt {
		return
	}
	p := s.p
	p.Tag++
	p.StartRound = ctx.Round() + 1
	attempt, prior := s.attempt+1, s.Steps()
	s.Reset(ctx, p)
	s.attempt, s.stepsPrior = attempt, prior
}

// absorbBroadcasts handles rotation and success/failure floods with O(1)
// dedup state (step watermark / terminal flag). Delivery hands it one copy
// of each flood payload per round (wire.Kind.Flood); the watermark and the
// flag drop the copies that arrive in later rounds.
func (s *State) absorbBroadcasts(ctx *congest.Context, inbox []congest.Envelope) {
	if !ctx.Received(wire.KindRotation) && !ctx.Received(wire.KindSuccess) {
		return
	}
	for _, env := range inbox {
		switch env.Msg.Kind {
		case wire.KindRotation:
			step := int64(env.Msg.Arg(2))
			if step <= s.lastRotStep {
				continue // already applied and forwarded
			}
			s.lastRotStep = step
			s.forwardScope(ctx, env.Msg, env.From)
			s.applyRotation(env.Msg.Arg(0), env.Msg.Arg(1), step, int64(env.Msg.Arg(3)))
		case wire.KindSuccess:
			if env.Msg.Arg(1) != s.p.Tag || s.terminalSeen {
				continue
			}
			s.terminalSeen = true
			s.terminalRound = int64(env.Msg.Arg(3))
			// The flood carries the attempt's step count: adopting it
			// charges a failed attempt in full at every node, not as
			// each node's partial view, once a restart folds it into
			// the prior attempts' total.
			s.steps = max(s.steps, int64(env.Msg.Arg(2)))
			s.forwardScope(ctx, env.Msg, env.From)
			if env.Msg.Arg(0) == 1 {
				s.status = Succeeded
			} else {
				s.status = Failed
			}
		}
	}
}

// originate starts a scope flood of m from this node.
func (s *State) originate(ctx *congest.Context, m wire.Message) {
	if m.Kind == wire.KindRotation {
		s.lastRotStep = int64(m.Arg(2))
	}
	if m.Kind == wire.KindSuccess {
		s.terminalSeen = true
	}
	s.forwardScope(ctx, m, -1)
}

func (s *State) forwardScope(ctx *congest.Context, m wire.Message, except graph.NodeID) {
	ctx.SendScope(s.scope, except, m)
}

// applyRotation applies the renumbering i <- h + j + 1 - i for positions in
// (j, h] (Algorithm 1, OnReceive rotation) and maintains the cycle-neighbor
// pointers: mid-segment nodes swap pred/succ; the old head (position h)
// additionally learns its new predecessor (the rotation point it messaged);
// the node renumbered to h becomes the new head.
func (s *State) applyRotation(h, j int32, step, initRound int64) {
	if step > s.steps {
		s.steps = step
	}
	if !(j < s.cycindex && s.cycindex <= h) {
		return
	}
	old := s.cycindex
	s.cycindex = h + j + 1 - old
	oldPred, oldSucc := s.pred, s.succ
	s.pred, s.succ = oldSucc, oldPred
	if old == h {
		// Old head: new path neighbor on the tail side is the rotation
		// point it sent progress to.
		s.pred = s.lastSent
		s.succ = oldPred
	}
	if s.cycindex == h {
		s.isHead = true
		s.actAfter = initRound + s.p.BroadcastRounds + 1
	}
}

// absorbProgress handles progress(pos, steps) messages addressed directly to
// this node (Algorithm 1, OnReceive progress).
func (s *State) absorbProgress(ctx *congest.Context, inbox []congest.Envelope) {
	if !ctx.Received(wire.KindProgress) {
		return
	}
	for _, env := range inbox {
		if env.Msg.Kind != wire.KindProgress || s.status != Running {
			continue
		}
		pos := env.Msg.Arg(0)
		stepsBefore := int64(env.Msg.Arg(1))
		s.unused.Remove(env.From)
		ctx.AddWork(1)
		switch {
		case pos == int32(s.p.ScopeSize) && s.cycindex == 1:
			// The head reached the tail with a spanning path: success.
			s.pred = env.From
			s.steps = stepsBefore + 1
			s.status = Succeeded
			s.terminalRound = ctx.Round()
			s.originate(ctx, wire.Msg(wire.KindSuccess, 1, s.p.Tag,
				int32(s.steps), int32(ctx.Round())))
		case s.cycindex == 0:
			// First visit: extend; this node becomes head immediately.
			s.cycindex = pos + 1
			s.pred = env.From
			s.steps = stepsBefore + 1
			s.isHead = true
			s.actAfter = ctx.Round() // may act this same round
		default:
			// Rotation at j = our position; broadcast the renumbering.
			s.steps = stepsBefore + 1
			s.succ = env.From
			s.originate(ctx, wire.Msg(wire.KindRotation,
				pos, s.cycindex, int32(s.steps), int32(ctx.Round())))
			// Apply locally for everyone else via applyRotation's range
			// check (our own index j is outside (j, h], so only the
			// pointer patch above matters).
		}
	}
}

// act performs the head's step: pick a random unused edge and send progress.
func (s *State) act(ctx *congest.Context) {
	if s.steps >= s.p.MaxSteps {
		s.fail(ctx)
		return
	}
	u, ok := s.unused.Pop(ctx.Rand())
	if !ok {
		s.fail(ctx)
		return
	}
	// Optimistically record u as successor; a rotation overwrites this via
	// the old-head patch in applyRotation.
	s.succ = u
	s.lastSent = u
	s.isHead = false // exactly one node becomes head as a consequence
	ctx.Send(u, wire.Msg(wire.KindProgress, s.cycindex, int32(s.steps)))
	ctx.AddWork(1)
}

func (s *State) fail(ctx *congest.Context) {
	s.status = Failed
	s.terminalRound = ctx.Round()
	s.originate(ctx, wire.Msg(wire.KindSuccess, 0, s.p.Tag,
		int32(s.steps), int32(ctx.Round())))
}

// String aids debugging.
func (s *State) String() string {
	return fmt.Sprintf("dra{idx=%d head=%v pred=%d succ=%d steps=%d status=%d}",
		s.cycindex, s.isHead, s.pred, s.succ, s.steps, s.status)
}
