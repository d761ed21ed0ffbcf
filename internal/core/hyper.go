package core

import (
	"dhc/internal/congest"
	"dhc/internal/dra"
	"dhc/internal/graph"
	"dhc/internal/rotation"
	"dhc/internal/wire"
)

// hyperPhase implements DHC1's Phase 2 (paper Algorithm 2, Fig. 1): one
// "hypernode" per partition — a subcycle edge (v_i -> u_i) with u_i the
// incoming and v_i the outgoing port — and a rotation process over the K
// hypernodes that finds a Hamiltonian cycle of the hypernode graph G'.
//
// A correction to the paper: Lemma 6 computes the G'
// adjacency probability as 1-(1-p)², i.e. "at least one of the two cross
// edges (v_i,u_j), (v_j,u_i) exists", but a cycle over such adjacencies only
// lifts to a Hamiltonian cycle of G if every hypernode is entered at one
// port and exited at the other consistently. We therefore run the rotation
// with per-hypernode orientations: each hypernode is traversed forward
// (enter u_i, exit v_i) or reversed (enter v_i, exit u_i); a rotation
// reverses a segment of the hyperpath and flips the orientation of every
// hypernode in it; and a probe landing on a hypernode's entry port (which
// cannot splice) is rejected and retried. This keeps the usable adjacency
// probability at 1-(1-p)⁴ ≥ paper's p' and preserves the round analysis up
// to a constant probe-rejection factor.
//
// Both ports of a hypernode mirror its (index, orientation) state: floods
// reach both ports directly, and the one direct-message event (path
// extension) is relayed to the twin in one round — the ports are subcycle
// neighbors, hence graph-adjacent.
type hyperPhase struct {
	// Static configuration.
	B        int64
	K        int32
	color    int32
	maxSteps int64

	// Subcycle context from Phase 1.
	succ graph.NodeID
	pred graph.NodeID
	// tree lists this node's global-BFS-tree neighbors (parent + children).
	// Rotation and terminal floods are routed over the tree — O(n) messages
	// per flood instead of O(m) for edge-wise flooding — and settle within
	// 2·depth < B rounds, since B (phase1.phase2B) is at least the tree's
	// 2·depth+1, so the consistency waits that assume B-bounded settling are
	// unaffected.
	tree []graph.NodeID

	// Hypernode-selection state.
	chosenR   int32 // the broadcast index r choosing u_i = node at position r
	rSeen     bool
	cycindex  int32
	scopeSize int32

	// Port identity (set once selection completes).
	isUPort bool
	isVPort bool
	twin    graph.NodeID // the other port of this hypernode

	// Mirrored hypernode state.
	hypIdx  int32 // 1-based position on the hyperpath, 0 = not yet on it
	reverse bool  // false: enter at u, exit at v; true: flipped
	steps   int64

	// Rotation/terminal flood bookkeeping (every node forwards).
	lastRotStep  int64
	terminalSeen bool
	status       dra.Status

	// Probing state at the acting exit port.
	pool     rotation.Unused // unused candidate port neighbors
	amActor  bool
	actAfter int64

	phaseStart    int64
	terminalRound int64
	attempts      int
	restartAt     int64
}

// Offsets from phaseStart:
//
//	+0..+B   leader floods the chosen index r within each partition
//	+B+1     ports announce themselves to all neighbors
//	+B+2     pools built; the initial head's exit port may act
const hyperSetupSlack = 3

func (h *hyperPhase) selectStart() int64 { return h.phaseStart }
func (h *hyperPhase) announceAt() int64  { return h.phaseStart + h.B + 1 }
func (h *hyperPhase) draStartsAt() int64 { return h.phaseStart + h.B + hyperSetupSlack }
func (h *hyperPhase) enterPort() bool    { return (h.isUPort && !h.reverse) || (h.isVPort && h.reverse) }
func (h *hyperPhase) exitPort() bool     { return (h.isVPort && !h.reverse) || (h.isUPort && h.reverse) }

// resetForRestart clears per-attempt state; the next selection flood starts
// at the new phaseStart.
func (h *hyperPhase) resetForRestart(round int64) {
	h.phaseStart = round + 1
	h.restartAt = 0
	h.rSeen = false
	h.chosenR = 0
	h.isUPort = false
	h.isVPort = false
	h.twin = 0
	h.hypIdx = 0
	h.reverse = false
	h.steps = 0
	h.lastRotStep = 0
	h.terminalSeen = false
	h.terminalRound = 0
	h.pool = nil
	h.amActor = false
	h.actAfter = 0
	h.status = dra.Running
}

// start wires in Phase 1 results. isLeader nodes pick and flood r; tree is
// the node's global-BFS-tree neighbor list carrying phase-wide floods.
func (h *hyperPhase) start(color, cycindex, scopeSize int32, succ, pred graph.NodeID, tree []graph.NodeID, startRound int64) {
	h.color = color
	h.cycindex = cycindex
	h.scopeSize = scopeSize
	h.succ = succ
	h.pred = pred
	h.tree = tree
	h.phaseStart = startRound
	h.status = dra.Running
	h.maxSteps = 4 * rotation.DefaultMaxSteps(int(h.K))
}

// tick advances one round; returns true when the phase has terminated at
// this node. scopePorts lists the same-partition neighbors' ports (for the
// selection flood).
func (h *hyperPhase) tick(ctx *congest.Context, inbox []congest.Envelope, isLeader bool, scopePorts []int32) bool {
	if h.status == dra.Succeeded {
		return true
	}
	round := ctx.Round()
	if h.status == dra.Failed {
		if h.attempts+1 >= rotation.Attempts {
			return true
		}
		// Restart the whole phase (fresh hypernode selection) once stale
		// floods of the failed session have drained; every node computes
		// the same restart round from the flooded terminal round.
		if h.restartAt == 0 {
			h.restartAt = h.terminalRound + 2*h.B + 2
		}
		if round >= h.restartAt {
			h.attempts++
			h.resetForRestart(round)
		}
		return false
	}

	// Leader floods the hypernode selection at phase start.
	if round == h.selectStart() && isLeader && h.scopeSize >= 3 {
		r := int32(ctx.Rand().Intn(int(h.scopeSize))) + 1
		h.absorbChoice(ctx, r, -1, scopePorts)
	}
	h.absorbFloods(ctx, inbox, scopePorts)

	if round == h.announceAt() && h.rSeen {
		h.decidePorts()
		if h.isUPort || h.isVPort {
			ctx.SendPorts(ctx.AllPorts(), -1, wire.Msg(wire.KindPort, h.color))
			// The initial head is hypernode color 0, forward orientation.
			if h.color == 0 {
				h.hypIdx = 1
				h.reverse = false
				if h.exitPort() {
					h.amActor = true
					h.actAfter = h.draStartsAt()
				}
			}
		}
	}
	if round == h.announceAt()+1 && (h.isUPort || h.isVPort) && ctx.Received(wire.KindPort) {
		for _, env := range inbox {
			if env.Msg.Kind == wire.KindPort && env.Msg.Arg(0) != h.color {
				h.pool = append(h.pool, env.From)
			}
		}
	}
	if round > h.announceAt()+1 {
		h.absorbPortTraffic(ctx, inbox)
	}
	if h.amActor && h.status == dra.Running && round >= h.actAfter && round >= h.draStartsAt() {
		h.act(ctx)
	}
	ctx.ObserveMemory(int64(len(h.pool)) + 24)
	// A fresh failure is not terminal: the next tick enters the restart
	// branch. Only success (or exhausted attempts, handled above) ends the
	// phase.
	return h.status == dra.Succeeded
}

// nextWake declares the hypernode phase's wake-up discipline: the leader
// floods the selection at selectStart, ports announce themselves at
// announceAt, the acting exit port probes on its own timer, and a failed
// session restarts at the commonly computed restart round. Pool building,
// flood forwarding and probe handling are message-driven. Returns 0 when
// only messages (or the embedder's halt) can advance this node.
func (h *hyperPhase) nextWake(now int64) int64 {
	switch h.status {
	case dra.Succeeded:
		return 0
	case dra.Failed:
		// Exhausted attempts still need one more tick to report terminal
		// (and make the embedder halt); a restartable failure needs a tick
		// to compute restartAt and then the restart round itself.
		if h.attempts+1 >= rotation.Attempts || h.restartAt == 0 || h.restartAt <= now {
			return now + 1
		}
		return h.restartAt
	}
	if now < h.selectStart() {
		return h.selectStart()
	}
	if now < h.announceAt() {
		return h.announceAt()
	}
	if h.amActor {
		w := h.actAfter
		if d := h.draStartsAt(); d > w {
			w = d
		}
		if w <= now {
			w = now + 1
		}
		return w
	}
	return 0
}

// absorbFloods handles the r-selection flood, hyperpath rotations, and
// terminal floods. Rotation and terminal floods are global: every node
// forwards them (watermark dedup) and ports additionally apply them.
func (h *hyperPhase) absorbFloods(ctx *congest.Context, inbox []congest.Envelope, scopePorts []int32) {
	if !ctx.Received(wire.KindSizeAnnounce) && !ctx.Received(wire.KindRotation) && !ctx.Received(wire.KindSuccess) {
		return
	}
	for _, env := range inbox {
		switch env.Msg.Kind {
		case wire.KindSizeAnnounce:
			if env.Msg.Arg(1) == tagPhase2DRA && !h.rSeen {
				h.absorbChoice(ctx, env.Msg.Arg(0), env.From, scopePorts)
			}
		case wire.KindRotation:
			step := int64(env.Msg.Arg(2))
			if step <= h.lastRotStep {
				continue
			}
			h.lastRotStep = step
			h.forwardTree(ctx, env.Msg, env.From)
			h.applyHypRotation(env.Msg.Arg(0), env.Msg.Arg(1), step, int64(env.Msg.Arg(3)))
		case wire.KindSuccess:
			if env.Msg.Arg(1) != tagPhase2DRA || h.terminalSeen {
				continue
			}
			h.terminalSeen = true
			h.terminalRound = int64(env.Msg.Arg(3))
			h.forwardTree(ctx, env.Msg, env.From)
			if env.Msg.Arg(0) == 1 {
				h.status = dra.Succeeded
			} else {
				h.status = dra.Failed
			}
		}
	}
}

func (h *hyperPhase) absorbChoice(ctx *congest.Context, r int32, from graph.NodeID, scopePorts []int32) {
	h.rSeen = true
	h.chosenR = r
	ctx.SendPorts(scopePorts, from, wire.Msg(wire.KindSizeAnnounce, r, tagPhase2DRA))
}

// decidePorts resolves whether this node is u_i (position r) or v_i (its
// subcycle predecessor, position r-1 wrapping to scopeSize).
func (h *hyperPhase) decidePorts() {
	if h.cycindex == 0 || h.scopeSize < 3 {
		return
	}
	vPos := h.chosenR - 1
	if vPos == 0 {
		vPos = h.scopeSize
	}
	if h.cycindex == h.chosenR {
		h.isUPort = true
		h.twin = h.pred
	} else if h.cycindex == vPos {
		h.isVPort = true
		h.twin = h.succ
	}
}

// applyHypRotation renumbers hypIdx and flips orientation for hypernodes in
// the reversed segment (j, h]. The port whose hypernode lands at index h and
// currently is the exit becomes the actor.
func (h *hyperPhase) applyHypRotation(hh, j int32, step, initRound int64) {
	if step > h.steps {
		h.steps = step
	}
	if !(h.isUPort || h.isVPort) {
		return
	}
	if !(j < h.hypIdx && h.hypIdx <= hh) {
		return
	}
	h.hypIdx = hh + j + 1 - h.hypIdx
	h.reverse = !h.reverse
	if h.hypIdx == hh && h.exitPort() {
		h.amActor = true
		h.actAfter = initRound + h.B + 1
	} else {
		h.amActor = false
	}
}

// absorbPortTraffic handles probes, relays and rejects addressed to this
// port.
func (h *hyperPhase) absorbPortTraffic(ctx *congest.Context, inbox []congest.Envelope) {
	if !ctx.Received(wire.KindProgress) && !ctx.Received(wire.KindRelay) && !ctx.Received(wire.KindReject) {
		return
	}
	for _, env := range inbox {
		switch env.Msg.Kind {
		case wire.KindProgress:
			h.handleProbe(ctx, env.From, env.Msg.Arg(0), int64(env.Msg.Arg(1)))
		case wire.KindRelay:
			// Twin adopted the hyperpath by extension: mirror and act
			// (the relaying port is the entry, so we are the exit).
			h.hypIdx = env.Msg.Arg(0)
			h.reverse = env.Msg.Arg(1) == 1
			if s := int64(env.Msg.Arg(2)); s > h.steps {
				h.steps = s
			}
			h.amActor = true
			h.actAfter = ctx.Round() + 1
		case wire.KindReject:
			if s := int64(env.Msg.Arg(0)); s > h.steps {
				h.steps = s
			}
			h.amActor = true
			h.actAfter = ctx.Round() + 1
		}
	}
}

// handleProbe is the receiving port's decision (the hypernode analogue of
// Algorithm 1's OnReceive progress).
func (h *hyperPhase) handleProbe(ctx *congest.Context, prober graph.NodeID, pos int32, stepsBefore int64) {
	if h.status != dra.Running || !(h.isUPort || h.isVPort) {
		return
	}
	h.pool.Remove(prober)
	switch {
	case h.hypIdx == 1 && h.enterPort() && pos == h.K:
		// Spanning hyperpath reached the tail's free entry: close.
		h.steps = stepsBefore + 1
		h.status = dra.Succeeded
		h.terminalSeen = true
		h.terminalRound = ctx.Round()
		h.forwardTree(ctx, wire.Msg(wire.KindSuccess, 1, tagPhase2DRA,
			int32(h.steps), int32(ctx.Round())), -1)
	case h.hypIdx == 0:
		// Extension: this port becomes the entry; the twin is the exit.
		h.hypIdx = pos + 1
		h.reverse = h.isVPort // entering at v means flipped orientation
		h.steps = stepsBefore + 1
		ctx.Send(h.twin, wire.Msg(wire.KindRelay,
			h.hypIdx, boolArg(h.reverse), int32(h.steps)))
	case h.exitPort():
		// Valid rotation point: reverse the segment after us.
		h.steps = stepsBefore + 1
		h.lastRotStep = h.steps
		rot := wire.Msg(wire.KindRotation, pos, h.hypIdx, int32(h.steps), int32(ctx.Round()))
		h.forwardTree(ctx, rot, -1)
		h.applyHypRotation(pos, h.hypIdx, h.steps, ctx.Round())
	default:
		// Probe landed on an occupied entry port: reject and let the
		// head retry (counts as a consumed step).
		ctx.Send(prober, wire.Msg(wire.KindReject, int32(stepsBefore+1)))
	}
}

// act performs the head's probe from its exit port.
func (h *hyperPhase) act(ctx *congest.Context) {
	h.amActor = false
	// The budget is tested before the draw, so an exhausted budget consumes
	// no randomness.
	var target graph.NodeID
	ok := h.steps < h.maxSteps
	if ok {
		target, ok = h.pool.Pop(ctx.Rand())
	}
	if !ok {
		h.status = dra.Failed
		h.terminalSeen = true
		h.terminalRound = ctx.Round()
		h.forwardTree(ctx, wire.Msg(wire.KindSuccess, 0, tagPhase2DRA,
			int32(h.steps), int32(ctx.Round())), -1)
		return
	}
	ctx.Send(target, wire.Msg(wire.KindProgress, h.hypIdx, int32(h.steps)))
	ctx.AddWork(1)
}

// forwardTree relays a phase-wide flood along the global BFS tree (skipping
// the edge it arrived on). A tree has no cycles, so every node receives each
// flood exactly once and the watermark dedup is belt and braces only.
func (h *hyperPhase) forwardTree(ctx *congest.Context, m wire.Message, except graph.NodeID) {
	for _, nb := range h.tree {
		if nb != except {
			ctx.Send(nb, m)
		}
	}
}
