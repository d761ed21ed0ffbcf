package core

import (
	"dhc/internal/congest"
	"dhc/internal/graph"
	"dhc/internal/wire"
)

// mergePhase implements DHC2's Phase 2 (paper Algorithm 3, Fig. 3): the
// n^{1-δ} partition subcycles merge pairwise in ⌈log₂ K⌉ parallel levels.
// At each level, consecutive colors pair up (2a with 2a+1); the active
// (even-colored) cycle's nodes probe the partner cycle for a "bridge" — two
// graph edges that connect a cycle edge (v → u) of the active cycle with a
// cycle edge of the partner so that deleting both cycle edges and inserting
// the two graph edges yields one cycle over the union. Each pair commits the
// smallest discovered bridge, patches the four endpoint pointers, reverses
// the partner cycle's orientation when the bridge demands it, and every node
// halves its color for the next level.
//
// Bandwidth adaptation (a deviation from the paper): lines 14-16 have a
// passive node relay every incoming verify(u) to its cycle neighbors, which
// can exceed the CONGEST per-edge budget when many actives probe the same
// passive node in one round. Here a passive node checks only the smallest
// incoming probe per level; the expected number of discovered bridges per
// pair retains the Θ(s_i·s_j·p²) order of Lemma 8.
//
// Unlike Phase 1's DRA, merging needs no position indices — only the
// succ/pred pointers, which is exactly the paper's output format.
type mergePhase struct {
	// B is the current level's broadcast settling bound, K the initial
	// color count. A level's floods run within a union of partitions,
	// which, like a single colour class, can have a larger diameter than
	// the whole graph, and no node measures it. But if every node of the
	// union has a neighbor in each of its partitions, any two of its nodes
	// are at most one hop plus one partition's diameter apart, so the
	// union settles within the largest partition bound, tight
	// (phase1.phase2B). Phase 1's barrier tells every node how many levels,
	// from level 0, all nodes vouch for that way (tightLevels,
	// phase1.vouchedMergeLevels); those levels wait tight, and the rest
	// wait wide, the larger of tight and the global bound the partition
	// windows wait before their own measurement (phase1Config.B, with its
	// floor). A level whose floods fail to settle leaves pointers the final
	// cycle verification rejects.
	B           int64
	tight, wide int64
	tightLevels int32
	K           int32

	color int32
	// nbColor[port] is the color the neighbor on that port announced this
	// level, -1 until it has (see recordColors); nbKnown counts the
	// announced ports. The table is refilled, not reallocated, per level.
	nbColor []int32
	nbKnown int
	// scopePorts/partnerPorts cache the same-color and partner-color
	// neighbors as ascending ports for this level, rebuilt from the level's
	// color exchange so the flood hot paths hand flat slices to SendPorts
	// instead of filtering every neighbor. Each level refills both lists.
	scopePorts   []int32
	partnerPorts []int32
	succ         graph.NodeID
	pred         graph.NodeID

	level      int32
	levelStart int64

	// per-level scratch, reset at each level start
	pendingProbe  probe // the probe this passive node is verifying
	confirmedSucc bool
	confirmedPred bool
	bestVerified  verified // best bridge reply at an active node
	bestCand      candidate
	reverseDone   bool // reverse flood forwarded this level
}

type probe struct {
	active graph.NodeID // the probing active node v
	u      graph.NodeID // succ(v), carried by the probe
	valid  bool
}

type verified struct {
	w       graph.NodeID // passive bridge endpoint adjacent to v
	wprime  graph.NodeID // its cycle neighbor adjacent to u
	crossed bool         // true when wprime = pred(w) (orientation kept)
	valid   bool
}

type candidate struct {
	v, w, wprime graph.NodeID
	crossed      bool
	valid        bool
}

// Level round offsets (within a level of length levelRounds):
//
//	+0  color exchange        +4   verified replies to actives
//	+1  actives send probes   +5   candidate floods start
//	+2  passives query cycle  +5+B candidate floods settled
//	    neighbors             +6+B buildBridge commit
//	+3  adjacency replies     +7+B reverse flood starts
//	                          +7+2B reverse settled; halve colors
func (m *mergePhase) levelRounds() int64 { return 2*m.B + 10 }

// levels returns the number of merge levels ⌈log₂ K⌉.
func (m *mergePhase) levels() int32 { return numMergeLevels(m.K) }

// numMergeLevels returns the number of merge levels for k colors, ⌈log₂ k⌉.
func numMergeLevels(k int32) int32 {
	lv := int32(0)
	for ; k > 1; k = (k + 1) / 2 {
		lv++
	}
	return lv
}

// recycled returns a zero phase for k colors that keeps the backing arrays
// of m's per-port tables, which every level refills.
func (m *mergePhase) recycled(k int32) mergePhase {
	return mergePhase{K: k, nbColor: m.nbColor, scopePorts: m.scopePorts[:0], partnerPorts: m.partnerPorts[:0]}
}

// start initializes the phase from Phase 1 results: the levels below
// tightLevels wait tight, the rest wide (see B).
func (m *mergePhase) start(color int32, succ, pred graph.NodeID, startRound, tight, wide int64, tightLevels int32) {
	m.color = color
	m.succ = succ
	m.pred = pred
	m.tight, m.wide, m.tightLevels = tight, wide, tightLevels
	m.level = 0
	m.levelStart = startRound
	m.resetLevel()
}

// resetLevel clears the per-level scratch and sets the level's bound.
func (m *mergePhase) resetLevel() {
	m.B = m.wide
	if m.level < m.tightLevels {
		m.B = m.tight
	}
	m.nbKnown = 0
	m.scopePorts = m.scopePorts[:0]
	m.partnerPorts = m.partnerPorts[:0]
	m.pendingProbe = probe{}
	m.confirmedSucc = false
	m.confirmedPred = false
	m.bestVerified = verified{}
	m.bestCand = candidate{}
	m.reverseDone = false
}

// active reports whether this node's cycle initiates the merge this level.
func (m *mergePhase) activeThisLevel() bool {
	return m.color%2 == 0 && m.color+1 < m.colorsAtLevel()
}

// passiveThisLevel reports whether this node's cycle is a merge target.
func (m *mergePhase) passiveThisLevel() bool {
	return m.color%2 == 1
}

// colorsAtLevel returns the number of colors remaining at the current level.
func (m *mergePhase) colorsAtLevel() int32 {
	k := m.K
	for l := int32(0); l < m.level; l++ {
		k = (k + 1) / 2
	}
	return k
}

func (m *mergePhase) inScope(port int) bool { return m.nbColor[port] == m.color }

func (m *mergePhase) partnerScope(port int) bool {
	c := m.nbColor[port]
	if c < 0 {
		return false
	}
	if m.activeThisLevel() {
		return c == m.color+1
	}
	return c == m.color-1
}

// nextWake declares the merge phase's wake-up discipline: within each level
// every node performs empty-inbox work at exactly three offsets — the color
// exchange at +0, the bridge commit at +6+B (the winning active node acts on
// its flooded minimum without necessarily receiving anything that round),
// and the level advance at the final offset (every node halves its color
// and re-arms, messages or not). All other offsets only react to deliveries.
// Returns 0 once all levels completed.
func (m *mergePhase) nextWake(now int64) int64 {
	if m.level >= m.levels() {
		// Already terminal (K = 1 has zero levels): one more tick at or
		// after the phase start reports completion so the embedder halts,
		// exactly when the dense sweep would.
		if now < m.levelStart {
			return m.levelStart
		}
		return now + 1
	}
	if now < m.levelStart {
		return m.levelStart
	}
	off := now - m.levelStart
	for _, o := range [...]int64{0, 6 + m.B, m.levelRounds() - 1} {
		if off < o {
			return m.levelStart + o
		}
	}
	// Past the final offset without having advanced (the caller invoked us
	// before ticking this round); run next round to catch up.
	return now + 1
}

// tick advances the merge phase one round; the caller must only invoke it
// for rounds >= the phase start. It returns true when all levels completed.
func (m *mergePhase) tick(ctx *congest.Context, inbox []congest.Envelope) bool {
	if m.level >= m.levels() {
		return true
	}
	off := ctx.Round() - m.levelStart
	switch {
	case off == 0:
		ctx.SendPorts(ctx.AllPorts(), -1, wire.Msg(wire.KindColor, m.color))
	case off == 1:
		m.nbColor = unknownColors(m.nbColor, ctx.Degree())
		m.nbKnown = recordColors(ctx, inbox, m.nbColor)
		for port := range m.nbColor {
			if m.inScope(port) {
				m.scopePorts = append(m.scopePorts, int32(port))
			} else if m.partnerScope(port) {
				m.partnerPorts = append(m.partnerPorts, int32(port))
			}
		}
		if m.activeThisLevel() {
			// Algorithm 3 line 7: announce the cycle edge (v, succ(v))
			// to every partner-colored neighbor.
			ctx.SendPorts(m.partnerPorts, -1, wire.Msg(wire.KindVerify, int32(m.succ)))
		}
	case off == 2:
		m.handleProbes(ctx, inbox)
	case off == 3:
		m.handleQueries(ctx, inbox)
	case off == 4:
		m.handleQueryReplies(ctx, inbox)
	case off == 5:
		m.handleVerified(ctx, inbox)
	case off > 5 && off <= 5+m.B:
		m.absorbCandidates(ctx, inbox)
	case off == 6+m.B:
		m.absorbCandidates(ctx, inbox)
		m.commitBridge(ctx)
	case off >= 7+m.B && off < 7+2*m.B:
		m.handleBridgeAndReverse(ctx, inbox)
	case off == m.levelRounds()-1:
		m.handleBridgeAndReverse(ctx, inbox)
		// Level complete: halve colors and advance.
		m.color /= 2
		m.level++
		m.levelStart += m.levelRounds()
		m.resetLevel()
		if m.level >= m.levels() {
			return true
		}
	default:
		// Settling rounds: keep consuming floods.
		m.absorbCandidates(ctx, inbox)
		m.handleBridgeAndReverse(ctx, inbox)
	}
	ctx.ObserveMemory(int64(m.nbKnown) + 24)
	return false
}

// handleProbes runs at passive nodes: select the smallest probe and query
// both cycle neighbors about adjacency to u.
func (m *mergePhase) handleProbes(ctx *congest.Context, inbox []congest.Envelope) {
	if !m.passiveThisLevel() || !ctx.Received(wire.KindVerify) {
		return
	}
	for _, env := range inbox {
		if env.Msg.Kind != wire.KindVerify {
			continue
		}
		// Inboxes arrive sorted by sender, so the first is the smallest v.
		m.pendingProbe = probe{active: env.From, u: graph.NodeID(env.Msg.Arg(0)), valid: true}
		break
	}
	if m.pendingProbe.valid {
		ctx.Send(m.succ, wire.Msg(wire.KindQuery, int32(m.pendingProbe.u)))
		ctx.Send(m.pred, wire.Msg(wire.KindQuery, int32(m.pendingProbe.u)))
		ctx.AddWork(1)
	}
}

// handleQueries answers adjacency questions from cycle neighbors
// (Algorithm 3 line 15: "ask succ(v) and pred(v) if they have u as their
// neighbor").
func (m *mergePhase) handleQueries(ctx *congest.Context, inbox []congest.Envelope) {
	if !ctx.Received(wire.KindQuery) {
		return
	}
	for _, env := range inbox {
		if env.Msg.Kind != wire.KindQuery {
			continue
		}
		u := graph.NodeID(env.Msg.Arg(0))
		ans := int32(0)
		if ctx.HasNeighbor(u) {
			ans = 1
		}
		ctx.Send(env.From, wire.Msg(wire.KindQueryReply, int32(u), ans))
		ctx.AddWork(1)
	}
}

// handleQueryReplies collects adjacency answers and reports a verified
// bridge to the probing active node (Algorithm 3 line 16).
func (m *mergePhase) handleQueryReplies(ctx *congest.Context, inbox []congest.Envelope) {
	if !m.pendingProbe.valid {
		return
	}
	if ctx.Received(wire.KindQueryReply) {
		for _, env := range inbox {
			if env.Msg.Kind != wire.KindQueryReply {
				continue
			}
			if graph.NodeID(env.Msg.Arg(0)) != m.pendingProbe.u {
				continue
			}
			if env.Msg.Arg(1) == 1 {
				if env.From == m.succ {
					m.confirmedSucc = true
				}
				if env.From == m.pred {
					m.confirmedPred = true
				}
			}
		}
	}
	switch {
	case m.confirmedSucc:
		// Bridge removes partner cycle edge (w -> succ(w)): partner
		// orientation reverses (parallel bridge).
		ctx.Send(m.pendingProbe.active,
			wire.Msg(wire.KindVerified, int32(ctx.ID()), int32(m.succ), 0))
	case m.confirmedPred:
		// Bridge removes (pred(w) -> w): orientation kept (crossed).
		ctx.Send(m.pendingProbe.active,
			wire.Msg(wire.KindVerified, int32(ctx.ID()), int32(m.pred), 1))
	}
}

// handleVerified runs at active nodes: choose the smallest verified bridge
// and flood it within the active cycle for global minimum selection.
func (m *mergePhase) handleVerified(ctx *congest.Context, inbox []congest.Envelope) {
	if !m.activeThisLevel() {
		return
	}
	if ctx.Received(wire.KindVerified) {
		for _, env := range inbox {
			if env.Msg.Kind != wire.KindVerified {
				continue
			}
			w := graph.NodeID(env.Msg.Arg(0))
			if !m.bestVerified.valid || w < m.bestVerified.w {
				m.bestVerified = verified{
					w:       w,
					wprime:  graph.NodeID(env.Msg.Arg(1)),
					crossed: env.Msg.Arg(2) == 1,
					valid:   true,
				}
			}
		}
	}
	if m.bestVerified.valid {
		cand := wire.Msg(wire.KindBridgeCand,
			int32(ctx.ID()), int32(m.bestVerified.w), int32(m.bestVerified.wprime),
			boolArg(m.bestVerified.crossed))
		if m.noteCandidate(cand) {
			m.floodScope(ctx, cand, -1)
		}
	}
}

func boolArg(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// absorbCandidates participates in the candidate flood with monotone
// min-flooding (Algorithm 3 lines 10-11): a node forwards a candidate only
// when it improves its current minimum, so each edge carries at most one
// candidate message per round and the minimum still reaches every node of
// the cycle within its diameter.
func (m *mergePhase) absorbCandidates(ctx *congest.Context, inbox []congest.Envelope) {
	if !ctx.Received(wire.KindBridgeCand) {
		return
	}
	improved := false
	for _, env := range inbox {
		if env.Msg.Kind != wire.KindBridgeCand {
			continue
		}
		if m.noteCandidate(env.Msg) {
			improved = true
		}
	}
	if improved {
		m.floodScope(ctx, wire.Msg(wire.KindBridgeCand,
			int32(m.bestCand.v), int32(m.bestCand.w), int32(m.bestCand.wprime),
			boolArg(m.bestCand.crossed)), -1)
	}
}

// noteCandidate returns true if the candidate improves the current minimum.
func (m *mergePhase) noteCandidate(msg wire.Message) bool {
	c := candidate{
		v:       graph.NodeID(msg.Arg(0)),
		w:       graph.NodeID(msg.Arg(1)),
		wprime:  graph.NodeID(msg.Arg(2)),
		crossed: msg.Arg(3) == 1,
		valid:   true,
	}
	if !m.bestCand.valid || c.v < m.bestCand.v {
		m.bestCand = c
		return true
	}
	return false
}

// commitBridge runs at the winning active node v*: patch own pointers, tell
// u = succ(v*) its new predecessor, and tell w to build the bridge
// (Algorithm 3 line 12).
func (m *mergePhase) commitBridge(ctx *congest.Context) {
	if !m.activeThisLevel() || !m.bestCand.valid || m.bestCand.v != ctx.ID() {
		return
	}
	u := m.succ
	// Inform u: its predecessor becomes wprime in both bridge shapes.
	ctx.Send(u, wire.Msg(wire.KindBuildBridge, 2, int32(m.bestCand.wprime)))
	// Commit w's side.
	ctx.Send(m.bestCand.w, wire.Msg(wire.KindBuildBridge, 1,
		int32(m.bestCand.wprime), int32(u), boolArg(m.bestCand.crossed)))
	// Own patch: v*'s successor becomes w.
	m.succ = m.bestCand.w
	ctx.AddWork(1)
}

// handleBridgeAndReverse processes buildBridge commits and the partner
// cycle's reversal flood.
func (m *mergePhase) handleBridgeAndReverse(ctx *congest.Context, inbox []congest.Envelope) {
	if !ctx.Received(wire.KindBuildBridge) && !ctx.Received(wire.KindReverse) {
		return
	}
	for _, env := range inbox {
		switch env.Msg.Kind {
		case wire.KindBuildBridge:
			switch env.Msg.Arg(0) {
			case 2:
				// We are u = succ(v*): new predecessor is wprime.
				m.pred = graph.NodeID(env.Msg.Arg(1))
			case 1:
				// We are w.
				wprime := graph.NodeID(env.Msg.Arg(1))
				u := graph.NodeID(env.Msg.Arg(2))
				crossed := env.Msg.Arg(3) == 1
				if crossed {
					// Orientation kept: w's predecessor edge was removed.
					m.pred = env.From // v*
					// wprime (= old pred) must point its succ at u.
					ctx.Send(wprime, wire.Msg(wire.KindReverse, int32(wprime), int32(u), 1))
				} else {
					// Parallel bridge: whole partner cycle reverses.
					rev := wire.Msg(wire.KindReverse, int32(wprime), int32(u), 0)
					m.applyReverse(ctx, rev)
					m.pred = env.From // patch after the swap
					m.floodScope(ctx, rev, -1)
				}
			}
		case wire.KindReverse:
			if env.Msg.Arg(2) == 1 {
				// Direct patch (crossed bridge): we are wprime.
				if graph.NodeID(env.Msg.Arg(0)) == ctx.ID() {
					m.succ = graph.NodeID(env.Msg.Arg(1))
				}
				continue
			}
			if m.reverseDone {
				continue
			}
			m.applyReverse(ctx, env.Msg)
			m.floodScope(ctx, env.Msg, env.From)
		}
	}
}

// applyReverse swaps this node's pred/succ (the whole partner cycle flips
// orientation) and applies wprime's succ patch when this node is wprime.
func (m *mergePhase) applyReverse(ctx *congest.Context, msg wire.Message) {
	m.reverseDone = true
	m.succ, m.pred = m.pred, m.succ
	if graph.NodeID(msg.Arg(0)) == ctx.ID() {
		m.succ = graph.NodeID(msg.Arg(1))
	}
}

func (m *mergePhase) floodScope(ctx *congest.Context, msg wire.Message, except graph.NodeID) {
	ctx.SendPorts(m.scopePorts, except, msg)
}
