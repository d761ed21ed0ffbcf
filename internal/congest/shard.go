package congest

import (
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
	"unsafe"

	"dhc/internal/bitset"
	"dhc/internal/graph"
	"dhc/internal/metrics"
	"dhc/internal/rng"
	"dhc/internal/wire"
)

// Record is one outbox entry: a message from one sender to receivers To,
// in send order. It is the unit a node's outbox holds, Step moves and the
// distributed engine carries between shards; delivery expands it to one
// metered message per receiver. To is a view into an arena owned by the
// producer (the sender's Context, the shard's split arena, or a decoder),
// valid until that producer's next Step or decode.
type Record struct {
	From graph.NodeID
	Msg  wire.Message
	To   []graph.NodeID
}

// StepReport is a shard's post-step summary, the input for global liveness
// and scheduling decisions. Halts are step-time-only and terminal, and
// Deliver never touches the wake schedule, so everything needed to schedule
// the next round — including the fields that logically describe the (not
// yet performed) delivery of this round's messages — is already final when
// Step returns.
type StepReport struct {
	// Live is the shard's non-halted node count after the step.
	Live int
	// NewlyHalted lists the local indices (vertex - Lo) of nodes that halted
	// during this step, ascending. The distributed coordinator folds them
	// into its global halted view so it can decide, for every routed
	// cross-shard message, whether delivery would activate the destination.
	// The slice is reused by the next Step.
	NewlyHalted []int32
	// LocalActive reports whether any locally-retained message targets a
	// non-halted local node: the shard's contribution to the global
	// has-active decision for traffic the coordinator never sees.
	LocalActive bool
	// EarliestWake/WakeOK mirror the scheduler's earliest pending wake-up
	// among live local nodes after this step's bookkeeping (WakeOK false
	// when none exists).
	EarliestWake int64
	WakeOK       bool
}

// Shard is the exact engine's executor. It runs the nodes of a contiguous
// vertex range [Lo, Hi) over one per-node state arena: active-set assembly,
// the wake scheduler, node invocation, the merge loop and bucketed,
// bandwidth-metered delivery. An in-process Network is one Shard spanning
// every vertex; the distributed engine composes K Shards behind transports.
// RunRounds drives both, so a distributed run is byte-identical to an
// in-process run by construction.
//
// The split of one round:
//
//	Step(r)    — build the local active set, invoke its nodes one by one
//	             in local-id order, merging each node's wake/halt
//	             bookkeeping as it returns, retain messages whose
//	             destination is also local, and return only the cross-shard
//	             outbox (sender-ascending).
//	Deliver(r) — accept the round's inbound cross-shard messages (the
//	             coordinator concatenates the other shards' batches in
//	             shard order) and splice the retained local messages into
//	             their sender position, reconstructing the global
//	             sender-ascending order, then meter bandwidth and fill
//	             inboxes. Local messages never cross the wire but are
//	             metered identically.
//
// Deliver must run before the next Step, since Step assumes the previous
// round's retained local messages have been drained.
//
// A Shard starts no goroutines and is not safe for concurrent use.
type Shard struct {
	g      *graph.Graph
	codec  wire.Codec
	opts   Options // normalized
	lo, hi int
	nodes  []Node // local programs, indexed v-lo

	halted []bool
	live   int
	ctxs   []*Context
	// boxes[v] is local node v's next-round inbox and delivery state.
	boxes     []mailbox
	msgActive []int32 // local indices
	active    []int32
	// inActive marks the members of the active set while Step assembles
	// it, so a node due by both delivery and wake-up runs once; Step leaves
	// it clear.
	inActive bitset.Set
	sched    scheduler
	counters *metrics.Counters // full-length; only [lo,hi) per-node entries used
	out      []Record
	// ports is the shared [0, max local degree) list Context.AllPorts views.
	ports []int32
	// split holds, for one round, the receivers route copies: both parts of
	// a record whose receivers do not ascend, and the cross part of one
	// that reaches past both ends of [Lo, Hi).
	split []graph.NodeID
	// bwGen is the current sender generation of the bandwidth accounting
	// (see mailbox).
	bwGen int64
	// run numbers the current run, unique among every shard's runs in the
	// process (see runs): a Scope is valid in the run that built it.
	run uint64
	// floods maps this Deliver's flood payloads to their tokens (see
	// mailbox.flood); lastToken is the token issued last.
	floods    []floodToken
	lastToken uint32

	// localPending holds this round's src/dst-local messages between Step
	// (which retains them) and Deliver (which splices them back into the
	// global sender order); newlyHalted is the reused StepReport buffer.
	localPending []Record
	newlyHalted  []int32
	// localRouted/crossRouted are cumulative per-edge message counts by
	// routing class, the shard's half of the ShardStats local-vs-cross
	// split.
	localRouted int64
	crossRouted int64
}

// NewShard builds the executor for nodes [lo, hi) of an n-vertex network,
// as one of several shards. local must hold exactly hi-lo programs; opts is
// normalized here, so the caller may pass the same raw Options it would hand
// Network.Reset.
func NewShard(g *graph.Graph, local []Node, opts Options, lo, hi int) (*Shard, error) {
	n := g.N()
	if lo < 0 || hi > n || lo >= hi {
		return nil, fmt.Errorf("congest: shard range [%d,%d) invalid for %d vertices", lo, hi, n)
	}
	if len(local) != hi-lo {
		return nil, fmt.Errorf("congest: %d node programs for shard range [%d,%d)", len(local), lo, hi)
	}
	return newShard(g, local, NormalizeOptions(opts, n), lo, hi), nil
}

// newShard allocates the arena for [lo, hi); opts must be normalized.
func newShard(g *graph.Graph, local []Node, opts Options, lo, hi int) *Shard {
	k := hi - lo
	s := &Shard{
		g:        g,
		codec:    wire.NewCodec(g.N()),
		opts:     opts,
		lo:       lo,
		hi:       hi,
		nodes:    local,
		halted:   make([]bool, k),
		ctxs:     make([]*Context, k),
		boxes:    make([]mailbox, k),
		inActive: bitset.Make(k),
		sched:    newScheduler(k),
	}
	for v := range s.ctxs {
		s.ctxs[v] = &Context{sh: s, id: graph.NodeID(lo + v), rng: &rng.Source{}}
	}
	return s
}

// runs numbers the runs of every shard in the process, so that a Scope of
// one network's run is never taken for another's.
var runs atomic.Uint64

// Begin readies the shard for a run: it clears what a previous run left
// (halts, inboxes, the wake schedule, retained messages), starts fresh
// counters, sizes the AllPorts list for the bound graph, and derives the
// local nodes' RNG streams from seed. SplitInto never advances the root
// source, so a shard deriving only its own range produces the same streams
// a whole-network shard derives for it. Every backing array is kept, so a
// rerun allocates nothing up front but its counters.
func (s *Shard) Begin(seed uint64) {
	root := rng.New(seed)
	s.run = runs.Add(1)
	s.inActive.Reset()
	for v, ctx := range s.ctxs {
		s.halted[v] = false
		s.boxes[v].envs, s.boxes[v].kinds = s.boxes[v].envs[:0], 0
		root.SplitInto(ctx.rng, uint64(s.lo+v))
	}
	s.live = len(s.ctxs)
	maxDeg := 0
	for v := s.lo; v < s.hi; v++ {
		maxDeg = max(maxDeg, s.g.Degree(graph.NodeID(v)))
	}
	for p := len(s.ports); p < maxDeg; p++ {
		s.ports = append(s.ports, int32(p))
	}
	s.msgActive, s.localPending = s.msgActive[:0], s.localPending[:0]
	s.sched.reset()
	s.counters = metrics.NewCounters(s.g.N())
	s.localRouted, s.crossRouted = 0, 0
}

// N returns the full network's vertex count.
func (s *Shard) N() int { return s.g.N() }

// Lo returns the first vertex of the shard's range.
func (s *Shard) Lo() int { return s.lo }

// Hi returns one past the last vertex of the shard's range.
func (s *Shard) Hi() int { return s.hi }

// Counters returns the shard's metering: the scalar message/invocation
// totals it contributed plus the per-node entries of its range. The
// coordinator merges shard counters into the run totals.
func (s *Shard) Counters() *metrics.Counters { return s.counters }

// Step executes round `round` (Init when isInit) for the shard's nodes and
// returns the cross-shard outbound records in sender-ascending order;
// receivers that are also in [Lo, Hi) are retained for the next Deliver
// instead of being shipped (a record with receivers on both sides is split
// into a local and a cross record, each keeping its receivers' send
// order). The Init round and Options.DenseSweep invoke every live node;
// other rounds invoke the nodes with deliveries or a due wake-up. The
// returned slice is reused by the next Step.
func (s *Shard) Step(round int64, isInit bool) ([]Record, StepReport, error) {
	active := s.active[:0]
	if isInit || s.opts.DenseSweep {
		for v := range s.nodes {
			if !s.halted[v] {
				active = append(active, int32(v))
			}
		}
	} else {
		for _, v := range s.msgActive {
			// Receivers are recorded at delivery time, after all halts of
			// the sending round were merged, so they are live and unique.
			s.inActive.Add(int(v))
			active = append(active, v)
		}
		active = s.sched.popDue(round, s.halted, s.inActive, active)
		// Ascending order makes outbox concatenation (and thus delivery
		// order and inbox sender order) deterministic and sender-grouped.
		active = s.idOrder(active)
	}
	s.msgActive = s.msgActive[:0]
	s.active = active

	// Invoke and merge in one pass in local-id order, so error selection,
	// halt bookkeeping and outbox concatenation are deterministic and,
	// across shards, position-identical to one shard spanning every vertex.
	// Splitting the outbox by destination preserves sender order within
	// each class: the local and cross streams are both subsequences of the
	// sender-ascending whole.
	out := s.out[:0]
	local := s.localPending[:0]
	s.split = s.split[:0]
	nh := s.newlyHalted[:0]
	eventDriven := !s.opts.DenseSweep
	whole := s.hi-s.lo == s.g.N() // every target is local
	rep := StepReport{}
	for _, v := range active {
		ctx := s.invokeOne(v, round, isInit)
		if ctx.err != nil {
			s.out, s.localPending, s.newlyHalted = out, local, nh
			rep.Live = s.live
			return nil, rep, ctx.err
		}
		s.counters.Invocations++
		if ctx.halted {
			s.halted[v] = true
			s.live--
			s.sched.noteHalt(v)
			nh = append(nh, v)
		} else if eventDriven && ctx.wakeAt > 0 {
			s.sched.arm(v, ctx.wakeAt)
		}
		if ctx.memWords > 0 {
			s.counters.ObserveMemory(s.lo+int(v), ctx.memWords)
		}
		if ctx.workOps > 0 {
			s.counters.AddWork(s.lo+int(v), ctx.workOps)
		}
		if whole {
			local = append(local, ctx.outbox...)
			for i := range ctx.outbox {
				s.localRouted += int64(len(ctx.outbox[i].To))
			}
			continue
		}
		for i := range ctx.outbox {
			local, out = s.route(&ctx.outbox[i], local, out)
		}
	}
	s.out, s.localPending, s.newlyHalted = out, local, nh
	rep.Live = s.live
	rep.NewlyHalted = nh
	// Halts are final for the round here, so whether a retained local
	// message will activate its destination is already decided.
	for i := 0; i < len(local) && !rep.LocalActive; i++ {
		for _, to := range local[i].To {
			if !s.halted[int(to)-s.lo] {
				rep.LocalActive = true
				break
			}
		}
	}
	rep.EarliestWake, rep.WakeOK = s.sched.earliestWake(s.halted)
	return out, rep, nil
}

// idOrder returns the marked active set in ascending local id, read back
// from the mark words in O((Hi-Lo)/64 + k), and clears the marks. It
// reuses active's backing array and allocates nothing.
func (s *Shard) idOrder(active []int32) []int32 {
	active = active[:0]
	for w, word := range s.inActive {
		if word == 0 {
			continue
		}
		s.inActive[w] = 0
		for ; word != 0; word &= word - 1 {
			active = append(active, int32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return active
}

// route appends r to local when every receiver is in [Lo, Hi), to out when
// none is, and otherwise splits it into a local and a cross record, each
// part in send order. It counts r's edges by routing class. Ascending
// receivers are split by two binary searches into views of r.To; only a
// cross part that reaches past both ends of the range is copied, into
// split, as are both parts of a record whose receivers do not ascend.
func (s *Shard) route(r *Record, local, out []Record) ([]Record, []Record) {
	to := r.To
	var in, cross []graph.NodeID
	if slices.IsSorted(to) {
		a := lowerBound(to, graph.NodeID(s.lo))
		b := a + lowerBound(to[a:], graph.NodeID(s.hi))
		in = to[a:b:b]
		switch {
		case a == 0:
			cross = to[b:]
		case b == len(to):
			cross = to[:a:a]
		default:
			c0 := len(s.split)
			s.split = append(append(s.split, to[:a]...), to[b:]...)
			cross = s.split[c0:len(s.split):len(s.split)]
		}
	} else {
		l0 := len(s.split)
		for _, v := range to {
			if s.owns(v) {
				s.split = append(s.split, v)
			}
		}
		c0 := len(s.split)
		for _, v := range to {
			if !s.owns(v) {
				s.split = append(s.split, v)
			}
		}
		in, cross = s.split[l0:c0:c0], s.split[c0:len(s.split):len(s.split)]
	}
	s.localRouted += int64(len(in))
	s.crossRouted += int64(len(cross))
	if len(in) > 0 {
		local = append(local, Record{From: r.From, Msg: r.Msg, To: in})
	}
	if len(cross) > 0 {
		out = append(out, Record{From: r.From, Msg: r.Msg, To: cross})
	}
	return local, out
}

// lowerBound returns the index of the first of the ascending ids that is
// at least v, len(ids) if none is.
func lowerBound(ids []graph.NodeID, v graph.NodeID) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); ids[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// owns reports whether vertex v is in the shard's range.
func (s *Shard) owns(v graph.NodeID) bool { return uint(int(v)-s.lo) < uint(s.hi-s.lo) }

// mailbox is one local receiver's delivery state, one struct rather than
// parallel arrays so that delivering a message touches one cache line.
type mailbox struct {
	// envs holds the messages delivered for the next round, in delivery
	// order.
	envs []Envelope
	// bwBits accumulates the bits the current sender pushed to this
	// receiver this round, valid while bwStamp equals the shard's sender
	// generation. Generations never repeat, so neither needs clearing
	// between senders, rounds or runs. Only the per-edge loop of
	// deliverRecord stamps: an edge that cannot overrun is not stamped.
	bwStamp, bwBits int64
	// kinds is envs' kind mask: bit kindBit(k) is set iff envs holds a
	// message of kind k. invokeOne hands it to the Context, so
	// Context.Received costs one AND.
	kinds uint32
	// flood is the token (see Shard.floodToken) of a flood payload envs
	// holds, or a token no payload of this round carries. Tokens are unique
	// per Deliver until the counter wraps, and the wrap clears every
	// mailbox's token, so a match proves the payload is held.
	flood uint32
}

// The mailbox is one slice header and 24 bytes of fields: 48 bytes on a
// 64-bit platform, with the flood token in what was padding.
var (
	_ [unsafe.Sizeof(mailbox{}) - unsafe.Sizeof([]Envelope(nil)) - 24]struct{}
	_ [unsafe.Sizeof([]Envelope(nil)) + 24 - unsafe.Sizeof(mailbox{})]struct{}
)

// holds reports whether envs already holds *m, a message of a flood kind
// whose kind bit is bit: delivery keeps only the first copy of a flood
// payload per receiver per round. It scans envs; a receiver whose flood
// token matches the payload's is known to hold it without the scan.
func (b *mailbox) holds(m *wire.Message, bit uint32) bool {
	if b.kinds&bit == 0 {
		return false
	}
	for i := range b.envs {
		if b.envs[i].Msg == *m {
			return true
		}
	}
	return false
}

// floodToken is a flood payload of the current Deliver and its token.
type floodToken struct {
	msg wire.Message
	tok uint32
}

// maxFloodTokens caps the payloads one Deliver remembers. A payload past
// the cap gets a fresh token per record, which only costs the receivers of
// its later records a scan. Exact DHC2 with K = 8 on G(n, 32 ln n/n) has a
// median of 3 and at most 7 (n = 512) or 8 (n = 4096) distinct flood
// payloads in a Deliver, so the cap leaves twice the largest count.
const maxFloodTokens = 16

// floodToken returns the token of flood payload m in this Deliver: every
// record of one payload gets the same token, and no other payload of any
// Deliver gets it until the counter wraps. The wrap clears every mailbox's
// token and the payload table, so an old token is never taken for a new one.
func (s *Shard) floodToken(m *wire.Message) uint32 {
	for i := len(s.floods) - 1; i >= 0; i-- {
		if s.floods[i].msg == *m {
			return s.floods[i].tok
		}
	}
	if s.lastToken++; s.lastToken == 0 {
		for v := range s.boxes {
			s.boxes[v].flood = 0
		}
		s.floods = s.floods[:0]
		s.lastToken = 1
	}
	if len(s.floods) < maxFloodTokens {
		s.floods = append(s.floods, floodToken{msg: *m, tok: s.lastToken})
	}
	return s.lastToken
}

// floodKinds is the kind mask of the idempotent flood kinds (wire.Kind.Flood).
var floodKinds = func() uint32 {
	var mask uint32
	for k := wire.Kind(1); k.Valid(); k++ {
		if k.Flood() {
			mask |= kindBit(k)
		}
	}
	return mask
}()

// invokeOne runs node v's Init or Round call and returns its context.
func (s *Shard) invokeOne(v int32, round int64, isInit bool) *Context {
	ctx := s.ctxs[v]
	ctx.reset(round)
	if isInit {
		s.nodes[v].Init(ctx)
		return ctx
	}
	box := &s.boxes[v]
	envs := box.envs
	ctx.kinds, box.kinds = box.kinds, 0
	s.nodes[v].Round(ctx, envs)
	// Recycle the bucket: the inbox is documented as valid only during the
	// Round call, so next round's deliveries may reuse the backing array.
	box.envs = envs[:0]
	return ctx
}

// Deliver routes this round's inbound records into next-round inbox
// buckets, in send order. Each message passes through FaultHook, is counted
// per edge, and is bucketed unless the receiver already holds the same
// flood payload this round (see deliverRecord). Bandwidth is checked per
// edge, but stamped only where an edge can overrun (see deliverRecord).
// inbound must be the concatenation of the OTHER shards' cross-shard
// records destined here, in shard order; the records Step retained locally
// are spliced back in at their sender position (inbound senders below Lo,
// then local, then the rest), which reconstructs the global
// sender-ascending order — runs of equal From stay contiguous, so each run
// is one bandwidth generation exactly as a whole-network shard sees it. It
// performs no comparison sort and, at steady state, no allocations.
func (s *Shard) Deliver(round int64, inbound []Record) error {
	below := 0
	for below < len(inbound) && int(inbound[below].From) < s.lo {
		below++
	}
	s.floods = s.floods[:0]
	parts := [...][]Record{inbound[:below], s.localPending, inbound[below:]}
	curFrom := graph.NodeID(-1)
	for p, part := range parts {
		after := graph.NodeID(-1) // the sender of the record after part
		for _, q := range parts[p+1:] {
			if len(q) > 0 {
				after = q[0].From
				break
			}
		}
		for i := range part {
			r := &part[i]
			next := after
			if i+1 < len(part) {
				next = part[i+1].From
			}
			first := r.From != curFrom
			if first {
				curFrom = r.From
				s.bwGen++
			}
			if err := s.deliverRecord(round, r, first && next != r.From); err != nil {
				return err
			}
		}
	}
	s.localPending = s.localPending[:0]
	return nil
}

// deliverRecord delivers one record; sole reports that no other record of
// this Deliver has the same sender. Its message size and kind bit are
// computed once; with a FaultHook set, each edge's hooked copy is sized,
// metered and masked on its own. Every copy is counted against its edge,
// but a copy of a flood kind (wire.Kind.Flood) whose exact payload, after
// the FaultHook, the receiver already holds this round is not appended: the
// receiver keeps the first copy in sender order, the one whose From a
// forwarding flood excludes.
//
// No edge of a sole, hook-free record that fits the budget can overrun
// while its receivers strictly ascend, since each such edge carries exactly
// this one message. Those receivers are delivered without bandwidth stamps;
// at the first receiver out of order, the receivers already delivered are
// stamped and the per-edge loop takes the rest. The per-edge loop stamps and
// checks every edge, and serves every other record.
func (s *Shard) deliverRecord(round int64, r *Record, sole bool) error {
	hook := s.opts.FaultHook
	sz := s.codec.Bits(r.Msg)
	bit := kindBit(r.Msg.Kind)
	tok := uint32(0)
	if hook == nil && bit&floodKinds != 0 {
		tok = s.floodToken(&r.Msg)
	}
	halted, boxes := s.halted, s.boxes
	i := 0
	if sole && hook == nil && sz <= s.opts.BandwidthBits {
		prev := -1
		for ; i < len(r.To); i++ {
			lv := int(r.To[i]) - s.lo
			if uint(lv) >= uint(len(halted)) {
				s.counters.AddMessages(int64(i), sz)
				return fmt.Errorf("congest: shard [%d,%d) received message for node %d", s.lo, s.hi, r.To[i])
			}
			if lv <= prev {
				for _, to := range r.To[:i] {
					box := &boxes[int(to)-s.lo]
					box.bwStamp, box.bwBits = s.bwGen, sz
				}
				break
			}
			prev = lv
			if box := &boxes[lv]; !halted[lv] && (tok == 0 || box.flood != tok) {
				s.bucket(box, lv, r.From, &r.Msg, bit, tok)
			}
		}
		s.counters.AddMessages(int64(i), sz)
		if i == len(r.To) {
			return nil
		}
	}
	gen, budget := s.bwGen, s.opts.BandwidthBits
	metered := int64(0) // hook-free messages metered so far, added in bulk
	for _, to := range r.To[i:] {
		lv := int(to) - s.lo
		if uint(lv) >= uint(len(halted)) {
			s.counters.AddMessages(metered, sz)
			return fmt.Errorf("congest: shard [%d,%d) received message for node %d", s.lo, s.hi, to)
		}
		m, bits, eBit := &r.Msg, sz, bit
		if hook != nil {
			hm, deliverIt := hook(round, r.From, to, r.Msg)
			if !deliverIt {
				continue
			}
			m, bits, eBit = &hm, s.codec.Bits(hm), kindBit(hm.Kind)
		}
		box := &boxes[lv]
		if box.bwStamp != gen {
			box.bwStamp, box.bwBits = gen, 0
		}
		if box.bwBits += bits; box.bwBits > budget {
			s.counters.AddMessages(metered, sz)
			return fmt.Errorf("%w: edge %d->%d carried %d bits in round %d (budget %d)",
				ErrBandwidth, r.From, to, box.bwBits, round, budget)
		}
		if hook != nil {
			s.counters.AddMessage(bits)
		} else {
			metered++
		}
		if !halted[lv] && (tok == 0 || box.flood != tok) { // a halted node is metered but consumes nothing
			s.bucket(box, lv, r.From, m, eBit, tok)
		}
	}
	s.counters.AddMessages(metered, sz)
	return nil
}

// bucket appends *m from sender from, of kind bit bit, to local receiver
// lv's inbox, unless it is a flood payload the receiver already holds; tok
// is the payload's token, or 0 for a hooked copy. Its callers skip a
// receiver whose token already matches, so the common duplicate costs no
// call.
func (s *Shard) bucket(box *mailbox, lv int, from graph.NodeID, m *wire.Message, bit, tok uint32) {
	if bit&floodKinds != 0 {
		if box.holds(m, bit) {
			return // the receiver reads one copy of a flood payload
		}
		if tok != 0 {
			box.flood = tok
		}
	}
	k := len(box.envs)
	if k == 0 {
		s.msgActive = append(s.msgActive, int32(lv))
	}
	if k < cap(box.envs) {
		box.envs = box.envs[:k+1]
	} else {
		box.envs = append(box.envs, Envelope{})
	}
	// The message is copied field by field: a whole-struct copy through a
	// pointer goes through a stack temporary, whose narrow stores and wide
	// reloads stall on store forwarding, and that was the costliest line
	// of delivery.
	e := &box.envs[k]
	e.From, e.Msg.Kind, e.Msg.NArgs = from, m.Kind, m.NArgs
	e.Msg.Args[0], e.Msg.Args[1], e.Msg.Args[2], e.Msg.Args[3] = m.Args[0], m.Args[1], m.Args[2], m.Args[3]
	box.kinds |= bit
}

// RoutedSplit returns the shard's cumulative per-edge message counts by
// routing class: messages retained and delivered locally versus messages
// shipped through the coordinator.
func (s *Shard) RoutedSplit() (local, cross int64) { return s.localRouted, s.crossRouted }
