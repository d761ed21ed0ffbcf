package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"dhc/internal/congest"
	"dhc/internal/metrics"
)

// ErrShardDown marks a transport-level failure: a shard died, its connection
// broke, or it missed the per-exchange deadline. It matches no algorithm
// sentinel, so dhc.Classify maps it to FailureError — a dead worker is an
// infrastructure fault, not evidence about the instance.
var ErrShardDown = errors.New("dist: shard connection lost")

// linkReq is one unit of work for a link's I/O goroutine: write this frame,
// and if reply is set, read one frame back.
type linkReq struct {
	payload []byte
	reply   bool
}

// linkRes is the I/O goroutine's answer to a reply-expecting request.
type linkRes struct {
	payload []byte
	err     error
}

// link is the coordinator's handle to one shard worker.
type link struct {
	shard  int
	lo, hi int
	fc     *frameConn
	enc    enc
	// out holds the shard's last reply's sections, indexed by destination
	// shard (its own entry stays empty). They alias the link's receive
	// buffer, so they are valid only until the link's next post.
	out []section

	// Pipelined I/O: reqCh feeds the link's ioLoop goroutine, resCh carries
	// one in-flight reply back. Capacities are sized so the coordinator
	// never blocks posting (at most BEGIN plus one fused exchange queued)
	// and the ioLoop never blocks replying (at most one reply outstanding).
	reqCh chan linkReq
	resCh chan linkRes
	ioErr error // sticky transport error; owned by ioLoop

	// Transport accounting, incremented by the coordinator goroutine.
	rtts            int64
	localMsgs       int64
	crossMsgs       int64
	batchBytesDelta int64
	batchBytesFixed int64

	// busyNanos and final arrive with the FINAL frame.
	busyNanos int64
	final     []byte
}

func (l *link) down(stage string, err error) error {
	return fmt.Errorf("%w: shard %d (%s): %v", ErrShardDown, l.shard, stage, err)
}

// ioLoop is the link's dedicated I/O goroutine: it serializes writes and
// reads on the connection so the coordinator can fan frames out to every
// shard and collect replies concurrently instead of visiting links one at a
// time. A transport error is sticky — every later reply-expecting request
// reports it immediately instead of touching the dead connection.
func (l *link) ioLoop() {
	for req := range l.reqCh {
		if l.ioErr == nil {
			l.ioErr = l.fc.send(req.payload)
		}
		if !req.reply {
			continue
		}
		if l.ioErr != nil {
			l.resCh <- linkRes{err: l.ioErr}
			continue
		}
		payload, err := l.fc.recv()
		if err != nil {
			l.ioErr = err
			l.resCh <- linkRes{err: err}
			continue
		}
		l.resCh <- linkRes{payload: payload}
	}
}

// post enqueues a frame for the link's ioLoop. The payload must stay
// untouched until the request is fenced: for reply-expecting requests the
// fence is collecting the reply, for fire-and-forget frames the caller must
// use a buffer it never reuses.
func (l *link) post(payload []byte, reply bool) {
	l.reqCh <- linkReq{payload: payload, reply: reply}
}

// tryPost enqueues a frame only if the ioLoop has queue space: best-effort
// delivery for teardown-path frames (ABORT) that must never block the
// coordinator behind a dead worker.
func (l *link) tryPost(payload []byte) {
	select {
	case l.reqCh <- linkReq{payload: payload}:
	default:
	}
}

// coordinator is the distributed engine's congest.Fused executor:
// congest.RunRounds drives it, and each call is one fused 1-RTT exchange
// over the shard links — each visit to a shard delivers the previous
// round's cross-shard messages and steps the current round.
//
// Fusing moves the liveness decision to the coordinator: it keeps a global
// halted bitmap (folded from each step reply's newly-halted list) and
// declares message activity when any relayed cross-shard message targets a
// non-halted node or any shard retained a locally-deliverable message for a
// non-halted node — exactly the condition under which delivery puts a
// message into a live node's inbox. The coordinator relays cross-shard
// sections as opaque bytes and decodes records only as far as that
// decision needs.
type coordinator struct {
	links    []*link
	opts     congest.Options // normalized
	counters *metrics.Counters

	// halted is the global halted bitmap, monotone (halts are terminal).
	halted []bool

	ioWG sync.WaitGroup
}

var _ congest.Fused = (*coordinator)(nil)

func newCoordinator(links []*link, n int, opts congest.Options) *coordinator {
	for _, l := range links {
		l.reqCh = make(chan linkReq, 2)
		l.resCh = make(chan linkRes, 1)
		l.out = make([]section, len(links))
	}
	return &coordinator{
		links:    links,
		opts:     congest.NormalizeOptions(opts, n),
		counters: metrics.NewCounters(n),
		halted:   make([]bool, n),
	}
}

// start launches one ioLoop per link. stop closes the request channels and
// joins the goroutines; after stop returns, the links' frameConn byte
// counters are safe to read from the caller's goroutine.
func (c *coordinator) start() {
	for _, l := range c.links {
		c.ioWG.Add(1)
		go func(l *link) {
			defer c.ioWG.Done()
			l.ioLoop()
		}(l)
	}
}

func (c *coordinator) stop() {
	for _, l := range c.links {
		close(l.reqCh)
	}
	c.ioWG.Wait()
}

// run executes the full protocol: BEGIN, the round loop, FINISH
// collection. The returned counters always reflect at least the charged
// rounds; on a clean run they are the complete merged metering.
func (c *coordinator) run(ctx context.Context, seed uint64) (*metrics.Counters, error) {
	c.begin(seed)
	return c.counters, congest.RunRounds(ctx, c, c.opts, c.counters)
}

// begin posts every shard its BEGIN frame: the run seed and the shard
// count the section layout is cut by.
func (c *coordinator) begin(seed uint64) {
	for _, l := range c.links {
		// A fresh buffer per BEGIN: the frame is fire-and-forget, so the
		// link's reusable encoder (fenced by reply collection) cannot carry
		// it.
		var e enc
		e.b = make([]byte, 0, 16)
		e.u8(frameBegin)
		e.u64(seed)
		e.u32(uint32(len(c.links)))
		l.post(e.b, false)
	}
}

// collect blocks for the link's next reply. A transport error becomes an
// ErrShardDown with the exchange's stage label.
func (c *coordinator) collect(l *link, stage string) ([]byte, error) {
	res := <-l.resCh
	if res.err != nil {
		return nil, l.down(stage, res.err)
	}
	return res.payload, nil
}

// Fuse implements congest.Fused with one exchange across every shard: fan
// out FUSE(deliverRound, stepRound) carrying each shard's relayed inbound
// sections, collect replies in shard order, fold halts and activity, and
// keep the new outbound sections for the next exchange.
func (c *coordinator) Fuse(deliverRound, stepRound int64, isInit bool) (congest.Activity, error) {
	for _, l := range c.links {
		e := &l.enc
		e.b = e.b[:0]
		e.u8(frameFuse)
		e.i64(deliverRound)
		e.i64(stepRound)
		e.bool(isInit)
		if deliverRound >= 0 {
			c.relay(l)
		}
	}
	c.postAll()

	// Collect in shard order. Shard ranges are contiguous and ascending and
	// each shard reports its first error in local node order, so within a
	// stage the lowest erroring shard's error IS the globally first one; the
	// deliver stage precedes the step stage because round r's deliver runs
	// before round r+1's step.
	var (
		act                 congest.Activity
		deliverErr, stepErr error
	)
	for _, l := range c.links {
		payload, err := c.collect(l, "fuse reply")
		if err != nil {
			return act, err
		}
		d := dec{b: payload}
		if tag := d.u8(); tag != frameFuseRes {
			return act, l.down("fuse reply", fmt.Errorf("unexpected frame %d", tag))
		}
		stage := d.u8()
		code := d.u8()
		msg := d.str()
		if err := errFromCode(code, msg); err != nil {
			if stage == stageDeliver {
				if deliverErr == nil {
					deliverErr = err
				}
			} else if stepErr == nil {
				stepErr = err
			}
		}
		act.Live += int(d.u32())
		nh := int(d.u32())
		if d.err != nil {
			return act, l.down("fuse reply", d.err)
		}
		if nh < 0 || nh > l.hi-l.lo {
			return act, l.down("fuse reply", fmt.Errorf("%d newly halted nodes in a %d-node shard", nh, l.hi-l.lo))
		}
		for j := 0; j < nh; j++ {
			lv := int(d.u32())
			if lv < 0 || lv >= l.hi-l.lo {
				return act, l.down("fuse reply", fmt.Errorf("halted node %d outside shard range", lv))
			}
			c.halted[l.lo+lv] = true
		}
		localActive := d.bool()
		wakeOK := d.bool()
		wake := d.i64()
		for dst := range l.out {
			if dst != l.shard {
				l.out[dst] = readSection(&d)
			}
		}
		if d.err != nil {
			return act, l.down("fuse reply", d.err)
		}
		if len(d.b) != 0 {
			return act, l.down("fuse reply", fmt.Errorf("%d trailing bytes", len(d.b)))
		}
		act.Messages = act.Messages || localActive
		if wakeOK && (!act.WakeOK || wake < act.Wake) {
			act.Wake, act.WakeOK = wake, true
		}
	}
	if deliverErr != nil {
		return act, deliverErr
	}
	if stepErr != nil {
		return act, stepErr
	}

	// Count and scan the new sections. Message activity is decided against
	// the halted bitmap once every reply's halts are folded in: delivery
	// drops (but meters) messages to halted nodes, so only a message to a
	// live node makes the next round non-quiet. Once
	// any message (or retained local message) is live, the remaining
	// sections are not read at all.
	for _, src := range c.links {
		for dst := range src.out {
			sec := &src.out[dst]
			src.crossMsgs += int64(sec.edges)
			if act.Messages {
				continue
			}
			live, err := sec.liveTarget(c.halted, c.links[dst].lo)
			if err != nil {
				return act, src.down("fuse reply", err)
			}
			act.Messages = live
		}
	}
	return act, nil
}

// relay appends dst's inbound sections — every other shard's section for
// dst from the last replies, in source-shard order — to dst's frame, and
// accounts them: the record sections' bytes, and what the same messages
// would cost one edge at a time in the fixed-width reference encoding.
func (c *coordinator) relay(dst *link) {
	fixed := int64(fixedCountLen)
	for _, src := range c.links {
		sec := &src.out[dst.shard]
		dst.enc.b = append(dst.enc.b, sec.raw...)
		dst.batchBytesDelta += int64(len(sec.raw))
		fixed += int64(sec.fixed)
	}
	dst.batchBytesFixed += fixed
}

// postAll posts every link's built frame, expecting a reply. Frames are
// posted only once all of them are built, because relayed sections alias
// the source links' receive buffers, which a posted link's ioLoop reuses
// for its next reply.
func (c *coordinator) postAll() {
	for _, l := range c.links {
		l.post(l.enc.b, true)
		l.rtts++
	}
}

// Finish implements congest.Fused: it flushes the last executed round's
// deliver to every shard via FINISH and collects every FINAL frame, merging
// the metering into the coordinator's counters.
func (c *coordinator) Finish(deliverRound int64) error {
	for _, l := range c.links {
		e := &l.enc
		e.b = e.b[:0]
		e.u8(frameFinish)
		e.i64(deliverRound)
		if deliverRound >= 0 {
			c.relay(l)
		}
	}
	c.postAll()
	var flushErr error
	for _, l := range c.links {
		payload, err := c.collect(l, "final")
		if err != nil {
			return err
		}
		d := dec{b: payload}
		if tag := d.u8(); tag != frameFinal {
			return l.down("final", fmt.Errorf("unexpected frame %d", tag))
		}
		code := d.u8()
		msg := d.str()
		if err := errFromCode(code, msg); err != nil && flushErr == nil {
			flushErr = err
		}
		if err := decodeCounters(&d, c.counters, l.lo, l.hi); err != nil {
			return l.down("final", err)
		}
		l.busyNanos = d.i64()
		l.localMsgs = int64(d.u64())
		final := d.lenPrefixed()
		if d.err != nil {
			return l.down("final", d.err)
		}
		// Copy: the frame buffer is reused by the next recv.
		l.final = append([]byte(nil), final...)
	}
	return flushErr
}
