package dist

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dhc/internal/congest"
	"dhc/internal/metrics"
)

// ErrShardDown marks a transport-level failure: a shard died, its connection
// broke, or it missed the per-exchange deadline. It matches no algorithm
// sentinel, so dhc.Classify maps it to FailureError — a dead worker is an
// infrastructure fault, not evidence about the instance.
var ErrShardDown = errors.New("dist: shard connection lost")

// link is the coordinator's handle to one shard worker.
type link struct {
	shard  int
	lo, hi int
	fc     *frameConn
	enc    enc
	// out holds the shard's last reply's sections, indexed by destination
	// shard (its own entry stays empty). They alias the link's receive
	// buffer, so they are valid only until the link's next recv.
	out []section

	// Transport accounting.
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

// recv reads the link's next reply. A transport error becomes an
// ErrShardDown with the exchange's stage label.
func (l *link) recv(stage string) ([]byte, error) {
	payload, err := l.fc.recv()
	if err != nil {
		return nil, l.down(stage, err)
	}
	return payload, nil
}

// abortTimeout bounds the best-effort ABORT write, so teardown never waits
// long on a link whose worker stopped reading.
const abortTimeout = 100 * time.Millisecond

// abort writes a best-effort ABORT frame so a live worker leaves its serve
// loop cleanly before the connection closes. Its error is ignored: the run
// has already failed.
func (l *link) abort() {
	l.fc.timeout = abortTimeout
	_ = l.fc.send([]byte{frameAbort})
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
//
// All link I/O runs on the caller's goroutine: an exchange writes every
// shard's frame, then reads the replies in shard order. That cannot
// deadlock, because a worker reads a whole frame before it replies, and a
// shard that stops reading or answering trips the link's per-frame
// deadline and surfaces as ErrShardDown.
type coordinator struct {
	links    []*link
	opts     congest.Options // normalized
	counters *metrics.Counters

	// halted is the global halted bitmap, monotone (halts are terminal).
	halted []bool
}

var _ congest.Fused = (*coordinator)(nil)

func newCoordinator(links []*link, n int, opts congest.Options) *coordinator {
	for _, l := range links {
		l.out = make([]section, len(links))
	}
	return &coordinator{
		links:    links,
		opts:     congest.NormalizeOptions(opts, n),
		counters: metrics.NewCounters(n),
		halted:   make([]bool, n),
	}
}

// run executes the full protocol: BEGIN, the round loop, FINISH
// collection. The returned counters always reflect at least the charged
// rounds; on a clean run they are the complete merged metering.
func (c *coordinator) run(ctx context.Context, seed uint64) (*metrics.Counters, error) {
	if err := c.begin(seed); err != nil {
		return c.counters, err
	}
	return c.counters, congest.RunRounds(ctx, c, c.opts, c.counters)
}

// begin writes every shard its BEGIN frame: the run seed and the shard
// count the section layout is cut by.
func (c *coordinator) begin(seed uint64) error {
	for _, l := range c.links {
		e := &l.enc
		e.b = e.b[:0]
		e.u8(frameBegin)
		e.u64(seed)
		e.u32(uint32(len(c.links)))
		if err := l.fc.send(e.b); err != nil {
			return l.down("begin", err)
		}
	}
	return nil
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
	if err := c.sendAll("fuse"); err != nil {
		return congest.Activity{}, err
	}

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
		payload, err := l.recv("fuse reply")
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

// sendAll writes every link's built frame. All frames go out before any
// reply is read: that lets the shards compute concurrently, and the relayed
// sections alias the source links' receive buffers, which the next recv
// reuses.
func (c *coordinator) sendAll(stage string) error {
	for _, l := range c.links {
		if err := l.fc.send(l.enc.b); err != nil {
			return l.down(stage, err)
		}
		l.rtts++
	}
	return nil
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
	if err := c.sendAll("finish"); err != nil {
		return err
	}
	var flushErr error
	for _, l := range c.links {
		payload, err := l.recv("final")
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
