package dist

import (
	"errors"
	"fmt"
	"time"

	"dhc/internal/congest"
	"dhc/internal/graph"
	"dhc/internal/metrics"
)

// FaultPlan injects a shard failure for chaos and classification tests: at
// the fused frame whose step half executes round Round, the selected shard
// either crashes (drops its connection) or hangs (stops replying until torn
// down). The coordinator
// must turn either into a classified error within its deadline — never a
// hang, never a corrupt partial round.
type FaultPlan struct {
	Shard int
	Round int64
	// Mode is "crash" or "hang".
	Mode string
}

// errFaultCrash is the worker-local error a planned crash returns; the
// coordinator only ever observes the closed connection.
var errFaultCrash = errors.New("dist: fault injection: crash")

// ServeOptions configures one worker's serve loop.
type ServeOptions struct {
	// FinalState, if non-nil, serializes the shard's program states for the
	// FINAL frame (proc transport; goroutine workers share memory and leave
	// it nil).
	FinalState func() []byte
	// Fault, if non-nil, is this worker's injected failure (the caller has
	// already matched the shard index).
	Fault *FaultPlan
	// Unblock, if non-nil, releases a hanging worker at teardown so
	// goroutine-mode tests do not leak a goroutine per injected hang.
	Unblock <-chan struct{}
}

// serveFrames drives one shard over a frame connection until FINISH or
// ABORT: the worker half of the coordinator protocol, shared by goroutine
// workers and the hcshard process. The connection is the one the worker's
// handshake frames went through (a fresh frameConn would miss payloads
// sitting in its read buffer). It reports the shard's busy time (time spent
// inside Step/Deliver, as opposed to blocked on the barrier) in the FINAL
// frame.
func serveFrames(fc *frameConn, shard *congest.Shard, opts ServeOptions) error {
	var (
		e        enc
		batch    []congest.Record
		ids      []graph.NodeID // batch's receivers
		k, self  int            // shard count and this shard's index, from BEGIN
		sections *sectionWriter // per-destination outbox encoder, from BEGIN
		busy     time.Duration
		stepErr  error // sticky: a step/deliver error is reported, then the loop idles until teardown
		errStage byte  // which half of a fused exchange stepErr came from
	)
	for {
		payload, err := fc.recv()
		if err != nil {
			return err
		}
		d := dec{b: payload}
		switch tag := d.u8(); tag {
		case frameBegin:
			seed := d.u64()
			k = int(d.u32())
			if d.err != nil {
				return d.err
			}
			n := shard.N()
			if k < 1 || k > n {
				return fmt.Errorf("dist: BEGIN shard count %d invalid for %d vertices", k, n)
			}
			self = shardOf(shard.Lo(), n, k)
			if lo, hi := shardRange(n, k, self); lo != shard.Lo() || hi != shard.Hi() {
				return fmt.Errorf("dist: shard range [%d,%d) is not a shard of the %d-way partition", shard.Lo(), shard.Hi(), k)
			}
			sections = newSectionWriter(n, k, self)
			shard.Begin(seed)
		case frameFuse:
			deliverRound := d.i64()
			stepRound := d.i64()
			isInit := d.bool()
			if d.err != nil {
				return d.err
			}
			if sections == nil {
				return fmt.Errorf("dist: FUSE before BEGIN")
			}
			// Faults key on the step round so a "round r" fault plan still
			// means "while executing round r", exactly as under the
			// unfused protocol.
			if f := opts.Fault; f != nil && stepRound >= f.Round {
				switch f.Mode {
				case "hang":
					if opts.Unblock != nil {
						<-opts.Unblock
					} else {
						select {}
					}
					return errFaultCrash
				default:
					return errFaultCrash // the deferred conn close is the crash
				}
			}
			if stepErr == nil && deliverRound >= 0 {
				if batch, ids, err = readInbound(&d, shard.N(), k, self, batch, ids); err != nil {
					return err
				}
				start := time.Now()
				stepErr = shard.Deliver(deliverRound, batch)
				busy += time.Since(start)
				if stepErr != nil {
					errStage = stageDeliver
				}
			}
			var (
				out []congest.Record
				rep congest.StepReport
			)
			if stepErr == nil {
				start := time.Now()
				out, rep, stepErr = shard.Step(stepRound, isInit)
				busy += time.Since(start)
				if stepErr != nil {
					errStage = stageStep
				}
			}
			e.b = e.b[:0]
			e.u8(frameFuseRes)
			e.u8(errStage)
			code, msg := errToCode(stepErr)
			e.u8(code)
			e.str(msg)
			e.u32(uint32(rep.Live))
			e.u32(uint32(len(rep.NewlyHalted)))
			for _, lv := range rep.NewlyHalted {
				e.u32(uint32(lv))
			}
			e.bool(rep.LocalActive)
			e.bool(rep.WakeOK)
			e.i64(rep.EarliestWake)
			e.b = sections.appendSections(e.b, out)
			if err := fc.send(e.b); err != nil {
				return err
			}
		case frameFinish:
			deliverRound := d.i64()
			if d.err != nil {
				return d.err
			}
			// The final flush: the last executed round's messages are
			// delivered even when every node has halted, so they are
			// metered like every other round's.
			if sections == nil {
				return fmt.Errorf("dist: FINISH before BEGIN")
			}
			if stepErr == nil && deliverRound >= 0 {
				if batch, ids, err = readInbound(&d, shard.N(), k, self, batch, ids); err != nil {
					return err
				}
				start := time.Now()
				stepErr = shard.Deliver(deliverRound, batch)
				busy += time.Since(start)
			}
			e.b = e.b[:0]
			e.u8(frameFinal)
			code, msg := errToCode(stepErr)
			e.u8(code)
			e.str(msg)
			appendCounters(&e, shard.Counters(), shard.Lo(), shard.Hi())
			e.i64(int64(busy))
			local, _ := shard.RoutedSplit()
			e.u64(uint64(local))
			var final []byte
			if opts.FinalState != nil {
				final = opts.FinalState()
			}
			e.bytes(final)
			if err := fc.send(e.b); err != nil {
				return err
			}
			return nil
		case frameAbort:
			return nil
		default:
			return fmt.Errorf("dist: worker received unexpected frame %d", tag)
		}
	}
}

// readInbound decodes a FUSE/FINISH frame's relayed sections, which end the
// frame, into batch and its receiver arena ids (both reused).
func readInbound(d *dec, n, k, self int, batch []congest.Record, ids []graph.NodeID) ([]congest.Record, []graph.NodeID, error) {
	batch, ids, err := decodeSections(d, n, k, self, batch, ids)
	if err != nil {
		return nil, nil, err
	}
	if len(d.b) != 0 {
		return nil, nil, fmt.Errorf("dist: %d trailing bytes after inbound sections", len(d.b))
	}
	return batch, ids, nil
}

// appendCounters serializes a shard's metering: the scalar totals plus the
// per-node slices of its range.
func appendCounters(e *enc, c *metrics.Counters, lo, hi int) {
	e.i64(c.Invocations)
	e.i64(c.Steps)
	e.i64(c.Messages)
	e.i64(c.Bits)
	e.i64(c.MaxMessageBits)
	mem, work := c.PerNodeRange(lo, hi)
	e.u32(uint32(hi - lo))
	for _, v := range mem {
		e.i64(v)
	}
	for _, v := range work {
		e.i64(v)
	}
}

// decodeCounters merges a FINAL frame's counter section into dst.
func decodeCounters(d *dec, dst *metrics.Counters, lo, hi int) error {
	dst.Invocations += d.i64()
	dst.Steps += d.i64()
	dst.Messages += d.i64()
	dst.Bits += d.i64()
	if mb := d.i64(); mb > dst.MaxMessageBits {
		dst.MaxMessageBits = mb
	}
	k := int(d.u32())
	if d.err != nil {
		return d.err
	}
	if k != hi-lo {
		return fmt.Errorf("dist: shard reported %d per-node entries for range [%d,%d)", k, lo, hi)
	}
	mem := make([]int64, k)
	work := make([]int64, k)
	for i := range mem {
		mem[i] = d.i64()
	}
	for i := range work {
		work[i] = d.i64()
	}
	if d.err != nil {
		return d.err
	}
	dst.SetPerNodeRange(lo, mem, work)
	return nil
}
