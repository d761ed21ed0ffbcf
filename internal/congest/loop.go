package congest

import (
	"context"
	"fmt"

	"dhc/internal/metrics"
)

// Activity is the global scheduling state after a fused round: what
// RunRounds needs to decide whether and when the next round executes.
type Activity struct {
	// Live counts the nodes that have not halted.
	Live int
	// Messages reports that a message to a live node awaits delivery, so
	// the next round is active.
	Messages bool
	// Wake is the earliest pending wake-up of a live node; WakeOK is false
	// when there is none.
	Wake   int64
	WakeOK bool
}

// Fused is an executor RunRounds drives, one call per executed round. A
// call delivers the previous executed round's messages and steps the next
// round, which lets the distributed engine spend one exchange per shard per
// round. Network implements it over its single Shard; the distributed
// engine's coordinator implements it over K shard links.
type Fused interface {
	// Fuse delivers round deliverRound's messages (none when deliverRound
	// < 0), then steps round stepRound, running Init instead of Round when
	// isInit, and reports the activity that results.
	Fuse(deliverRound, stepRound int64, isInit bool) (Activity, error)
	// Finish delivers round deliverRound's messages once every node has
	// halted. The last executed round's messages are metered like any
	// other round's.
	Finish(deliverRound int64) error
}

// ctxCheckEvery is the engine's amortized checkpoint cadence: cancellation is
// polled and Progress fired once per this many executed rounds, so the hot
// loop pays one context poll per batch instead of per round and a run that is
// never cancelled stays byte-identical to one run without a context.
const ctxCheckEvery = 64

// RunRounds is the exact engine's round loop. It runs Init (round 0), then
// executes rounds until every node has halted, charging them to counters.
// Unless opts.DenseSweep is set, it skips quiet rounds (no message in flight,
// no wake-up due) straight to the next wake-up and charges them as skipped,
// so Rounds matches the dense sweep. A run that needs a round beyond
// opts.MaxRounds fails with ErrRoundLimit; when it is quiet with no wake-up
// before the budget, the tail the dense sweep would spin through is charged
// first. Every ctxCheckEvery executed rounds it polls ctx and fires
// opts.Progress. opts must be normalized.
func RunRounds(ctx context.Context, ex Fused, opts Options, counters *metrics.Counters) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("congest: run canceled before round 0: %w", err)
	}
	act, err := ex.Fuse(-1, 0, true)
	if err != nil {
		return err
	}
	// pending is the executed round whose delivery is owed to ex.
	pending := int64(0)
	sinceCheck := 0
	for round := int64(1); ; round++ {
		if act.Live == 0 {
			return ex.Finish(pending)
		}
		next := round
		if !opts.DenseSweep && !act.Messages {
			// Quiet: skip to the next wake-up. With none within the budget,
			// skip past the budget — the dense sweep would spin through
			// those no-op rounds to the limit, so the accounting does.
			next = opts.MaxRounds + 1
			if act.WakeOK && act.Wake <= opts.MaxRounds {
				next = max(act.Wake, round)
			}
		}
		counters.Rounds += next - round
		counters.RoundsSkipped += next - round
		if next > opts.MaxRounds {
			return fmt.Errorf("%w: %d rounds", ErrRoundLimit, opts.MaxRounds)
		}
		counters.Rounds++
		round = next
		if sinceCheck++; sinceCheck >= ctxCheckEvery {
			sinceCheck = 0
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("congest: run canceled in round %d: %w", round, err)
			}
			if opts.Progress != nil {
				opts.Progress(counters.Rounds)
			}
		}
		if act, err = ex.Fuse(pending, round, false); err != nil {
			return err
		}
		pending = round
	}
}
