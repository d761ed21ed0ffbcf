// Package metrics collects the quantities the paper's theorems are about:
// rounds, algorithm steps, messages, bits on the wire, and per-node memory
// high-water marks. DHC1/DHC2 claim fully-distributed execution (o(n) memory
// per node, balanced computation); the Upcast algorithm concentrates Ω(n)
// memory at the root. These counters make both claims measurable.
package metrics

import (
	"fmt"
	"sort"
)

// Counters aggregates the cost of a single algorithm run. It is not safe for
// concurrent use; the distributed engine merges per-shard counters when a
// run finishes.
type Counters struct {
	// Rounds is the number of synchronous CONGEST rounds consumed. The
	// event-driven exact engine charges skipped quiet rounds here too, so
	// Rounds is identical between the event-driven schedule and the dense
	// sweep.
	Rounds int64
	// RoundsSkipped is the subset of Rounds the event-driven engine charged
	// without executing (no messages in flight, no wake-up due). Zero under
	// the dense sweep; it meters how much of a run's round budget is quiet
	// time.
	RoundsSkipped int64
	// Invocations counts node program calls (Init + Round). The dense sweep
	// pays ~Rounds*n of these; the event-driven engine pays only for active
	// nodes, which is the O(active + messages) claim made measurable.
	Invocations int64
	// Steps counts algorithm-level steps: one rotation or one path
	// extension of a rotation algorithm (the unit of Theorem 2), or one
	// merge operation in DHC2 Phase 2.
	Steps int64
	// Messages is the total count of point-to-point messages delivered.
	Messages int64
	// Bits is the total message payload size delivered, in bits.
	Bits int64
	// MaxMessageBits is the widest single message observed, to check the
	// CONGEST O(log n)-bit constraint.
	MaxMessageBits int64

	// perNodeMem[v] is the high-water retained state of node v, in words.
	perNodeMem []int64
	// perNodeWork[v] counts local computation operations of node v, used
	// for the load-balance claim.
	perNodeWork []int64
}

// NewCounters returns counters for an n-node run.
func NewCounters(n int) *Counters {
	return &Counters{
		perNodeMem:  make([]int64, n),
		perNodeWork: make([]int64, n),
	}
}

// AddMessage records one delivered message of the given payload width.
func (c *Counters) AddMessage(bits int64) {
	c.Messages++
	c.Bits += bits
	if bits > c.MaxMessageBits {
		c.MaxMessageBits = bits
	}
}

// AddMessages records count messages of bits bits each, exactly as count
// AddMessage(bits) calls would.
func (c *Counters) AddMessages(count, bits int64) {
	if count == 0 {
		return
	}
	c.Messages += count
	c.Bits += count * bits
	if bits > c.MaxMessageBits {
		c.MaxMessageBits = bits
	}
}

// ObserveMemory records the current retained-state size (words) of node v,
// keeping the maximum.
func (c *Counters) ObserveMemory(v int, words int64) {
	if v >= 0 && v < len(c.perNodeMem) && words > c.perNodeMem[v] {
		c.perNodeMem[v] = words
	}
}

// AddWork charges ops units of local computation to node v.
func (c *Counters) AddWork(v int, ops int64) {
	if v >= 0 && v < len(c.perNodeWork) {
		c.perNodeWork[v] += ops
	}
}

// Merge folds other into c, for example one shard's counters into run totals.
// Per-node slices must have equal length.
func (c *Counters) Merge(other *Counters) {
	c.Rounds += other.Rounds
	c.RoundsSkipped += other.RoundsSkipped
	c.Invocations += other.Invocations
	c.Steps += other.Steps
	c.Messages += other.Messages
	c.Bits += other.Bits
	if other.MaxMessageBits > c.MaxMessageBits {
		c.MaxMessageBits = other.MaxMessageBits
	}
	for i := range other.perNodeMem {
		if other.perNodeMem[i] > c.perNodeMem[i] {
			c.perNodeMem[i] = other.perNodeMem[i]
		}
		c.perNodeWork[i] += other.perNodeWork[i]
	}
}

// PerNodeRange returns the [lo, hi) subslices of the per-node memory and
// work counters. The distributed engine uses it to serialize a shard's
// per-node metering; the slices alias c and must not be retained.
func (c *Counters) PerNodeRange(lo, hi int) (mem, work []int64) {
	return c.perNodeMem[lo:hi], c.perNodeWork[lo:hi]
}

// SetPerNodeRange copies mem and work into the per-node counters starting at
// node lo — the restore half of PerNodeRange, used by the coordinator to
// fold a shard's per-node metering into the run totals.
func (c *Counters) SetPerNodeRange(lo int, mem, work []int64) {
	copy(c.perNodeMem[lo:], mem)
	copy(c.perNodeWork[lo:], work)
}

// Distribution summarizes a per-node quantity.
type Distribution struct {
	Min, Max, Total int64
	Mean            float64
	// P50 and P99 are order statistics (nearest-rank).
	P50, P99 int64
}

func summarize(values []int64) Distribution {
	if len(values) == 0 {
		return Distribution{}
	}
	sorted := make([]int64, len(values))
	copy(sorted, values)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total int64
	for _, v := range sorted {
		total += v
	}
	rank := func(p float64) int64 {
		i := int(p * float64(len(sorted)-1))
		return sorted[i]
	}
	return Distribution{
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		Total: total,
		Mean:  float64(total) / float64(len(sorted)),
		P50:   rank(0.50),
		P99:   rank(0.99),
	}
}

// MemoryDistribution summarizes per-node memory high-water marks.
func (c *Counters) MemoryDistribution() Distribution { return summarize(c.perNodeMem) }

// WorkDistribution summarizes per-node local computation.
func (c *Counters) WorkDistribution() Distribution { return summarize(c.perNodeWork) }

// String renders a one-line summary.
func (c *Counters) String() string {
	mem := c.MemoryDistribution()
	return fmt.Sprintf("rounds=%d steps=%d msgs=%d bits=%d maxMsgBits=%d maxMemWords=%d",
		c.Rounds, c.Steps, c.Messages, c.Bits, c.MaxMessageBits, mem.Max)
}
