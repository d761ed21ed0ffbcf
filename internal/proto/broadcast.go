package proto

import (
	"slices"

	"dhc/internal/congest"
	"dhc/internal/graph"
	"dhc/internal/wire"
)

// ScopedBroadcaster floods payload messages within a vertex subset (the
// "partition" of DHC1/DHC2): a node only forwards to neighbors it knows are
// in the same scope. Each distinct payload is forwarded at most once per
// node, identified by a (tag, a, b) triple, so concurrent broadcasts from
// different origins coexist.
//
// The DHC algorithms use scoped broadcasts for the rotation(h, j)
// renumbering messages inside a partition and for bridge announcements
// during merging.
//
// The broadcaster is fully message-driven (Absorb with an empty inbox is a
// no-op), so embedders running under the event-driven simulator need no
// wake-ups on its behalf — Originate happens on the originator's own
// schedule and forwarding happens on delivery.
type ScopedBroadcaster struct {
	inScope func(graph.NodeID) bool
	seen    map[[4]int32]bool
}

// NewScopedBroadcaster creates a broadcaster; inScope must report whether a
// neighbor belongs to this node's partition (each node learns its neighbors'
// colors in one round at DHC startup).
func NewScopedBroadcaster(inScope func(graph.NodeID) bool) *ScopedBroadcaster {
	return &ScopedBroadcaster{inScope: inScope, seen: make(map[[4]int32]bool)}
}

// key identifies a payload for duplicate suppression: the kind plus the
// first three arguments (algorithms use Arg(2) as a per-session step tag).
func key(m wire.Message) [4]int32 {
	return [4]int32{int32(m.Kind), m.Arg(0), m.Arg(1), m.Arg(2)}
}

// Originate starts a broadcast of m from this node. The message itself is
// also marked seen locally so the origin does not re-forward it.
func (s *ScopedBroadcaster) Originate(ctx *congest.Context, m wire.Message) {
	s.seen[key(m)] = true
	s.forward(ctx, m, -1)
}

// Absorb processes one round of inbox messages with the given kind,
// forwarding each new payload once. It returns the newly seen payloads in
// arrival order.
func (s *ScopedBroadcaster) Absorb(ctx *congest.Context, inbox []congest.Envelope, kinds ...wire.Kind) []wire.Message {
	if !slices.ContainsFunc(kinds, ctx.Received) {
		return nil
	}
	var fresh []wire.Message
	for _, env := range inbox {
		if !slices.Contains(kinds, env.Msg.Kind) {
			continue
		}
		k := key(env.Msg)
		if s.seen[k] {
			continue
		}
		s.seen[k] = true
		fresh = append(fresh, env.Msg)
		s.forward(ctx, env.Msg, env.From)
	}
	return fresh
}

// Reset clears duplicate-suppression state between broadcast sessions, so
// long runs do not accumulate unbounded seen-sets (keeping node memory o(n)).
func (s *ScopedBroadcaster) Reset() {
	s.seen = make(map[[4]int32]bool)
}

// SeenCount returns the number of distinct payloads recorded, used by memory
// accounting.
func (s *ScopedBroadcaster) SeenCount() int { return len(s.seen) }

func (s *ScopedBroadcaster) forward(ctx *congest.Context, m wire.Message, except graph.NodeID) {
	for port, nb := range ctx.Neighbors() {
		if nb == except || !s.inScope(nb) {
			continue
		}
		ctx.SendPort(port, m)
	}
}
