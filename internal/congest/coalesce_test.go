package congest

import (
	"errors"
	"reflect"
	"testing"

	"dhc/internal/graph"
	"dhc/internal/metrics"
	"dhc/internal/wire"
)

// starSender is one vertex of a star around vertex 0: in Init every leaf
// sends its payload to the hub copies times, and in round 1 the hub records
// its inbox. Everyone halts in round 1.
type starSender struct {
	msg    wire.Message
	copies int
	inbox  []Envelope
}

func (s *starSender) Init(ctx *Context) {
	ctx.WakeAt(1)
	if ctx.ID() == 0 {
		return
	}
	for i := 0; i < s.copies; i++ {
		ctx.Send(0, s.msg)
	}
}

func (s *starSender) Round(ctx *Context, inbox []Envelope) {
	s.inbox = append(s.inbox, inbox...)
	ctx.Halt()
}

// runStar runs the star on n vertices, leaf v sending payload(v) copies
// times, under every engine configuration of the send-form tests; it
// returns the hub's inbox and the counters, and fails the test unless every
// configuration agrees on both.
func runStar(t *testing.T, n, copies int, payload func(v int) wire.Message, hook func(int64, graph.NodeID, graph.NodeID, wire.Message) (wire.Message, bool)) ([]Envelope, *metrics.Counters, error) {
	t.Helper()
	edges := make([]graph.Edge, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{U: 0, V: graph.NodeID(v)})
	}
	g := graph.FromEdges(n, edges)
	var (
		refInbox []Envelope
		refC     *metrics.Counters
		refErr   error
	)
	for i, c := range sendConfigs(Options{FaultHook: hook}) {
		progs := make([]*starSender, n)
		nodes := make([]Node, n)
		for v := range progs {
			progs[v] = &starSender{msg: payload(v), copies: copies}
			nodes[v] = progs[v]
		}
		counters, err := runConfig(g, nodes, c.opts, c.shards, 3)
		if i == 0 {
			refInbox, refC, refErr = progs[0].inbox, counters, err
			continue
		}
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("%s: error %v, in process %v", c.name, err, refErr)
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(progs[0].inbox, refInbox) {
			t.Fatalf("%s: hub inbox %v, in process %v", c.name, progs[0].inbox, refInbox)
		}
		if counters.Messages != refC.Messages || counters.Bits != refC.Bits || counters.Rounds != refC.Rounds {
			t.Fatalf("%s: counters %d msgs/%d bits/%d rounds, in process %d/%d/%d", c.name,
				counters.Messages, counters.Bits, counters.Rounds, refC.Messages, refC.Bits, refC.Rounds)
		}
	}
	return refInbox, refC, refErr
}

// TestFloodCopiesCoalesce: k leaves flood one payload to the hub in one
// round, and the hub reads one envelope, from the lowest sender, while the
// counters meter all k copies exactly as the same traffic of a kind that is
// not a flood. Distinct payloads of a flood kind are each kept once, in
// sender order.
func TestFloodCopiesCoalesce(t *testing.T) {
	const n = 9
	rot := wire.Msg(wire.KindRotation, 4, 2, 7, 1)
	inbox, c, err := runStar(t, n, 1, func(int) wire.Message { return rot }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Envelope{{From: 1, Msg: rot}}; !reflect.DeepEqual(inbox, want) {
		t.Fatalf("hub inbox %v, want %v", inbox, want)
	}
	plain := wire.Msg(wire.KindBroadcast, 4, 2, 7, 1) // same width, not a flood
	plainInbox, plainC, err := runStar(t, n, 1, func(int) wire.Message { return plain }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plainInbox) != n-1 {
		t.Fatalf("non-flood kind delivered %d envelopes, want %d", len(plainInbox), n-1)
	}
	if c.Messages != n-1 || c.Messages != plainC.Messages || c.Bits != plainC.Bits || c.Rounds != plainC.Rounds {
		t.Fatalf("coalesced delivery metered %d msgs/%d bits/%d rounds, uncoalesced %d/%d/%d",
			c.Messages, c.Bits, c.Rounds, plainC.Messages, plainC.Bits, plainC.Rounds)
	}

	// Two payloads interleaved by sender: each is kept once, first sender
	// first.
	succ := wire.Msg(wire.KindSuccess, 1, 100, 9, 3)
	inbox, _, err = runStar(t, n, 1, func(v int) wire.Message {
		if v%2 == 0 {
			return succ
		}
		return rot
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Envelope{{From: 1, Msg: rot}, {From: 2, Msg: succ}}; !reflect.DeepEqual(inbox, want) {
		t.Fatalf("hub inbox %v, want %v", inbox, want)
	}
}

// TestFloodCoalescingKeepsBandwidthError: a duplicate copy on one edge is
// still metered, so the bandwidth error names the same edge, bits and round
// as for a kind that is not a flood.
func TestFloodCoalescingKeepsBandwidthError(t *testing.T) {
	const n = 9 // ⌈log₂ 9⌉ = 4: budget 32 bits, a four-argument message 24
	run := func(m wire.Message) error {
		_, _, err := runStar(t, n, 2, func(int) wire.Message { return m }, nil)
		return err
	}
	floodErr := run(wire.Msg(wire.KindRotation, 4, 2, 7, 1))
	plainErr := run(wire.Msg(wire.KindBroadcast, 4, 2, 7, 1))
	if !errors.Is(floodErr, ErrBandwidth) || !errors.Is(plainErr, ErrBandwidth) {
		t.Fatalf("want bandwidth errors, got flood %v, plain %v", floodErr, plainErr)
	}
	if floodErr.Error() != plainErr.Error() {
		t.Fatalf("flood error %q, non-flood error %q", floodErr, plainErr)
	}
}

// TestFloodCoalescingComparesHookedCopies: payloads compare after the
// FaultHook, so a corrupted copy is never merged with an intact one, while
// identically corrupted copies merge with each other.
func TestFloodCoalescingComparesHookedCopies(t *testing.T) {
	const n = 9
	rot := wire.Msg(wire.KindRotation, 4, 2, 7, 1)
	bad := rot
	bad.Args[1]++
	hook := func(_ int64, from, _ graph.NodeID, m wire.Message) (wire.Message, bool) {
		if from == 3 || from == 5 {
			return bad, true
		}
		return m, true
	}
	inbox, c, err := runStar(t, n, 1, func(int) wire.Message { return rot }, hook)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Envelope{{From: 1, Msg: rot}, {From: 3, Msg: bad}}; !reflect.DeepEqual(inbox, want) {
		t.Fatalf("hub inbox %v, want %v", inbox, want)
	}
	if c.Messages != n-1 {
		t.Fatalf("metered %d messages, want %d", c.Messages, n-1)
	}
}

// TestFloodCoalescingOnlyFloodKinds: identical copies of every kind that wire does
// not declare a flood all reach the receiver.
func TestFloodCoalescingOnlyFloodKinds(t *testing.T) {
	const n = 5
	for k := wire.Kind(1); k.Valid(); k++ {
		m := wire.Msg(k, 1, 2)
		inbox, _, err := runStar(t, n, 1, func(int) wire.Message { return m }, nil)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		want := n - 1
		if k.Flood() {
			want = 1
		}
		if len(inbox) != want {
			t.Fatalf("%s: hub read %d copies, want %d", k, len(inbox), want)
		}
	}
}
