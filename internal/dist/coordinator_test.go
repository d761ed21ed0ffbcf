package dist

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"dhc/internal/congest"
	"dhc/internal/graph"
	"dhc/internal/rng"
	"dhc/internal/wire"
)

// pipeCoordinator wires a coordinator to k scripted workers over in-memory
// net.Pipe connections: the real link I/O and frame codec run, but the
// worker side is a test script instead of a shard — the cheapest way to
// exercise the coordinator's error aggregation exactly.
func pipeCoordinator(t *testing.T, n, k int) (*coordinator, []*frameConn) {
	t.Helper()
	links := make([]*link, k)
	workers := make([]*frameConn, k)
	conns := make([]net.Conn, 0, 2*k)
	for i := 0; i < k; i++ {
		a, b := net.Pipe()
		conns = append(conns, a, b)
		lo, hi := shardRange(n, k, i)
		links[i] = &link{shard: i, lo: lo, hi: hi, fc: newFrameConn(a)}
		workers[i] = newFrameConn(b)
	}
	coord := newCoordinator(links, n, congest.Options{BandwidthBits: 64})
	t.Cleanup(func() {
		for _, c := range conns {
			c.Close()
		}
	})
	return coord, workers
}

// respond answers the first FUSE with the scripted reply and, like a live
// worker, keeps reading frames after it. Connection errors end the script
// (the test's cleanup closes the pipes).
func respond(fc *frameConn, reply []byte) {
	replied := false
	for {
		payload, err := fc.recv()
		if err != nil {
			return
		}
		if !replied && len(payload) > 0 && payload[0] == frameFuse {
			_ = fc.send(reply)
			replied = true
		}
	}
}

// fuseRes is the content of a scripted FUSE reply. sections, when non-nil,
// replaces the encoded outbox verbatim (for corrupt-section tests).
type fuseRes struct {
	stage, code byte
	msg         string
	live        uint32
	halted      []uint32 // newly halted nodes, local indices
	out         []congest.Record
	sections    []byte
}

// fuseReply crafts a complete FUSE reply frame from shard self of a k-shard,
// n-vertex run: no wake, and the outbox split into K-1 per-destination
// sections exactly as a worker encodes it.
func fuseReply(n, k, self int, r fuseRes) []byte {
	var e enc
	e.u8(frameFuseRes)
	e.u8(r.stage)
	e.u8(r.code)
	e.str(r.msg)
	e.u32(r.live)
	e.u32(uint32(len(r.halted)))
	for _, lv := range r.halted {
		e.u32(lv)
	}
	e.bool(false)
	e.bool(false)
	e.i64(0)
	if r.sections != nil {
		return append(e.b, r.sections...)
	}
	return newSectionWriter(n, k, self).appendSections(e.b, r.out)
}

// TestFuseStepErrorLowestShardWins: when several shards report step-stage
// errors in the same fused exchange, the lowest shard's error is the
// globally first one (shard ranges are ascending and each shard reports its
// first error in local node order), so it must be the one returned.
func TestFuseStepErrorLowestShardWins(t *testing.T) {
	coord, workers := pipeCoordinator(t, 30, 3)
	replies := [][]byte{
		fuseReply(30, 3, 0, fuseRes{live: 10}),
		fuseReply(30, 3, 1, fuseRes{stage: stageStep, code: errCodeOther, msg: "shard1 exploded"}),
		fuseReply(30, 3, 2, fuseRes{stage: stageStep, code: errCodeOther, msg: "shard2 exploded"}),
	}
	for i, fc := range workers {
		go respond(fc, replies[i])
	}
	_, err := coord.Fuse(-1, 0, true)
	if err == nil || err.Error() != "shard1 exploded" {
		t.Fatalf("Fuse = %v, want shard 1's step error", err)
	}
}

// TestFuseDeliverErrorBeatsStep: a deliver-stage error from any shard
// precedes every step-stage error, regardless of shard order, because round
// r's deliver runs before round r+1's step in the in-process engine. The
// sentinel identity must survive the wire.
func TestFuseDeliverErrorBeatsStep(t *testing.T) {
	coord, workers := pipeCoordinator(t, 20, 2)
	replies := [][]byte{
		fuseReply(20, 2, 0, fuseRes{stage: stageStep, code: errCodeOther, msg: "step boom"}),
		fuseReply(20, 2, 1, fuseRes{stage: stageDeliver, code: errCodeBandwidth, msg: "congest: bandwidth exceeded: edge 3->12"}),
	}
	for i, fc := range workers {
		go respond(fc, replies[i])
	}
	_, err := coord.Fuse(0, 1, false)
	if err == nil || !errors.Is(err, congest.ErrBandwidth) {
		t.Fatalf("Fuse = %v, want shard 1's deliver-stage bandwidth error", err)
	}
	if strings.Contains(err.Error(), "step boom") {
		t.Fatalf("step-stage error won over deliver-stage: %v", err)
	}
}

// TestFuseTruncatedReplyIsShardDown: a reply frame that ends mid-field is a
// transport fault, not an algorithm error — it must surface as ErrShardDown
// carrying the exchange's stage label and the shard index.
func TestFuseTruncatedReplyIsShardDown(t *testing.T) {
	coord, workers := pipeCoordinator(t, 20, 2)
	replies := [][]byte{
		fuseReply(20, 2, 0, fuseRes{live: 10}),
		{frameFuseRes, stageNone}, // ends before the error code
	}
	for i, fc := range workers {
		go respond(fc, replies[i])
	}
	_, err := coord.Fuse(-1, 0, true)
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("truncated reply returned %v, want ErrShardDown", err)
	}
	if !strings.Contains(err.Error(), "fuse reply") || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("truncated reply lost its stage/shard label: %v", err)
	}
}

// TestFuseHaltedTargetsStayQuiet pins the coordinator's liveness scan over
// opaque sections: messages whose only targets are halted (by halts folded
// from the same exchange, even from a later shard's reply) leave the round
// quiet, while a live target after a halted prefix makes it active. Cross
// message counts come from the section headers either way.
func TestFuseHaltedTargetsStayQuiet(t *testing.T) {
	tok := wire.Msg(wire.KindToken, 1)
	cases := []struct {
		name       string
		to         []graph.NodeID
		wantActive bool
	}{
		{"all-halted", []graph.NodeID{3, 4, 4}, false},
		{"live-after-halted-prefix", []graph.NodeID{3, 4, 5}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord, workers := pipeCoordinator(t, 20, 2)
			// One record per target, then the same targets as one record:
			// the scan reads on across receivers and records alike.
			var out []congest.Record
			for i, to := range tc.to {
				out = append(out, congest.Record{From: graph.NodeID(10 + i), Msg: tok, To: []graph.NodeID{to}})
			}
			out = append(out, congest.Record{From: 19, Msg: tok, To: tc.to})
			replies := [][]byte{
				fuseReply(20, 2, 0, fuseRes{live: 8, halted: []uint32{3, 4}}),
				fuseReply(20, 2, 1, fuseRes{live: 10, out: out}),
			}
			for i, fc := range workers {
				go respond(fc, replies[i])
			}
			act, err := coord.Fuse(-1, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			if act.Messages != tc.wantActive {
				t.Fatalf("act.Messages = %v, want %v", act.Messages, tc.wantActive)
			}
			if got := coord.links[1].crossMsgs; got != int64(2*len(tc.to)) {
				t.Fatalf("shard 1 crossMsgs = %d, want %d", got, 2*len(tc.to))
			}
		})
	}
}

// TestFuseCorruptSectionIsShardDown: the coordinator relays sections without
// decoding the records past a live target, so a corrupt record reaches its
// receiving worker, which must reject it as a protocol error — a record with
// an unknown kind, or with a target outside the receiver's range — and drop
// its connection. The run surfaces ErrShardDown for the receiving shard
// within the step timeout, and no goroutine outlives the teardown.
func TestFuseCorruptSectionIsShardDown(t *testing.T) {
	const n, k, timeout = 20, 2, 5 * time.Second
	// Shard 1's only section goes to shard 0; each body is one record from
	// vertex 10 whose first receiver is live, so the coordinator's scan
	// stops there.
	cases := []struct {
		name    string
		section []byte
	}{
		// count 1, sender delta 10, kind 0xEE, no args, one receiver: 0.
		{"unknown-kind", rawSection(10, 1, []byte{1, 10, 0xEE, 0, 1, 0})},
		// count 1, sender delta 10, one arg, receivers 0 (live) and 15
		// (shard 1's own range).
		{"target-outside-receiver", rawSection(28, 2, []byte{1, 10, byte(wire.KindToken), 1, 2, 2, 0, 30})},
	}
	baseline := runtime.NumGoroutine()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord, workers := pipeCoordinator(t, n, k)
			for _, l := range coord.links {
				l.fc.timeout = timeout
			}
			g := graph.GNP(n, 0.5, rng.New(9))
			progs, err := BuildPrograms(congest.ProgramSpec{Algo: "dra", B: 8}, 0, n/k)
			if err != nil {
				t.Fatal(err)
			}
			sh, err := congest.NewShard(g, progs, congest.Options{BandwidthBits: 64}, 0, n/k)
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() {
				err := serveFrames(workers[0], sh, ServeOptions{})
				workers[0].rw.(net.Conn).Close()
				served <- err
			}()
			go respond(workers[1], fuseReply(n, k, 1, fuseRes{live: 10, sections: tc.section}))

			if err := coord.begin(1); err != nil {
				t.Fatal(err)
			}
			act, err := coord.Fuse(-1, 0, true)
			if err != nil {
				t.Fatalf("init exchange: %v", err)
			}
			if !act.Messages {
				t.Fatal("a section with a live target left the round quiet")
			}
			start := time.Now()
			_, err = coord.Fuse(0, 1, false)
			if !errors.Is(err, ErrShardDown) || !strings.Contains(err.Error(), "shard 0") {
				t.Fatalf("corrupt section returned %v, want ErrShardDown from shard 0", err)
			}
			if elapsed := time.Since(start); elapsed >= timeout {
				t.Fatalf("classification took %v, step timeout %v", elapsed, timeout)
			}
			if werr := <-served; werr == nil || !strings.Contains(werr.Error(), "dist:") {
				t.Fatalf("receiving worker returned %v, want a protocol error", werr)
			}
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := runtime.NumGoroutine(); got <= baseline {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive after corrupt-section runs, baseline %d", got, baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFuseDeafShardIsShardDown: a worker that stops reading after BEGIN
// must not block the run. The coordinator's write to it trips the step
// timeout's write deadline, and Fuse returns ErrShardDown naming that shard.
func TestFuseDeafShardIsShardDown(t *testing.T) {
	const n, k, timeout = 20, 2, time.Second
	coord, workers := pipeCoordinator(t, n, k)
	for _, l := range coord.links {
		l.fc.timeout = timeout
	}
	go respond(workers[0], fuseReply(n, k, 0, fuseRes{live: 10}))
	go func() { _, _ = workers[1].recv() }() // reads BEGIN, then goes deaf
	if err := coord.begin(1); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := coord.Fuse(-1, 0, true)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrShardDown) || !strings.Contains(err.Error(), "shard 1") {
			t.Fatalf("deaf shard returned %v, want ErrShardDown from shard 1", err)
		}
		// The write deadline is the step timeout; allow scheduling slack.
		if elapsed := time.Since(start); elapsed > timeout+time.Second {
			t.Fatalf("classification took %v, step timeout %v", elapsed, timeout)
		}
	case <-time.After(10 * timeout):
		t.Fatalf("Fuse still blocked on a deaf shard after %v", 10*timeout)
	}
}

// TestShardOfMatchesPartition is the property test for the arithmetic
// vertex-to-shard map the section writer routes by: for adversarial (n, k)
// including k > n, every vertex must map to the shard whose lo(i) = i*n/k
// range contains it.
func TestShardOfMatchesPartition(t *testing.T) {
	cases := [][2]int{
		{1, 1}, {2, 5}, {3, 8}, {5, 2}, {10, 10}, {16, 3},
		{17, 4}, {64, 5}, {97, 7}, {100, 101}, {1000, 13},
	}
	for _, c := range cases {
		n, k := c[0], c[1]
		for v := 0; v < n; v++ {
			i := shardOf(v, n, k)
			if i < 0 || i >= k {
				t.Fatalf("(n=%d,k=%d): vertex %d mapped to shard %d of %d", n, k, v, i, k)
			}
			lo, hi := shardRange(n, k, i)
			if v < lo || v >= hi {
				t.Fatalf("(n=%d,k=%d): vertex %d mapped to shard %d with range [%d,%d)", n, k, v, i, lo, hi)
			}
		}
	}
}
