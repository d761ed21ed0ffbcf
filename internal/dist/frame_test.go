package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"dhc/internal/congest"
	"dhc/internal/graph"
	"dhc/internal/rng"
	"dhc/internal/wire"
)

// readOnlyStream adapts a byte slice to io.ReadWriter for decode-side tests.
type readOnlyStream struct{ *bytes.Reader }

func (readOnlyStream) Write(p []byte) (int, error) { return len(p), nil }

func streamOf(raw []byte) readOnlyStream { return readOnlyStream{bytes.NewReader(raw)} }

// TestFrameConnRoundTrip pushes several frames through a frameConn pair over
// one byte stream and checks payloads and traffic metering.
func TestFrameConnRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fc := newFrameConn(&buf)
	payloads := [][]byte{{1}, {2, 3, 4}, bytes.Repeat([]byte{7}, 70000)}
	var want int64
	for _, p := range payloads {
		if err := fc.send(p); err != nil {
			t.Fatalf("send: %v", err)
		}
		want += int64(4 + len(p))
	}
	if fc.bytesOut != want {
		t.Fatalf("bytesOut = %d, want %d", fc.bytesOut, want)
	}
	for i, p := range payloads {
		got, err := fc.recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("recv %d: got %d bytes, want %d", i, len(got), len(p))
		}
	}
	if fc.bytesIn != want {
		t.Fatalf("bytesIn = %d, want %d", fc.bytesIn, want)
	}
}

// TestFrameConnRejectsCorruptLengths covers the three corrupt-prefix cases:
// an empty frame, an oversized length, and a truncated payload. None may
// allocate proportionally to the claimed length or succeed.
func TestFrameConnRejectsCorruptLengths(t *testing.T) {
	cases := []struct {
		name    string
		raw     []byte
		wantSub string
	}{
		{"empty", []byte{0, 0, 0, 0}, "empty frame"},
		{"oversized", []byte{0xFF, 0xFF, 0xFF, 0xFF}, "exceeds limit"},
		{"truncated-header", []byte{0, 0}, "EOF"},
		{"truncated-payload", []byte{0, 0, 0, 10, 1, 2, 3}, "EOF"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fc := newFrameConn(streamOf(tc.raw))
			if _, err := fc.recv(); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("recv = %v, want error containing %q", err, tc.wantSub)
			}
		})
	}
}

// edge is one per-edge message: what delivery expands a record into.
type edge struct {
	From, To graph.NodeID
	Msg      wire.Message
}

// fixedWidthLen is the length of edges in the fixed-width per-edge form a
// section header's fixed cost counts: a 4-byte count, then per edge a
// 4-byte sender, a 4-byte receiver, kind and arg-count bytes and 4 bytes
// per arg. It is written out here rather than through fixedRecordLen, so a
// wrong fixed cost in the codec shows.
func fixedWidthLen(edges []edge) int {
	n := 4
	for _, e := range edges {
		n += 10 + 4*int(e.Msg.NArgs)
	}
	return n
}

// randomMsg draws a message with a valid kind and up to four args below n.
func randomMsg(r *rand.Rand, n int) wire.Message {
	kinds := []wire.Kind{
		wire.KindProgress, wire.KindRotation, wire.KindSuccess,
		wire.KindBroadcast, wire.KindToken, wire.KindColor,
	}
	args := make([]int32, r.Intn(5))
	for j := range args {
		args[j] = int32(r.Intn(n))
	}
	return wire.Msg(kinds[r.Intn(len(kinds))], args...)
}

// expand lists recs edge by edge in send order: what delivery meters.
func expand(recs []congest.Record) []edge {
	var out []edge
	for _, r := range recs {
		for _, to := range r.To {
			out = append(out, edge{From: r.From, To: to, Msg: r.Msg})
		}
	}
	return out
}

// filterTo returns the edges of batch whose target lies in [lo, hi), in
// order.
func filterTo(batch []edge, lo, hi int) []edge {
	var out []edge
	for _, r := range batch {
		if int(r.To) >= lo && int(r.To) < hi {
			out = append(out, r)
		}
	}
	return out
}

// equalEdges fails t unless got and want list the same edges in order.
func equalEdges(t testing.TB, what string, got, want []edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s edge %d: %+v != %+v", what, i, got[i], want[i])
		}
	}
}

// randomOutbox builds a sender-ascending cross outbox of records for shard
// self: senders in self's range, each record with one to six receivers
// anywhere outside it (so a record may reach several shards, and may name a
// receiver twice).
func randomOutbox(r *rand.Rand, n, k, self, size int) []congest.Record {
	lo, hi := shardRange(n, k, self)
	out := make([]congest.Record, size)
	for i := range out {
		to := make([]graph.NodeID, 1+r.Intn(6))
		for j := range to {
			for to[j] = graph.NodeID(r.Intn(n)); shardOf(int(to[j]), n, k) == self; {
				to[j] = graph.NodeID(r.Intn(n))
			}
		}
		out[i] = congest.Record{From: graph.NodeID(lo + r.Intn(hi-lo)), Msg: randomMsg(r, n), To: to}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].From < out[j].From })
	return out
}

// TestBatchDeltaRoundTrip encodes sender-ascending random outboxes as a
// record section and decodes them back verbatim: each record once, its
// receivers in send order. It pins the point of the encoding too: a
// section, header included, is never larger than the same messages in the
// per-edge fixed-width form, and its header's fixed cost and edge count are
// that form's.
func TestBatchDeltaRoundTrip(t *testing.T) {
	const n, k = 512, 2
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		out := randomOutbox(r, n, k, 1, r.Intn(40))
		edges := expand(out)
		fixed := fixedWidthLen(edges)
		enc := newSectionWriter(n, k, 1).appendSections(nil, out)
		if len(enc) > fixed {
			t.Fatalf("trial %d: section %d bytes exceeds fixed form %d", trial, len(enc), fixed)
		}
		if sec := readSection(&dec{b: enc}); sec.fixed != uint64(fixed-4) || sec.edges != uint64(len(edges)) {
			t.Fatalf("trial %d: header fixed %d, edges %d; fixed-width form %d bytes for %d edges",
				trial, sec.fixed, sec.edges, fixed-4, len(edges))
		}
		d := dec{b: enc}
		got, _, err := decodeSection(&d, n, k, 1, 0, nil, nil)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if len(got) != len(out) || len(d.b) != 0 {
			t.Fatalf("trial %d: %d records, %d trailing bytes; want %d records", trial, len(got), len(d.b), len(out))
		}
		equalEdges(t, fmt.Sprintf("trial %d", trial), expand(got), edges)
	}
}

// TestBatchDeltaTruncationAlwaysErrors is the truncation property for the
// record section: every strict prefix of a valid encoding must decode to an
// error — truncated varints keep their continuation bit, and a truncated
// body runs out before its length or record count is satisfied.
func TestBatchDeltaTruncationAlwaysErrors(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	full := newSectionWriter(128, 2, 1).appendSections(nil, randomOutbox(r, 128, 2, 1, 12))
	for cut := 0; cut < len(full); cut++ {
		d := dec{b: full[:cut]}
		if _, _, err := decodeSection(&d, 128, 2, 1, 0, nil, nil); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(full))
		}
	}
}

// TestVarintAtMatchesBinary pins the decoder's varint fast paths to the
// standard library: on every one- and two-byte input, and on random and
// overlong longer ones, uvarintAt and varintAt must return exactly what
// binary.Uvarint and binary.Varint return, errors (k <= 0) included.
func TestVarintAtMatchesBinary(t *testing.T) {
	check := func(b []byte) {
		u, k := uvarintAt(b)
		if wu, wk := binary.Uvarint(b); k != wk || (k > 0 && u != wu) {
			t.Fatalf("uvarintAt(%x) = %d, %d; binary.Uvarint = %d, %d", b, u, k, wu, wk)
		}
		v, k := varintAt(b)
		if wv, wk := binary.Varint(b); k != wk || (k > 0 && v != wv) {
			t.Fatalf("varintAt(%x) = %d, %d; binary.Varint = %d, %d", b, v, k, wv, wk)
		}
	}
	check(nil)
	for x := 0; x < 1<<16; x++ {
		check([]byte{byte(x)})
		check([]byte{byte(x), byte(x >> 8)})
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		b := make([]byte, 1+r.Intn(12))
		for j := range b {
			b[j] = byte(r.Intn(256)) | 0x80 // continuation bits, maybe overlong
		}
		b[r.Intn(len(b))] &= 0x7F
		check(b)
	}
}

// rawSection hand-assembles a non-empty section: header cost, edge count,
// body length, body.
func rawSection(fixed, edges uint64, body []byte) []byte {
	b := binary.AppendUvarint(nil, fixed)
	b = binary.AppendUvarint(b, edges)
	b = binary.AppendUvarint(b, uint64(len(body)))
	return append(b, body...)
}

// TestDecodeBatchDeltaRejectsCorrupt covers the record decoder's
// validation on one section from shard 1 to shard 0 of a 16-vertex, 2-shard
// run: a lying record count, an unknown kind, an impossible arg count, an
// out-of-range endpoint, and an argument outside int32.
func TestDecodeBatchDeltaRejectsCorrupt(t *testing.T) {
	const n, k = 16, 2
	// One record 9 -> 2 carrying one arg, 3: count, sender delta, kind,
	// nargs, zigzag arg, receiver count, zigzag receiver delta from lo 0.
	valid := func() []byte { return []byte{1, 9, byte(wire.KindToken), 1, 6, 1, 4} }
	check := func(t *testing.T, body []byte, wantSub string) {
		t.Helper()
		d := dec{b: rawSection(14, 1, body)}
		if _, _, err := decodeSection(&d, n, k, 1, 0, nil, nil); err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("got %v, want error containing %q", err, wantSub)
		}
	}
	d := dec{b: rawSection(14, 1, valid())}
	if got, _, err := decodeSection(&d, n, k, 1, 0, nil, nil); err != nil || len(got) != 1 || got[0].From != 9 ||
		len(got[0].To) != 1 || got[0].To[0] != 2 || got[0].Msg != wire.Msg(wire.KindToken, 3) {
		t.Fatalf("valid section decoded to %+v, %v", got, err)
	}
	t.Run("count-beyond-capacity", func(t *testing.T) {
		check(t, append([]byte{0xFF, 0xFF, 0x7F}, valid()[1:]...), "declares")
	})
	t.Run("unknown-kind", func(t *testing.T) {
		b := valid()
		b[2] = 0xEE
		check(t, b, "unknown kind")
	})
	t.Run("nargs-too-large", func(t *testing.T) {
		b := valid()
		b[3] = 9
		check(t, b, "corrupt message record")
	})
	t.Run("endpoint-out-of-range", func(t *testing.T) {
		b := valid()
		b[6] = 30 // receiver 15: shard 1's own range
		check(t, b, "outside")
	})
	t.Run("arg-outside-int32", func(t *testing.T) {
		b := binary.AppendVarint(valid()[:4], int64(1)<<40)
		check(t, append(b, 1, 4), "outside int32 range")
	})
}

// corpusSections runs a real 4-shard DRA execution over the actual shard
// engine for three rounds and returns its traffic: every shard's outbound
// sections (with the source shard) and every shard's relayed inbound
// sections (with the destination). Fuzz corpora are seeded with genuine
// protocol traffic, not just synthetic records.
func corpusSections(tb testing.TB) (outbound, inbound [][]byte, src, dst []uint8) {
	const n, k = 32, 4
	g := graph.GNP(n, 0.5, rng.New(9))
	shards := make([]*congest.Shard, k)
	for i := 0; i < k; i++ {
		lo, hi := shardRange(n, k, i)
		progs, err := BuildPrograms(congest.ProgramSpec{Algo: "dra", B: 8}, lo, hi)
		if err != nil {
			tb.Fatal(err)
		}
		sh, err := congest.NewShard(g, progs, congest.Options{BandwidthBits: 64}, lo, hi)
		if err != nil {
			tb.Fatal(err)
		}
		sh.Begin(11)
		shards[i] = sh
	}
	for round := int64(0); round < 3; round++ {
		outs := make([][]byte, k)
		for i, sh := range shards {
			out, _, err := sh.Step(round, round == 0)
			if err != nil {
				tb.Fatal(err)
			}
			outs[i] = newSectionWriter(n, k, i).appendSections(nil, out)
			outbound, src = append(outbound, outs[i]), append(src, uint8(i))
		}
		// Relay and deliver, so the next step produces genuine later-round
		// traffic.
		for i, l := range relayAll(tb, outs) {
			inbound, dst = append(inbound, l.enc.b), append(dst, uint8(i))
			d := dec{b: l.enc.b}
			recs, _, err := decodeSections(&d, n, k, i, nil, nil)
			if err != nil {
				tb.Fatal(err)
			}
			if err := shards[i].Deliver(round, recs); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return outbound, inbound, src, dst
}

// FuzzDecodeBatchDelta feeds arbitrary bytes to the receiving worker's
// decoder as the relayed sections of a FUSE frame for shard self of a
// 32-vertex, 4-shard run, seeded with real relayed traffic. The invariants:
// no panic, and any successful decode yields valid kinds and arg counts,
// senders outside self's range in ascending order (the order delivery
// relies on), and at least one receiver per record, every one in self's
// range.
func FuzzDecodeBatchDelta(f *testing.F) {
	const n, k = 32, 4
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 0, 0}, uint8(1))
	_, inbound, _, dst := corpusSections(f)
	for i, b := range inbound {
		f.Add(b, dst[i])
	}
	f.Fuzz(func(t *testing.T, data []byte, self uint8) {
		s := int(self) % k
		d := dec{b: data}
		recs, _, err := decodeSections(&d, n, k, s, nil, nil)
		if err != nil {
			return
		}
		lo, hi := shardRange(n, k, s)
		for i, rec := range recs {
			if rec.From < 0 || int(rec.From) >= n || (int(rec.From) >= lo && int(rec.From) < hi) {
				t.Fatalf("record %d has sender %d", i, rec.From)
			}
			if i > 0 && rec.From < recs[i-1].From {
				t.Fatalf("sender order violated at %d: %d after %d", i, rec.From, recs[i-1].From)
			}
			if !rec.Msg.Kind.Valid() || rec.Msg.NArgs > 4 {
				t.Fatalf("record %d has kind %d with %d args", i, rec.Msg.Kind, rec.Msg.NArgs)
			}
			if len(rec.To) == 0 {
				t.Fatalf("record %d has no receivers", i)
			}
			for _, to := range rec.To {
				if int(to) < lo || int(to) >= hi {
					t.Fatalf("record %d has receiver %d outside [%d,%d)", i, to, lo, hi)
				}
			}
		}
	})
}

// relayAll splits every shard's encoded outbox into sections with
// readSection and relays them with the coordinator's own relay, returning
// each destination's relayed bytes and the link accounting.
func relayAll(tb testing.TB, outs [][]byte) []*link {
	tb.Helper()
	k := len(outs)
	links := make([]*link, k)
	for i := range links {
		links[i] = &link{shard: i, out: make([]section, k)}
	}
	for i, l := range links {
		d := dec{b: outs[i]}
		for dst := range l.out {
			if dst != i {
				l.out[dst] = readSection(&d)
			}
		}
		if d.err != nil || len(d.b) != 0 {
			tb.Fatalf("shard %d outbox: err %v, %d trailing bytes", i, d.err, len(d.b))
		}
	}
	c := &coordinator{links: links}
	for _, l := range links {
		c.relay(l)
	}
	return links
}

// TestSectionRoundTrip is split -> relay -> decode over random record
// outboxes of every shard: each destination must decode records that expand
// to exactly the concatenation, in source-shard order, of every source's
// edges to it — the global sender-ascending order — with each record
// carried once per destination it reaches, and the relay's accounting must
// match the fixed-width length, the bytes relayed and the edge count.
func TestSectionRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, k := range []int{2, 3, 5} {
		const n = 97
		batches := make([][]congest.Record, k)
		outs := make([][]byte, k)
		for s := range batches {
			batches[s] = randomOutbox(r, n, k, s, r.Intn(30))
			outs[s] = newSectionWriter(n, k, s).appendSections(nil, batches[s])
		}
		links := relayAll(t, outs)
		for dst, l := range links {
			lo, hi := shardRange(n, k, dst)
			var want []edge
			wantRecs := 0
			for s := range batches {
				want = append(want, filterTo(expand(batches[s]), lo, hi)...)
				for _, rec := range batches[s] {
					if len(filterTo(expand([]congest.Record{rec}), lo, hi)) > 0 {
						wantRecs++
					}
				}
			}
			d := dec{b: l.enc.b}
			got, _, err := decodeSections(&d, n, k, dst, nil, nil)
			if err != nil {
				t.Fatalf("k=%d dst %d: %v", k, dst, err)
			}
			if len(d.b) != 0 || len(got) != wantRecs {
				t.Fatalf("k=%d dst %d: %d records, %d trailing bytes; want %d records", k, dst, len(got), len(d.b), wantRecs)
			}
			equalEdges(t, fmt.Sprintf("k=%d dst %d", k, dst), expand(got), want)
			if fixed := int64(fixedWidthLen(want)); l.batchBytesFixed != fixed {
				t.Fatalf("k=%d dst %d: batchBytesFixed %d, fixed-width encoding %d", k, dst, l.batchBytesFixed, fixed)
			}
			if l.batchBytesDelta != int64(len(l.enc.b)) {
				t.Fatalf("k=%d dst %d: batchBytesDelta %d, relayed %d bytes", k, dst, l.batchBytesDelta, len(l.enc.b))
			}
		}
		for s, l := range links {
			edges := uint64(0)
			for _, sec := range l.out {
				edges += sec.edges
			}
			if edges != uint64(len(expand(batches[s]))) {
				t.Fatalf("k=%d shard %d: sections count %d messages, outbox has %d", k, s, edges, len(expand(batches[s])))
			}
		}
	}
}

// TestSectionEmptyCostsOneByte: a quiet outbox costs one byte per other
// shard, and decodes back to an empty batch.
func TestSectionEmptyCostsOneByte(t *testing.T) {
	b := newSectionWriter(40, 4, 2).appendSections(nil, nil)
	if !bytes.Equal(b, []byte{0, 0, 0}) {
		t.Fatalf("empty outbox encoded as %v, want three zero bytes", b)
	}
	d := dec{b: b}
	if got, _, err := decodeSections(&d, 40, 4, 1, nil, nil); err != nil || len(got) != 0 || len(d.b) != 0 {
		t.Fatalf("decode = %v records, err %v, %d trailing bytes", len(got), err, len(d.b))
	}
}

// TestSectionRejectsCorrupt covers the receiver's section checks on top of
// the record decoder's: the relayed sections of a 20-vertex, 2-shard run as
// shard 0 receives them, each corrupted one way.
func TestSectionRejectsCorrupt(t *testing.T) {
	const n, k = 20, 2
	// One record 12 -> {3, 5} carrying one arg: fixed cost 28, 2 edges.
	// Body: count, sender delta, kind, nargs, zigzag arg, receiver count,
	// zigzag receiver deltas (3 from lo 0, then +2).
	rec := func(from, r0 byte) []byte { return []byte{1, from, byte(wire.KindToken), 1, 2, 2, r0, 4} }
	valid := rec(12, 6)
	cases := []struct {
		name    string
		raw     []byte
		wantSub string
	}{
		{"sender-outside-source", rawSection(28, 2, rec(2, 6)), "section from shard 1"},
		{"target-outside-receiver", rawSection(28, 2, rec(12, 26)), "section from shard 1"},
		{"fixed-cost-mismatch", rawSection(20, 2, valid), "declares fixed cost"},
		{"nonzero-cost-zero-records", rawSection(28, 0, []byte{0}), "declares fixed cost"},
		{"trailing-body-bytes", rawSection(28, 2, append(append([]byte(nil), valid...), 0)), "trailing bytes"},
		{"body-beyond-frame", rawSection(28, 2, valid)[:5], "truncated"},
		{"missing-section", nil, "truncated"},
		{"zero-receivers", rawSection(14, 1, []byte{1, 12, byte(wire.KindToken), 1, 2, 0, 6}), "with 0 receivers"},
		{"edge-count-above-records", rawSection(28, 3, valid), "declares 3 messages, its records hold 2"},
		{"edge-count-below-records", rawSection(28, 1, valid), "with 2 receivers"},
		{"edge-count-beyond-capacity", rawSection(28, 1<<40, valid), "declares 1 records and 1099511627776 messages"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := dec{b: tc.raw}
			if _, _, err := decodeSections(&d, n, k, 0, nil, nil); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("got %v, want error containing %q", err, tc.wantSub)
			}
		})
	}
	d := dec{b: rawSection(28, 2, valid)}
	if got, _, err := decodeSections(&d, n, k, 0, nil, nil); err != nil || len(got) != 1 || got[0].From != 12 ||
		!slices.Equal(got[0].To, []graph.NodeID{3, 5}) {
		t.Fatalf("valid section decoded to %+v, %v", got, err)
	}
}

// TestSectionLiveTargetStopsAtFirstLive pins the coordinator's early exit:
// the scan decodes receivers only up to the first live one (so garbage
// after it is never read), reads on through halted receivers and records,
// bounds-checks every receiver before indexing the halted bitmap, and
// reads receiver deltas from the destination's lo.
func TestSectionLiveTargetStopsAtFirstLive(t *testing.T) {
	halted := make([]bool, 20)
	halted[3], halted[4] = true, true
	sec := func(body []byte) section { return section{body: body, fixed: 1} }
	tok := byte(wire.KindToken)
	// count 2: 12 -> {3 (halted), 5 (live), then a truncated receiver}.
	live, err := sec([]byte{2, 12, tok, 1, 2, 3, 6, 4, 0x80}).liveTarget(halted, 0)
	if err != nil || !live {
		t.Fatalf("live receiver after a halted one: live=%v err=%v", live, err)
	}
	// count 2: 12 -> {3, 4}, then 12 -> {4}: all halted.
	allHalted := []byte{2, 12, tok, 0, 2, 6, 2, 0, tok, 1, 0x7F, 1, 8}
	live, err = sec(allHalted).liveTarget(halted, 0)
	if err != nil || live {
		t.Fatalf("all-halted section: live=%v err=%v", live, err)
	}
	if _, err := sec(allHalted[:len(allHalted)-1]).liveTarget(halted, 0); err == nil {
		t.Fatal("truncated all-halted section scanned without error")
	}
	if _, err := sec([]byte{1, 12, tok, 0, 1, 40}).liveTarget(halted, 0); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("out-of-range target: %v", err)
	}
	// From lo 10, delta -6 is receiver 4 (halted) and -1 then receiver 3.
	live, err = sec([]byte{1, 2, tok, 0, 2, 11, 1}).liveTarget(halted, 10)
	if err != nil || live {
		t.Fatalf("halted receivers read from lo 10: live=%v err=%v", live, err)
	}
}

// FuzzDecodeSections checks split -> relay -> decode on arbitrary outboxes,
// seeded with the outbound sections of a real 4-shard run: data is decoded
// as shard src's K-1 outbound sections and merged back into a
// sender-ascending cross outbox. After the sender's split and the
// coordinator's relay, every destination's decoded records must expand to
// exactly the outbox's per-edge messages filtered to its range, and every
// strict prefix of a destination's relayed bytes must fail.
func FuzzDecodeSections(f *testing.F) {
	const n, k = 32, 4
	outbound, _, src, _ := corpusSections(f)
	for i, b := range outbound {
		f.Add(b, src[i])
	}
	f.Fuzz(func(t *testing.T, data []byte, from uint8) {
		s := int(from) % k
		d := dec{b: data}
		var out []congest.Record
		for dst := 0; dst < k; dst++ {
			if dst == s {
				continue
			}
			var err error
			if out, _, err = decodeSection(&d, n, k, s, dst, out, nil); err != nil {
				return
			}
		}
		sort.SliceStable(out, func(i, j int) bool { return out[i].From < out[j].From })
		edges := expand(out)
		outs := make([][]byte, k)
		for i := range outs {
			var own []congest.Record
			if i == s {
				own = out
			}
			outs[i] = newSectionWriter(n, k, i).appendSections(nil, own)
		}
		for dst, l := range relayAll(t, outs) {
			dlo, dhi := shardRange(n, k, dst)
			rd := dec{b: l.enc.b}
			got, _, err := decodeSections(&rd, n, k, dst, nil, nil)
			if err != nil || len(rd.b) != 0 {
				t.Fatalf("dst %d: err %v, %d trailing bytes", dst, err, len(rd.b))
			}
			equalEdges(t, fmt.Sprintf("dst %d", dst), expand(got), filterTo(edges, dlo, dhi))
			for cut := 0; cut < len(l.enc.b); cut++ {
				pd := dec{b: l.enc.b[:cut]}
				if _, _, err := decodeSections(&pd, n, k, dst, nil, nil); err == nil {
					t.Fatalf("dst %d: prefix of %d/%d bytes decoded without error", dst, cut, len(l.enc.b))
				}
			}
		}
	})
}

// FuzzFrameRecv feeds an arbitrary byte stream to the frame reader: it must
// terminate (no hang on a finite stream), never panic, and never hand back a
// payload beyond the frame bound.
func FuzzFrameRecv(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 42})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		fc := newFrameConn(streamOf(data))
		for {
			payload, err := fc.recv()
			if err != nil {
				return
			}
			if len(payload) == 0 || len(payload) > maxFramePayload {
				t.Fatalf("recv returned %d-byte payload", len(payload))
			}
		}
	})
}
