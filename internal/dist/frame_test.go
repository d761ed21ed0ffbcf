package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
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

// appendRouted appends one routed message record: sender, receiver, then the
// message in the internal/wire codec's byte form (kind, arg count, 4-byte
// big-endian args). Together with appendBatch and decodeBatch it is the
// fixed-width reference encoding: no longer on the wire, but kept as the
// oracle the delta codec and fixedBatchLen are checked against.
func appendRouted(dst []byte, codec wire.Codec, r congest.Routed) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.From))
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.To))
	return codec.AppendEncode(dst, r.Msg)
}

// appendBatch appends a u32 count followed by the routed records.
func appendBatch(dst []byte, codec wire.Codec, batch []congest.Routed) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(batch)))
	for i := range batch {
		dst = appendRouted(dst, codec, batch[i])
	}
	return dst
}

// decodeBatch parses an appendBatch section, validating every message with
// the wire codec and every endpoint against the vertex count. dst is reused;
// the returned slice is valid until the caller's next decode.
func decodeBatch(d *dec, codec wire.Codec, n int, dst []congest.Routed) ([]congest.Routed, error) {
	count := d.u32()
	if d.err != nil {
		return nil, d.err
	}
	// Each record is at least 4+4+2 bytes; a count beyond that bound is a
	// corrupt frame, rejected before any allocation proportional to it.
	if uint64(count)*10 > uint64(len(d.b)) {
		return nil, fmt.Errorf("dist: batch count %d exceeds frame capacity", count)
	}
	dst = dst[:0]
	for i := uint32(0); i < count; i++ {
		from := graph.NodeID(d.u32())
		to := graph.NodeID(d.u32())
		kindOff := d.b
		if d.err != nil || len(kindOff) < 2 {
			d.fail()
			return nil, d.err
		}
		nargs := int(kindOff[1])
		recLen := 2 + 4*nargs
		if nargs > 4 || len(kindOff) < recLen {
			return nil, fmt.Errorf("dist: corrupt message record (nargs %d, %d bytes left)", nargs, len(kindOff))
		}
		msg, err := codec.Decode(kindOff[:recLen])
		if err != nil {
			return nil, fmt.Errorf("dist: %w", err)
		}
		d.b = d.b[recLen:]
		if int(from) < 0 || int(from) >= n || int(to) < 0 || int(to) >= n {
			return nil, fmt.Errorf("dist: message endpoints %d->%d outside %d-vertex graph", from, to, n)
		}
		dst = append(dst, congest.Routed{From: from, To: to, Msg: msg})
	}
	return dst, nil
}

// randomBatch builds a deterministic pseudo-random routed batch with valid
// kinds, arg counts and endpoints for an n-vertex network.
func randomBatch(r *rand.Rand, n, size int) []congest.Routed {
	kinds := []wire.Kind{
		wire.KindProgress, wire.KindRotation, wire.KindSuccess,
		wire.KindBroadcast, wire.KindToken, wire.KindColor,
	}
	batch := make([]congest.Routed, size)
	for i := range batch {
		args := make([]int32, r.Intn(5))
		for j := range args {
			args[j] = int32(r.Intn(n))
		}
		batch[i] = congest.Routed{
			From: graph.NodeID(r.Intn(n)),
			To:   graph.NodeID(r.Intn(n)),
			Msg:  wire.Msg(kinds[r.Intn(len(kinds))], args...),
		}
	}
	return batch
}

// TestBatchRoundTrip encodes random batches and decodes them back verbatim.
func TestBatchRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	codec := wire.NewCodec(512)
	for trial := 0; trial < 50; trial++ {
		batch := randomBatch(r, 512, r.Intn(40))
		enc := appendBatch(nil, codec, batch)
		d := dec{b: enc}
		got, err := decodeBatch(&d, codec, 512, nil)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if len(got) != len(batch) {
			t.Fatalf("trial %d: %d records, want %d", trial, len(got), len(batch))
		}
		for i := range got {
			if got[i] != batch[i] {
				t.Fatalf("trial %d record %d: %+v != %+v", trial, i, got[i], batch[i])
			}
		}
		if len(d.b) != 0 {
			t.Fatalf("trial %d: %d trailing bytes", trial, len(d.b))
		}
	}
}

// TestBatchTruncationAlwaysErrors is the truncation property: every strict
// prefix of a valid batch encoding must decode to an error — never a panic,
// never a silently shortened batch.
func TestBatchTruncationAlwaysErrors(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	codec := wire.NewCodec(128)
	full := appendBatch(nil, codec, randomBatch(r, 128, 12))
	for cut := 0; cut < len(full); cut++ {
		d := dec{b: full[:cut]}
		if _, err := decodeBatch(&d, codec, 128, nil); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(full))
		}
	}
}

// TestBatchInterleaved decodes several shards' fixed-width batches written
// back-to-back in one payload — the layout relayed sections keep — and checks
// that each section decodes to exactly its own records and that shard-order
// concatenation preserves the global sender-ascending order the in-process
// deliver consumes.
func TestBatchInterleaved(t *testing.T) {
	const n, shards = 120, 4
	codec := wire.NewCodec(n)
	r := rand.New(rand.NewSource(99))
	var payload []byte
	var want []congest.Routed
	for s := 0; s < shards; s++ {
		lo, hi := s*n/shards, (s+1)*n/shards
		batch := randomBatch(r, n, 10)
		// Senders confined to the shard's range, ascending, as Step emits.
		for i := range batch {
			batch[i].From = graph.NodeID(lo + i*(hi-lo)/len(batch))
		}
		payload = appendBatch(payload, codec, batch)
		want = append(want, batch...)
	}
	d := dec{b: payload}
	var got []congest.Routed
	for s := 0; s < shards; s++ {
		part, err := decodeBatch(&d, codec, n, nil)
		if err != nil {
			t.Fatalf("section %d: %v", s, err)
		}
		got = append(got, part...)
	}
	if len(d.b) != 0 {
		t.Fatalf("%d trailing bytes after %d sections", len(d.b), shards)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i].From < got[i-1].From {
			t.Fatalf("sender order violated at %d: %d after %d", i, got[i].From, got[i-1].From)
		}
	}
}

// TestDecodeBatchRejectsCorruptRecords covers the decoder's validation: a
// lying count, an impossible arg count, an unknown message kind, and
// out-of-range endpoints.
func TestDecodeBatchRejectsCorruptRecords(t *testing.T) {
	codec := wire.NewCodec(16)
	valid := func() []byte {
		return appendBatch(nil, codec, []congest.Routed{
			{From: 1, To: 2, Msg: wire.Msg(wire.KindToken, 3)},
		})
	}
	t.Run("count-beyond-capacity", func(t *testing.T) {
		enc := valid()
		enc[0], enc[1], enc[2], enc[3] = 0x7F, 0xFF, 0xFF, 0xFF
		d := dec{b: enc}
		if _, err := decodeBatch(&d, codec, 16, nil); err == nil || !strings.Contains(err.Error(), "exceeds frame capacity") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("nargs-too-large", func(t *testing.T) {
		enc := valid()
		enc[4+4+4+1] = 9 // arg-count byte of the first record
		d := dec{b: enc}
		if _, err := decodeBatch(&d, codec, 16, nil); err == nil || !strings.Contains(err.Error(), "corrupt message record") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("unknown-kind", func(t *testing.T) {
		enc := valid()
		enc[4+4+4] = 0xEE // kind byte of the first record
		d := dec{b: enc}
		if _, err := decodeBatch(&d, codec, 16, nil); err == nil || !strings.Contains(err.Error(), "unknown kind") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("endpoint-out-of-range", func(t *testing.T) {
		enc := appendBatch(nil, codec, []congest.Routed{
			{From: 1, To: 15, Msg: wire.Msg(wire.KindToken, 3)},
		})
		d := dec{b: enc}
		if _, err := decodeBatch(&d, codec, 8, nil); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Fatalf("got %v", err)
		}
	})
}

// FuzzDecodeBatch feeds arbitrary bytes to the batch decoder. The invariants:
// no panic, and any successful decode yields only in-range endpoints and
// messages the codec itself validates.
func FuzzDecodeBatch(f *testing.F) {
	codec := wire.NewCodec(64)
	r := rand.New(rand.NewSource(3))
	f.Add([]byte{})
	f.Add(appendBatch(nil, codec, randomBatch(r, 64, 5)))
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2, 3, 1, 0, 0, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := dec{b: data}
		batch, err := decodeBatch(&d, codec, 64, nil)
		if err != nil {
			return
		}
		for i, rec := range batch {
			if rec.From < 0 || int(rec.From) >= 64 || rec.To < 0 || int(rec.To) >= 64 {
				t.Fatalf("record %d has out-of-range endpoints %d->%d", i, rec.From, rec.To)
			}
			if rec.Msg.NArgs > 4 {
				t.Fatalf("record %d has %d args", i, rec.Msg.NArgs)
			}
		}
	})
}

// sortedBatch is randomBatch with senders made non-decreasing — the
// precondition the delta encoder inherits from Step's sender-ascending
// outboxes.
func sortedBatch(r *rand.Rand, n, size int) []congest.Routed {
	batch := randomBatch(r, n, size)
	sort.Slice(batch, func(i, j int) bool { return batch[i].From < batch[j].From })
	return batch
}

// TestBatchDeltaRoundTrip encodes sender-ascending random batches with the
// delta-varint codec and decodes them back verbatim, and pins the point of
// the encoding: it is never larger than the fixed-width reference.
func TestBatchDeltaRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		batch := sortedBatch(r, 512, r.Intn(40))
		if got, want := fixedBatchLen(batch), int64(len(appendBatch(nil, wire.NewCodec(512), batch))); got != want {
			t.Fatalf("trial %d: fixedBatchLen = %d, fixed-width encoding is %d bytes", trial, got, want)
		}
		enc := appendBatchDelta(nil, batch)
		if int64(len(enc)) > fixedBatchLen(batch) {
			t.Fatalf("trial %d: delta form %d bytes exceeds fixed form %d", trial, len(enc), fixedBatchLen(batch))
		}
		d := dec{b: enc}
		got, err := decodeBatchDelta(&d, 512, nil)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if len(got) != len(batch) {
			t.Fatalf("trial %d: %d records, want %d", trial, len(got), len(batch))
		}
		for i := range got {
			if got[i] != batch[i] {
				t.Fatalf("trial %d record %d: %+v != %+v", trial, i, got[i], batch[i])
			}
		}
		if len(d.b) != 0 {
			t.Fatalf("trial %d: %d trailing bytes", trial, len(d.b))
		}
	}
}

// TestBatchDeltaTruncationAlwaysErrors is the truncation property for the
// delta codec: every strict prefix of a valid encoding must decode to an
// error — truncated varints keep their continuation bit, and a truncated
// record runs out of payload before the count is satisfied.
func TestBatchDeltaTruncationAlwaysErrors(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	full := appendBatchDelta(nil, sortedBatch(r, 128, 12))
	for cut := 0; cut < len(full); cut++ {
		d := dec{b: full[:cut]}
		if _, err := decodeBatchDelta(&d, 128, nil); err == nil {
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

// TestDecodeBatchDeltaRejectsCorrupt covers the delta decoder's validation:
// a lying count, an unknown kind, an impossible arg count, an out-of-range
// endpoint, and an argument outside int32.
func TestDecodeBatchDeltaRejectsCorrupt(t *testing.T) {
	valid := func() []byte {
		return appendBatchDelta(nil, []congest.Routed{
			{From: 1, To: 2, Msg: wire.Msg(wire.KindToken, 3)},
		})
	}
	check := func(t *testing.T, enc []byte, n int, wantSub string) {
		t.Helper()
		d := dec{b: enc}
		if _, err := decodeBatchDelta(&d, n, nil); err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("got %v, want error containing %q", err, wantSub)
		}
	}
	t.Run("count-beyond-capacity", func(t *testing.T) {
		enc := valid()
		enc[0] = 0xFF // uvarint count far beyond the payload
		check(t, append([]byte{0xFF, 0xFF, 0x7F}, enc[1:]...), 16, "exceeds frame capacity")
	})
	t.Run("unknown-kind", func(t *testing.T) {
		enc := valid()
		enc[3] = 0xEE // kind byte: count, dFrom, to precede it
		check(t, enc, 16, "unknown kind")
	})
	t.Run("nargs-too-large", func(t *testing.T) {
		enc := valid()
		enc[4] = 9 // arg-count byte
		check(t, enc, 16, "corrupt message record")
	})
	t.Run("endpoint-out-of-range", func(t *testing.T) {
		enc := appendBatchDelta(nil, []congest.Routed{
			{From: 1, To: 15, Msg: wire.Msg(wire.KindToken, 3)},
		})
		check(t, enc, 8, "outside")
	})
	t.Run("arg-outside-int32", func(t *testing.T) {
		enc := valid()[:5] // keep count, dFrom, to, kind, nargs=1
		enc = binary.AppendVarint(enc, int64(1)<<40)
		check(t, enc, 16, "outside int32 range")
	})
}

// corpusBatches runs a real 4-shard DRA round over the actual shard engine
// and returns the delta-encoded wire batches it produces: the fuzz corpus is
// seeded with genuine protocol traffic, not just synthetic records.
func corpusBatches(tb testing.TB) [][]byte {
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
	var corpus [][]byte
	step := func(round int64, isInit bool) {
		outs := make([][]congest.Routed, k)
		for i, sh := range shards {
			out, _, err := sh.Step(round, isInit)
			if err != nil {
				tb.Fatal(err)
			}
			outs[i] = out
			corpus = append(corpus, appendBatchDelta(nil, out))
		}
		// Route cross-shard traffic and deliver, so the next step produces
		// genuine second-round batches.
		for i, sh := range shards {
			lo, hi := shardRange(n, k, i)
			var inbound []congest.Routed
			for s := 0; s < k; s++ {
				for _, m := range outs[s] {
					if int(m.To) >= lo && int(m.To) < hi {
						inbound = append(inbound, m)
					}
				}
			}
			if err := sh.Deliver(round, inbound); err != nil {
				tb.Fatal(err)
			}
		}
	}
	step(0, true)
	step(1, false)
	return corpus
}

// FuzzDecodeBatchDelta feeds arbitrary bytes to the delta batch decoder,
// seeded with real 4-shard run traffic. The invariants: no panic, and any
// successful decode yields only in-range endpoints, valid kinds, and a
// sender-ascending record order (the structural property routing relies on).
func FuzzDecodeBatchDelta(f *testing.F) {
	r := rand.New(rand.NewSource(3))
	f.Add([]byte{})
	f.Add(appendBatchDelta(nil, sortedBatch(r, 32, 5)))
	for _, b := range corpusBatches(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := dec{b: data}
		batch, err := decodeBatchDelta(&d, 32, nil)
		if err != nil {
			return
		}
		for i, rec := range batch {
			if rec.From < 0 || int(rec.From) >= 32 || rec.To < 0 || int(rec.To) >= 32 {
				t.Fatalf("record %d has out-of-range endpoints %d->%d", i, rec.From, rec.To)
			}
			if !rec.Msg.Kind.Valid() {
				t.Fatalf("record %d has invalid kind %d", i, rec.Msg.Kind)
			}
			if rec.Msg.NArgs > 4 {
				t.Fatalf("record %d has %d args", i, rec.Msg.NArgs)
			}
			if i > 0 && rec.From < batch[i-1].From {
				t.Fatalf("sender order violated at %d: %d after %d", i, rec.From, batch[i-1].From)
			}
		}
	})
}

// filterTo returns the records of batch whose target lies in [lo, hi), in
// order.
func filterTo(batch []congest.Routed, lo, hi int) []congest.Routed {
	var out []congest.Routed
	for _, r := range batch {
		if int(r.To) >= lo && int(r.To) < hi {
			out = append(out, r)
		}
	}
	return out
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

// randomOutbox builds a sender-ascending cross outbox for shard self: senders
// in self's range, targets anywhere outside it.
func randomOutbox(r *rand.Rand, n, k, self, size int) []congest.Routed {
	lo, hi := shardRange(n, k, self)
	out := sortedBatch(r, n, size)
	for i := range out {
		out[i].From = graph.NodeID(lo + (int(out[i].From)*(hi-lo))/n)
		for shardOf(int(out[i].To), n, k) == self {
			out[i].To = graph.NodeID(r.Intn(n))
		}
	}
	return out
}

// TestSectionRoundTrip is split -> relay -> decode over random outboxes of
// every shard: each destination must decode exactly the concatenation, in
// source-shard order, of every source's records for it — the global
// sender-ascending order — and the relay's accounting must match the
// fixed-width oracle and the bytes relayed.
func TestSectionRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	codec := wire.NewCodec(97)
	for _, k := range []int{2, 3, 5} {
		const n = 97
		batches := make([][]congest.Routed, k)
		outs := make([][]byte, k)
		for s := range batches {
			batches[s] = randomOutbox(r, n, k, s, r.Intn(30))
			outs[s] = newSectionWriter(n, k, s).appendSections(nil, batches[s])
		}
		links := relayAll(t, outs)
		for dst, l := range links {
			lo, hi := shardRange(n, k, dst)
			var want []congest.Routed
			for s := range batches {
				want = append(want, filterTo(batches[s], lo, hi)...)
			}
			d := dec{b: l.enc.b}
			got, err := decodeSections(&d, n, k, dst, nil)
			if err != nil {
				t.Fatalf("k=%d dst %d: %v", k, dst, err)
			}
			if len(d.b) != 0 || len(got) != len(want) {
				t.Fatalf("k=%d dst %d: %d records, %d trailing bytes; want %d records", k, dst, len(got), len(d.b), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("k=%d dst %d record %d: %+v != %+v", k, dst, i, got[i], want[i])
				}
			}
			if fixed := int64(len(appendBatch(nil, codec, want))); l.batchBytesFixed != fixed {
				t.Fatalf("k=%d dst %d: batchBytesFixed %d, fixed-width encoding %d", k, dst, l.batchBytesFixed, fixed)
			}
			if l.batchBytesDelta != int64(len(l.enc.b)) {
				t.Fatalf("k=%d dst %d: batchBytesDelta %d, relayed %d bytes", k, dst, l.batchBytesDelta, len(l.enc.b))
			}
		}
		for s, l := range links {
			count := uint64(0)
			for _, sec := range l.out {
				count += sec.count
			}
			if count != uint64(len(batches[s])) {
				t.Fatalf("k=%d shard %d: sections count %d records, outbox has %d", k, s, count, len(batches[s]))
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
	if got, err := decodeSections(&d, 40, 4, 1, nil); err != nil || len(got) != 0 || len(d.b) != 0 {
		t.Fatalf("decode = %v records, err %v, %d trailing bytes", len(got), err, len(d.b))
	}
}

// rawSection hand-assembles a non-empty section: header cost, body length,
// body.
func rawSection(fixed uint64, body []byte) []byte {
	b := binary.AppendUvarint(nil, fixed)
	b = binary.AppendUvarint(b, uint64(len(body)))
	return append(b, body...)
}

// TestSectionRejectsCorrupt covers the receiver's section checks on top of
// the delta decoder's: the relayed sections of a 20-vertex, 2-shard run as
// shard 0 receives them, each corrupted one way.
func TestSectionRejectsCorrupt(t *testing.T) {
	const n, k = 20, 2
	// One record 12 -> 3 carrying one arg: fixed cost 14.
	valid := []byte{1, 12, 3, byte(wire.KindToken), 1, 2}
	cases := []struct {
		name    string
		raw     []byte
		wantSub string
	}{
		{"sender-outside-source", rawSection(14, []byte{1, 2, 3, byte(wire.KindToken), 1, 2}), "section from shard 1"},
		{"target-outside-receiver", rawSection(14, []byte{1, 12, 13, byte(wire.KindToken), 1, 2}), "section from shard 1"},
		{"fixed-cost-mismatch", rawSection(10, valid), "declares fixed cost"},
		{"nonzero-cost-zero-records", rawSection(14, []byte{0}), "declares fixed cost"},
		{"trailing-body-bytes", rawSection(14, append(append([]byte(nil), valid...), 0)), "trailing bytes"},
		{"body-beyond-frame", rawSection(14, valid)[:4], "truncated"},
		{"missing-section", nil, "truncated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := dec{b: tc.raw}
			if _, err := decodeSections(&d, n, k, 0, nil); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("got %v, want error containing %q", err, tc.wantSub)
			}
		})
	}
	d := dec{b: rawSection(14, valid)}
	if got, err := decodeSections(&d, n, k, 0, nil); err != nil || len(got) != 1 || got[0].From != 12 || got[0].To != 3 {
		t.Fatalf("valid section decoded to %+v, %v", got, err)
	}
}

// TestSectionLiveTargetStopsAtFirstLive pins the coordinator's early exit:
// the scan decodes records only up to the first live target (so garbage
// after it is never read), reads on through halted targets, and
// bounds-checks every target before indexing the halted bitmap.
func TestSectionLiveTargetStopsAtFirstLive(t *testing.T) {
	halted := make([]bool, 20)
	halted[3], halted[4] = true, true
	sec := func(body []byte) section { return section{body: body, fixed: 1} }
	// count 3: 12->3 (halted), 12->5 (live), then a truncated record.
	live, err := sec([]byte{3, 12, 3, byte(wire.KindToken), 1, 2, 0, 5, byte(wire.KindToken), 0, 0x80}).liveTarget(halted)
	if err != nil || !live {
		t.Fatalf("live target after halted prefix: live=%v err=%v", live, err)
	}
	live, err = sec([]byte{2, 12, 3, byte(wire.KindToken), 0, 0, 4, byte(wire.KindToken), 1, 0x7F}).liveTarget(halted)
	if err != nil || live {
		t.Fatalf("all-halted section: live=%v err=%v", live, err)
	}
	if _, err := sec([]byte{2, 12, 3, byte(wire.KindToken), 0, 0, 4, byte(wire.KindToken), 1}).liveTarget(halted); err == nil {
		t.Fatal("truncated all-halted section scanned without error")
	}
	if _, err := sec([]byte{1, 12, 20, byte(wire.KindToken), 0}).liveTarget(halted); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("out-of-range target: %v", err)
	}
}

// FuzzDecodeSections checks split -> relay -> decode on arbitrary outboxes,
// seeded with the outboxes of a real 4-shard run: data is decoded as a delta
// batch and restricted to a valid cross outbox of shard src; after the
// sender's split and the coordinator's relay, every destination must decode
// exactly the outbox filtered to its range, and every strict prefix of a
// destination's relayed bytes must fail.
func FuzzDecodeSections(f *testing.F) {
	const n, k = 32, 4
	for i, b := range corpusBatches(f) {
		f.Add(b, uint8(i%k))
	}
	f.Fuzz(func(t *testing.T, data []byte, src uint8) {
		s := int(src) % k
		d := dec{b: data}
		batch, err := decodeBatchDelta(&d, n, nil)
		if err != nil {
			return
		}
		lo, hi := shardRange(n, k, s)
		var out []congest.Routed
		for _, r := range batch {
			if int(r.From) >= lo && int(r.From) < hi && (int(r.To) < lo || int(r.To) >= hi) {
				out = append(out, r)
			}
		}
		outs := make([][]byte, k)
		for i := range outs {
			var own []congest.Routed
			if i == s {
				own = out
			}
			outs[i] = newSectionWriter(n, k, i).appendSections(nil, own)
		}
		for dst, l := range relayAll(t, outs) {
			dlo, dhi := shardRange(n, k, dst)
			want := filterTo(out, dlo, dhi)
			rd := dec{b: l.enc.b}
			got, err := decodeSections(&rd, n, k, dst, nil)
			if err != nil || len(rd.b) != 0 || len(got) != len(want) {
				t.Fatalf("dst %d: %d records (err %v, %d trailing bytes), want %d", dst, len(got), err, len(rd.b), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("dst %d record %d: %+v != %+v", dst, i, got[i], want[i])
				}
			}
			for cut := 0; cut < len(l.enc.b); cut++ {
				pd := dec{b: l.enc.b[:cut]}
				if _, err := decodeSections(&pd, n, k, dst, nil); err == nil {
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
