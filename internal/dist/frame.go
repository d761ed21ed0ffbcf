// Package dist runs the exact CONGEST engine across real transport
// boundaries: the vertex set is partitioned into K contiguous shards, each
// executed by its own worker — a goroutine behind a unix-domain socket, or a
// separate OS process running cmd/hcshard — while a hub coordinator drives
// the synchronous round loop over length-prefixed frames.
//
// The design goal is byte-identity with the in-process engine, and the
// mechanism is structural: each shard runs congest.Shard — the executor an
// in-process Network runs as a single shard over every vertex — and the
// coordinator is a congest.Fused executor driven by congest.RunRounds, the
// same round loop (round skipping, budget charging, cancellation) the
// in-process engine runs, with ONE fused exchange per executed round:
//
//	FUSE(d, r): every shard first delivers round d's inbound cross-shard
//	            messages (splicing back the messages it retained locally at
//	            step time, reconstructing the global sender-ascending
//	            order), then builds its local active set for round r,
//	            invokes its nodes, and returns its cross-shard outbound
//	            messages plus the scheduling facts the coordinator needs
//	            (newly-halted nodes, local pending activity, earliest
//	            wake).
//
// Fusing is sound because delivery never touches the scheduler: the
// liveness/wake aggregation the coordinator performs between rounds only
// gates the NEXT fused frame, so a shard can route round d and step round
// r = d+1 in one visit. A final FINISH frame carries the last round's
// deliver so its messages are metered exactly as in-process (delivery
// happens even when every node has halted).
//
// The round-barrier handshake is the frame protocol itself: round r+1's
// FUSE frames are sent only after every shard's round-r reply arrived, so no
// shard can observe round r+1 before round r is globally complete. The
// coordinator does all link I/O on one goroutine: it writes every shard's
// frame, then reads the replies in shard order, which also fixes the order
// replies are aggregated in. Shards compute concurrently between the two.
// Every coordinator-side write and read carries the step timeout as its
// deadline, so a shard that stops reading or answering is declared down.
//
// Cross-shard traffic moves as records, not per-edge messages: a record is
// one sender's message with its list of receivers (a flood over a scope is
// one record), and it is encoded once per destination shard, by its
// sender, and decoded once, by its receiver. A worker splits its
// sender-ascending cross outbox into K-1 per-destination sections
// (destinations ascending, partition lo(i) = i*n/K). Each section carries
// every record that reaches that shard once — the sender as a delta, the
// message, then only that shard's receivers, in send order, as zigzag id
// deltas — behind a small header: the messages' per-edge fixed-width cost,
// their per-edge count, and the body length. Receivers are vertex ids
// rather than the sender's ports because the coordinator holds no graph
// and must read targets. The coordinator never materialises message
// bodies: it relays each section as opaque bytes into its destination's
// next FUSE/FINISH frame in source-shard order, takes cross-shard message
// counts from the headers, and decides message activity by decoding only
// up to the first receiver that is not halted (reading on only while every
// receiver so far is halted). The receiver decodes its K-1 sections back to
// back into exactly the global sender-ascending inbound record order,
// validating every record — kind, arg count, argument range, sender and
// receiver ranges, receiver count, and the header's counts — so a corrupt
// section is caught by the shard that receives it, which drops its
// connection and surfaces as ErrShardDown. Delivery then walks each record
// as in process: counts stay per edge, and a bandwidth stamp is taken only
// where an edge can overrun, so metering is exactly the in-process one.
//
// Differential tests solve the same instances in process and distributed
// and assert byte-identical results and counters; the golden fixtures in
// testdata/golden pin both against outputs recorded independently of this
// shared code.
package dist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"time"

	"dhc/internal/congest"
	"dhc/internal/graph"
	"dhc/internal/wire"
)

// Frame types. Every frame on the wire is a 4-byte big-endian payload length
// followed by the payload, whose first byte is one of these tags.
const (
	frameHello   byte = 1 // worker -> coordinator: u32 shard index
	frameConfig  byte = 2 // coordinator -> proc worker: run configuration + graph
	frameBegin   byte = 3 // coordinator -> worker: u64 seed, u32 shard count K
	frameFuse    byte = 4 // coordinator -> worker: i64 deliver round (-1 = none), i64 step round, u8 init, K-1 relayed sections
	frameFuseRes byte = 5 // worker -> coordinator: stage, err, u32 live, newly halted, local activity, wake, K-1 outbound sections
	frameFinish  byte = 6 // coordinator -> worker: i64 deliver round (-1 = none), K-1 relayed sections (final flush)
	frameFinal   byte = 7 // worker -> coordinator: err, counters, busy, local-routed count, final program states
	frameAbort   byte = 8 // coordinator -> worker: tear down
)

// Fused-reply stage labels: which half of a fused exchange an error came
// from. The coordinator aggregates deliver-stage errors ahead of step-stage
// errors to match the round order (round r's deliver fails before round
// r+1's step runs).
const (
	stageNone    byte = 0
	stageDeliver byte = 1
	stageStep    byte = 2
)

// maxFramePayload bounds a single frame. A round's batch for one shard is at
// most n * bandwidth messages in theory; 64 MiB is far above anything a
// sane instance produces and small enough that a corrupt length prefix
// cannot drive a multi-gigabyte allocation.
const maxFramePayload = 64 << 20

// Wire error codes: congest sentinels must survive the process boundary so
// errors.Is keeps working on the coordinator side.
const (
	errCodeNone        byte = 0
	errCodeNotNeighbor byte = 1
	errCodeBandwidth   byte = 2
	errCodeOther       byte = 3
)

func errToCode(err error) (byte, string) {
	switch {
	case err == nil:
		return errCodeNone, ""
	case errors.Is(err, congest.ErrNotNeighbor):
		return errCodeNotNeighbor, err.Error()
	case errors.Is(err, congest.ErrBandwidth):
		return errCodeBandwidth, err.Error()
	default:
		return errCodeOther, err.Error()
	}
}

// errFromCode reconstructs a shard-side error. The sentinel identity is
// restored exactly; the message text is carried verbatim.
func errFromCode(code byte, msg string) error {
	switch code {
	case errCodeNone:
		return nil
	case errCodeNotNeighbor:
		return fmt.Errorf("%w%s", congest.ErrNotNeighbor, trimSentinel(msg, congest.ErrNotNeighbor.Error()))
	case errCodeBandwidth:
		return fmt.Errorf("%w%s", congest.ErrBandwidth, trimSentinel(msg, congest.ErrBandwidth.Error()))
	default:
		return errors.New(msg)
	}
}

// trimSentinel drops the sentinel prefix from a carried message so the
// reconstructed error renders identically to the original instead of
// repeating the prefix.
func trimSentinel(msg, prefix string) string {
	if len(msg) >= len(prefix) && msg[:len(prefix)] == prefix {
		return msg[len(prefix):]
	}
	return ": " + msg
}

// frameConn frames payloads over a byte stream and meters traffic in both
// directions. Reads go through a bufio.Reader; the receive buffer is reused,
// so a received payload is valid only until the next recv.
type frameConn struct {
	rw       io.ReadWriter
	nc       net.Conn // non-nil when deadlines are available
	br       *bufio.Reader
	rbuf     []byte
	wbuf     []byte
	hdr      [4]byte
	bytesIn  int64
	bytesOut int64
	timeout  time.Duration // per-frame write and read deadline; 0 = none
}

func newFrameConn(rw io.ReadWriter) *frameConn {
	fc := &frameConn{rw: rw, br: bufio.NewReaderSize(rw, 1<<16)}
	if nc, ok := rw.(net.Conn); ok {
		fc.nc = nc
	}
	return fc
}

// send writes one length-prefixed frame with a single Write: the header and
// payload are assembled in the reused send buffer, so a frame costs one
// syscall rather than two.
func (c *frameConn) send(payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("dist: frame payload %d exceeds limit %d", len(payload), maxFramePayload)
	}
	if c.nc != nil && c.timeout > 0 {
		if err := c.nc.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
			return err
		}
	}
	c.wbuf = binary.BigEndian.AppendUint32(c.wbuf[:0], uint32(len(payload)))
	c.wbuf = append(c.wbuf, payload...)
	if _, err := c.rw.Write(c.wbuf); err != nil {
		return err
	}
	c.bytesOut += int64(4 + len(payload))
	return nil
}

// recv reads one frame into the reused receive buffer. A zero-length or
// oversized frame is a protocol error, never a hang or a giant allocation.
func (c *frameConn) recv() ([]byte, error) {
	if c.nc != nil && c.timeout > 0 {
		if err := c.nc.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return nil, err
		}
	}
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(c.hdr[:])
	if n == 0 {
		return nil, fmt.Errorf("dist: empty frame")
	}
	if n > maxFramePayload {
		return nil, fmt.Errorf("dist: frame payload %d exceeds limit %d", n, maxFramePayload)
	}
	if cap(c.rbuf) < int(n) {
		c.rbuf = make([]byte, n)
	}
	buf := c.rbuf[:n]
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return nil, err
	}
	c.bytesIn += int64(4 + n)
	return buf, nil
}

// enc builds frame payloads in a reusable buffer.
type enc struct{ b []byte }

func (e *enc) u8(v byte)      { e.b = append(e.b, v) }
func (e *enc) u32(v uint32)   { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)   { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)    { e.u64(uint64(v)) }
func (e *enc) i32(v int32)    { e.u32(uint32(v)) }
func (e *enc) bytes(p []byte) { e.u32(uint32(len(p))); e.b = append(e.b, p...) }
func (e *enc) str(s string)   { e.u32(uint32(len(s))); e.b = append(e.b, s...) }
func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// dec consumes a frame payload with sticky error handling: the first short
// read poisons the decoder, so call sites chain reads and check err once.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("dist: truncated frame")
	}
}

func (d *dec) u8() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *dec) i64() int64 { return int64(d.u64()) }
func (d *dec) i32() int32 { return int32(d.u32()) }

func (d *dec) bool() bool { return d.u8() != 0 }

// lenPrefixed reads a u32 length-prefixed byte section, bounding it by the
// remaining payload so a corrupt length cannot allocate beyond the frame.
func (d *dec) lenPrefixed() []byte {
	n := d.u32()
	if d.err != nil || uint64(n) > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *dec) str() string { return string(d.lenPrefixed()) }

// uvarintPrefixed is lenPrefixed with a uvarint length.
func (d *dec) uvarintPrefixed() []byte {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// uvarintAt decodes the uvarint at the start of b exactly as binary.Uvarint
// does (k <= 0 on a short or overlong input), taking one- and two-byte
// values — vertex ids and message arguments of instances up to 2^14
// vertices — without entering the general loop.
func uvarintAt(b []byte) (v uint64, k int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	if len(b) > 1 && b[1] < 0x80 {
		return uint64(b[0]&0x7f) | uint64(b[1])<<7, 2
	}
	return binary.Uvarint(b)
}

// varintAt is uvarintAt for zigzag varints (binary.Varint).
func varintAt(b []byte) (v int64, k int) {
	u, k := uvarintAt(b)
	return int64(u>>1) ^ -int64(u&1), k
}

// truncated poisons d with the short-read error and returns it.
func (d *dec) truncated() error {
	d.fail()
	return d.err
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := uvarintAt(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := varintAt(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// fixedCountLen is the size of the fixed-width reference encoding's u32
// record count.
const fixedCountLen = 4

// fixedRecordLen is the size of one per-edge message carrying m in the
// fixed-width reference encoding: a u32 sender, a u32 receiver, kind and
// arg-count bytes, and 4-byte args. ShardStats.BatchBytesFixed sums it over
// every relayed edge.
func fixedRecordLen(m wire.Message) uint64 { return 10 + 4*uint64(m.NArgs) }

// Per-destination record sections. A fused reply ends with the worker's
// cross outbox split by destination shard into K-1 sections, one per other
// shard in ascending order. A section carries each outbox record once per
// destination shard it reaches, with that shard's receivers only:
//
//	section := fixed                     (uvarint; 0 = empty, the section ends)
//	           edges                     (uvarint: per-edge messages)
//	           length body               (uvarint byte length, then the body)
//	body    := count record...           (uvarint record count)
//	record  := delta kind nargs arg...   (uvarint sender delta from the
//	                                      previous record's sender, 0 first;
//	                                      kind and arg-count bytes; zigzag
//	                                      varint args)
//	           rcount recv...            (uvarint receiver count >= 1, then
//	                                      zigzag varint receiver deltas in
//	                                      send order, the first from the
//	                                      destination's lo, each next from
//	                                      the previous receiver)
//
// fixed is what the section's messages would cost one edge at a time in the
// fixed-width reference encoding (fixedRecordLen each) and edges is their
// count, so the coordinator accounts ShardStats.CrossMsgs and
// BatchBytesFixed from the header alone. Receivers travel as vertex ids,
// not as the sender's ports: the coordinator holds no graph, and its
// liveTarget scan must read targets.
//
// The coordinator relays sections as opaque bytes: it copies each one
// verbatim into its destination's next FUSE/FINISH frame, in source-shard
// order. The receiver decodes its K-1 sections back to back, and because
// each source's senders lie in that source's range and the ranges ascend,
// the concatenation is the global sender-ascending order Shard.Deliver
// consumes.

// shardOf returns the shard whose lo(i) = i*n/k range holds vertex v: the
// largest i with i*n/k <= v.
func shardOf(v, n, k int) int { return int((int64(v+1)*int64(k) - 1) / int64(n)) }

// sectionWriter is a worker's reusable per-destination section encoder.
type sectionWriter struct {
	n, k, self int
	bufs       []sectionBuf // indexed by destination shard
	touched    []int        // destinations of the record being split
	// cur is the shard the last receiver fell in, and [curLo, curHi) its
	// range: ascending receivers mostly stay in it.
	cur, curLo, curHi int
}

// sectionBuf accumulates one destination's section while an outbox is
// split.
type sectionBuf struct {
	recs         []byte // records, without the count
	count, edges uint64
	fixed        uint64 // the messages' fixed-width cost
	prev         uint64 // the last record's sender, for delta coding
	lo           int64  // the destination's first vertex
	last         int64  // the previous receiver written, for delta coding
	pending      uint64 // receivers here of the record being split
}

// add counts run more receivers of the record being split for the
// destination s it buffers, appending s to touched on its first.
func (b *sectionBuf) add(touched []int, s int, run uint64) []int {
	if b.pending == 0 {
		touched = append(touched, s)
	}
	b.pending += run
	return touched
}

func newSectionWriter(n, k, self int) *sectionWriter {
	w := &sectionWriter{n: n, k: k, self: self, bufs: make([]sectionBuf, k)}
	w.curLo, w.curHi = shardRange(n, k, 0)
	return w
}

// locate returns the shard holding receiver v. It compares v with the
// range of the shard the previous receiver fell in, and divides only when v
// lies outside it.
func (w *sectionWriter) locate(v graph.NodeID) int {
	if int(v) < w.curLo || int(v) >= w.curHi {
		w.cur = shardOf(int(v), w.n, w.k)
		w.curLo, w.curHi = shardRange(w.n, w.k, w.cur)
	}
	return w.cur
}

// appendMessage appends m's record form: kind and arg-count bytes, then
// each argument as a zigzag varint.
func appendMessage(dst []byte, m wire.Message) []byte {
	dst = append(dst, byte(m.Kind), m.NArgs)
	for j := 0; j < int(m.NArgs); j++ {
		dst = binary.AppendVarint(dst, int64(m.Args[j]))
	}
	return dst
}

// appendSections appends out — a Shard.Step cross outbox: sender-ascending,
// every receiver another shard's — to dst as K-1 per-destination sections.
// Each record is written once per destination it reaches, straight into
// that destination's buffer, so each section stays sender-ascending as the
// delta coding requires.
func (w *sectionWriter) appendSections(dst []byte, out []congest.Record) []byte {
	for s := range w.bufs {
		lo, _ := shardRange(w.n, w.k, s)
		w.bufs[s] = sectionBuf{recs: w.bufs[s].recs[:0], lo: int64(lo)}
	}
	for i := range out {
		r := &out[i]
		if len(r.To) == 0 {
			continue
		}
		// Count each destination's receivers a run at a time: ascending
		// receivers form one run per destination.
		touched := w.touched[:0]
		run, cur := uint64(0), w.locate(r.To[0])
		for _, v := range r.To {
			if s := w.locate(v); s != cur {
				touched = w.bufs[cur].add(touched, cur, run)
				run, cur = 0, s
			}
			run++
		}
		touched = w.bufs[cur].add(touched, cur, run)
		from := uint64(uint32(r.From))
		for _, s := range touched {
			b := &w.bufs[s]
			b.recs = binary.AppendUvarint(b.recs, from-b.prev)
			b.recs = appendMessage(b.recs, r.Msg)
			b.recs = binary.AppendUvarint(b.recs, b.pending)
			b.prev, b.last = from, b.lo
			b.count++
			b.edges += b.pending
			b.fixed += b.pending * fixedRecordLen(r.Msg)
			b.pending = 0
		}
		if len(touched) == 1 {
			b := &w.bufs[touched[0]]
			b.recs, b.last = appendDeltas(b.recs, r.To, b.last)
		} else {
			for _, v := range r.To {
				b := &w.bufs[w.locate(v)]
				b.recs = binary.AppendVarint(b.recs, int64(v)-b.last)
				b.last = int64(v)
			}
		}
		w.touched = touched
	}
	var count [binary.MaxVarintLen64]byte
	for s := range w.bufs {
		if s == w.self {
			continue
		}
		b := &w.bufs[s]
		dst = binary.AppendUvarint(dst, b.fixed)
		if b.count == 0 {
			continue
		}
		dst = binary.AppendUvarint(dst, b.edges)
		c := binary.PutUvarint(count[:], b.count)
		dst = binary.AppendUvarint(dst, uint64(c+len(b.recs)))
		dst = append(dst, count[:c]...)
		dst = append(dst, b.recs...)
	}
	return dst
}

// appendDeltas appends the receivers to as zigzag varint deltas, the first
// from last, and returns the extended dst and the last receiver.
func appendDeltas(dst []byte, to []graph.NodeID, last int64) ([]byte, int64) {
	for _, v := range to {
		d := int64(v) - last
		last = int64(v)
		if u := uint64(d<<1) ^ uint64(d>>63); u < 0x80 { // the usual one-byte delta
			dst = append(dst, byte(u))
		} else {
			dst = binary.AppendUvarint(dst, u)
		}
	}
	return dst, last
}

// section is one per-destination section of a fused reply, as the
// coordinator handles it: raw is the header and body to relay verbatim,
// body the records (nil when empty), and fixed and edges the header's
// fixed-width cost and per-edge message count.
type section struct {
	raw, body    []byte
	fixed, edges uint64
}

// readSection consumes one section, reading its header but none of its
// records. Errors are sticky in d.
func readSection(d *dec) section {
	start := d.b
	var s section
	if s.fixed = d.uvarint(); s.fixed != 0 {
		s.edges = d.uvarint()
		s.body = d.uvarintPrefixed()
	}
	if d.err != nil {
		return section{}
	}
	s.raw = start[:len(start)-len(d.b)]
	return s
}

// liveTarget reports whether the section, bound for the shard whose range
// starts at lo, holds a message to a node that is not halted. It decodes
// receivers only up to the first such one, so a round with live traffic
// costs the coordinator one record per section at most; only while every
// receiver so far is halted does it read on. Receivers are bounds-checked
// before they index halted. The records' full validation is the receiving
// worker's (decodeSections).
func (s section) liveTarget(halted []bool, lo int) (bool, error) {
	if s.body == nil {
		return false, nil
	}
	d := dec{b: s.body}
	count := d.uvarint()
	for i := uint64(0); i < count && d.err == nil; i++ {
		d.uvarint() // sender delta
		d.u8()      // kind
		nargs := d.u8()
		for j := 0; j < int(nargs); j++ {
			d.varint()
		}
		rcount := d.uvarint()
		to := int64(lo)
		for j := uint64(0); j < rcount && d.err == nil; j++ {
			if to += d.varint(); d.err != nil {
				break
			}
			if to < 0 || to >= int64(len(halted)) {
				return false, fmt.Errorf("dist: message target %d outside %d-vertex graph", to, len(halted))
			}
			if !halted[to] {
				return true, nil
			}
		}
	}
	return false, d.err
}

// decodeSections decodes the K-1 sections a FUSE/FINISH frame relays to
// shard self — one from every other shard, in ascending order — into recs,
// with the receivers in ids (both reused): self's inbound records, in
// global sender-ascending order.
func decodeSections(d *dec, n, k, self int, recs []congest.Record, ids []graph.NodeID) ([]congest.Record, []graph.NodeID, error) {
	recs, ids = recs[:0], ids[:0]
	for src := 0; src < k; src++ {
		if src == self {
			continue
		}
		var err error
		if recs, ids, err = decodeSection(d, n, k, src, self, recs, ids); err != nil {
			return nil, nil, err
		}
	}
	return recs, ids, nil
}

// decodeSection decodes one section from shard src to shard dst, appending
// its records to recs and their receivers to ids. It validates every
// record: a known kind, at most four args each within int32, a sender in
// src's range (reconstructed by prefix sum, so the records come out
// sender-ascending), at least one receiver and every receiver in dst's
// range. The body must end where its length says, and the header's edge
// count and fixed-width cost must match the records. Any strict prefix of
// a valid encoding fails: a truncated varint keeps its continuation bit,
// and a truncated body runs out before its length or count is satisfied.
func decodeSection(d *dec, n, k, src, dst int, recs []congest.Record, ids []graph.NodeID) ([]congest.Record, []graph.NodeID, error) {
	fixed := d.uvarint()
	if fixed == 0 {
		return recs, ids, d.err
	}
	edges := d.uvarint()
	body := d.uvarintPrefixed()
	if d.err != nil {
		return nil, nil, d.err
	}
	count, c := uvarintAt(body)
	if c <= 0 {
		return nil, nil, d.truncated()
	}
	b := body[c:]
	// A record takes at least five bytes (sender delta, kind, arg count,
	// receiver count, one receiver) and a receiver at least one; counts
	// beyond that are a corrupt section, rejected before any allocation
	// proportional to them.
	if count > uint64(len(b))/5 || edges > uint64(len(b)) {
		return nil, nil, fmt.Errorf("dist: section from shard %d declares %d records and %d messages in %d bytes", src, count, edges, len(b))
	}
	recs = slices.Grow(recs, int(count))
	ids = slices.Grow(ids, int(edges))
	slo, shi := shardRange(n, k, src)
	rlo, rhi := shardRange(n, k, dst)
	from, left, cost := uint64(0), edges, uint64(0)
	for i := uint64(0); i < count; i++ {
		delta, k1 := uvarintAt(b)
		if k1 <= 0 || len(b) < k1+2 {
			return nil, nil, d.truncated()
		}
		m := wire.Message{Kind: wire.Kind(b[k1]), NArgs: b[k1+1]}
		b = b[k1+2:]
		if !m.Kind.Valid() {
			return nil, nil, fmt.Errorf("dist: unknown kind %d", m.Kind)
		}
		if int(m.NArgs) > len(m.Args) {
			return nil, nil, fmt.Errorf("dist: corrupt message record (nargs %d)", m.NArgs)
		}
		if from += delta; from < delta || from < uint64(slo) || from >= uint64(shi) {
			return nil, nil, fmt.Errorf("dist: sender %d outside [%d,%d) in a section from shard %d", from, slo, shi, src)
		}
		for j := 0; j < int(m.NArgs); j++ {
			a, ka := varintAt(b)
			if ka <= 0 {
				return nil, nil, d.truncated()
			}
			b = b[ka:]
			if a < math.MinInt32 || a > math.MaxInt32 {
				return nil, nil, fmt.Errorf("dist: message arg %d outside int32 range", a)
			}
			m.Args[j] = int32(a)
		}
		rcount, k2 := uvarintAt(b)
		if k2 <= 0 {
			return nil, nil, d.truncated()
		}
		b = b[k2:]
		if rcount == 0 || rcount > left {
			return nil, nil, fmt.Errorf("dist: record with %d receivers in a section from shard %d with %d of %d messages left", rcount, src, left, edges)
		}
		left -= rcount
		// ids has room for every message the header declares, and rcount
		// is within what is left of them.
		start := len(ids)
		ids = ids[:start+int(rcount)]
		to, pos := int64(rlo), 0
		for j := start; j < len(ids); j++ {
			var dv int64
			if pos < len(b) && b[pos] < 0x80 { // the usual one-byte delta
				dv = int64(b[pos]>>1) ^ -int64(b[pos]&1)
				pos++
			} else {
				var kv int
				if dv, kv = varintAt(b[pos:]); kv <= 0 {
					return nil, nil, d.truncated()
				}
				pos += kv
			}
			if to += dv; to < int64(rlo) || to >= int64(rhi) {
				return nil, nil, fmt.Errorf("dist: message %d->%d outside [%d,%d) in a section from shard %d to shard %d", from, to, rlo, rhi, src, dst)
			}
			ids[j] = graph.NodeID(to)
		}
		b = b[pos:]
		cost += rcount * fixedRecordLen(m)
		recs = append(recs, congest.Record{From: graph.NodeID(from), Msg: m, To: ids[start:len(ids):len(ids)]})
	}
	if len(b) != 0 {
		return nil, nil, fmt.Errorf("dist: section from shard %d has %d trailing bytes", src, len(b))
	}
	if left != 0 {
		return nil, nil, fmt.Errorf("dist: section from shard %d declares %d messages, its records hold %d", src, edges, edges-left)
	}
	if cost != fixed {
		return nil, nil, fmt.Errorf("dist: section from shard %d declares fixed cost %d, its records cost %d", src, fixed, cost)
	}
	return recs, ids, nil
}
