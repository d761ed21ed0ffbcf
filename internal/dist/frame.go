// Package dist runs the exact CONGEST engine across real transport
// boundaries: the vertex set is partitioned into K contiguous shards, each
// executed by its own worker — a goroutine behind a unix-domain or TCP
// loopback socket, or a separate OS process running cmd/hcshard — while a
// hub coordinator drives the synchronous round loop over length-prefixed
// frames.
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
// shard can observe round r+1 before round r is globally complete. Each link
// runs a dedicated I/O goroutine, so fan-out and reply collection overlap
// across shards; replies are aggregated in shard order for determinism.
//
// Each cross-shard message is encoded once, by its sender, and decoded
// once, by its receiver. A worker splits its sender-ascending cross outbox
// into K-1 per-destination sections (destinations ascending, partition
// lo(i) = i*n/K), each a small header — the records' fixed-width cost, and
// the body length — followed by a delta-varint batch: From is delta-coded
// and ids/args are varint-coded, well below the fixed-width reference
// encoding the codec tests keep as their oracle. The coordinator never
// materialises message bodies: it relays each section as opaque bytes into
// its destination's next FUSE/FINISH frame in source-shard order, takes
// cross-shard message counts from each section's record count, and decides message
// activity by decoding only up to the first record whose target is not
// halted (reading on only while every target so far is halted). The
// receiver decodes its K-1 sections back to back into exactly the global
// sender-ascending inbound order, validating every record — kind, arg
// count, argument range, endpoints, and that the target is its own — so a
// corrupt section is caught by the shard that receives it, which drops its
// connection and surfaces as ErrShardDown.
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
	timeout  time.Duration // per-recv read deadline; 0 = none
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

// appendBatchDelta appends a batch in the delta-varint wire form: a uvarint
// count, then per record a uvarint From delta (From minus the previous
// record's From; the implicit predecessor is 0), a uvarint To, the kind and
// arg-count bytes, and each argument as a zigzag varint. batch must be
// sender-ascending (non-decreasing From), which a Shard.Step outbox, and so
// each of its per-destination buckets, guarantees; the encoding exploits it
// so runs of one sender cost a single delta byte each.
func appendBatchDelta(dst []byte, batch []congest.Routed) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(batch)))
	prev := uint64(0)
	for i := range batch {
		dst = appendRecordDelta(dst, &batch[i], prev)
		prev = uint64(uint32(batch[i].From))
	}
	return dst
}

// appendRecordDelta appends one appendBatchDelta record whose predecessor's
// sender is prev.
func appendRecordDelta(dst []byte, r *congest.Routed, prev uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(uint32(r.From))-prev)
	dst = binary.AppendUvarint(dst, uint64(uint32(r.To)))
	dst = append(dst, byte(r.Msg.Kind), r.Msg.NArgs)
	for j := 0; j < int(r.Msg.NArgs); j++ {
		dst = binary.AppendVarint(dst, int64(r.Msg.Args[j]))
	}
	return dst
}

// decodeBatchDelta parses an appendBatchDelta batch and appends its records
// to dst, validating every kind, arg count, argument range and endpoint.
// From is reconstructed by prefix sum (an overflowing delta is rejected), so
// the appended records are sender-ascending by construction. Any strict
// prefix of a valid encoding fails: a truncated varint keeps its
// continuation bit, and a truncated record runs out of payload before the
// count is satisfied.
func decodeBatchDelta(d *dec, n int, dst []congest.Routed) ([]congest.Routed, error) {
	count := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	// Each record is at least 1+1+1+1 bytes (delta, to, kind, nargs); a
	// count beyond that bound is a corrupt frame, rejected before any
	// allocation proportional to it.
	if count*4 > uint64(len(d.b)) {
		return nil, fmt.Errorf("dist: batch count %d exceeds frame capacity", count)
	}
	// The record loop reads a local slice through the varint fast paths; d
	// is only written back at the end (or poisoned on a short read).
	b := d.b
	from := uint64(0)
	for i := uint64(0); i < count; i++ {
		delta, k1 := uvarintAt(b)
		if k1 <= 0 {
			return nil, d.truncated()
		}
		to, k2 := uvarintAt(b[k1:])
		if k2 <= 0 || len(b) < k1+k2+2 {
			return nil, d.truncated()
		}
		kind, nargs := wire.Kind(b[k1+k2]), b[k1+k2+1]
		b = b[k1+k2+2:]
		if !kind.Valid() {
			return nil, fmt.Errorf("dist: unknown kind %d", kind)
		}
		if int(nargs) > len(wire.Message{}.Args) {
			return nil, fmt.Errorf("dist: corrupt message record (nargs %d)", nargs)
		}
		from += delta
		if from < delta || from >= uint64(n) || to >= uint64(n) {
			return nil, fmt.Errorf("dist: message endpoints %d->%d outside %d-vertex graph", from, to, n)
		}
		// Decode in place: growing dst by one record and filling it avoids
		// building the record on the stack and copying it in.
		if len(dst) == cap(dst) {
			dst = append(dst, congest.Routed{})
		} else {
			dst = dst[:len(dst)+1]
		}
		r := &dst[len(dst)-1]
		r.From, r.To = graph.NodeID(from), graph.NodeID(to)
		r.Msg = wire.Message{Kind: kind, NArgs: nargs}
		for j := 0; j < int(nargs); j++ {
			a, k := varintAt(b)
			if k <= 0 {
				return nil, d.truncated()
			}
			b = b[k:]
			if a < math.MinInt32 || a > math.MaxInt32 {
				return nil, fmt.Errorf("dist: message arg %d outside int32 range", a)
			}
			r.Msg.Args[j] = int32(a)
		}
	}
	d.b = b
	return dst, nil
}

// fixedCountLen is the size of the fixed-width reference encoding's u32
// record count.
const fixedCountLen = 4

// fixedRecordLen is one record's size in the fixed-width reference encoding:
// a u32 sender, a u32 receiver, kind and arg-count bytes, and 4-byte args.
func fixedRecordLen(r *congest.Routed) int64 { return 10 + 4*int64(r.Msg.NArgs) }

// fixedBatchLen returns the byte length of batch in the fixed-width
// reference encoding, the baseline ShardStats.BatchBytesFixed reports.
func fixedBatchLen(batch []congest.Routed) int64 {
	n := int64(fixedCountLen)
	for i := range batch {
		n += fixedRecordLen(&batch[i])
	}
	return n
}

// Per-destination sections. A fused reply ends with the worker's cross
// outbox split by destination shard into K-1 sections, one per other shard
// in ascending order. A section starts with a uvarint header: the
// fixed-width cost of its records (fixedBatchLen without the count), so
// ShardStats can report the reference cost without decoding anything. A
// zero cost marks an empty section, which ends there in one byte; otherwise
// a uvarint body length and the body — an appendBatchDelta batch — follow.
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
}

// sectionBuf accumulates one destination's section while an outbox is
// split.
type sectionBuf struct {
	recs  []byte // appendBatchDelta records, without the count
	count uint64
	fixed int64  // the records' fixed-width cost
	prev  uint64 // the last record's sender, for delta coding
}

func newSectionWriter(n, k, self int) *sectionWriter {
	return &sectionWriter{n: n, k: k, self: self, bufs: make([]sectionBuf, k)}
}

// appendSections appends out — a Shard.Step cross outbox: sender-ascending,
// every target another shard's — to dst as K-1 per-destination sections. It
// encodes each record once, straight into its destination's buffer, so the
// split keeps each section sender-ascending as the delta body requires.
func (w *sectionWriter) appendSections(dst []byte, out []congest.Routed) []byte {
	for s := range w.bufs {
		w.bufs[s] = sectionBuf{recs: w.bufs[s].recs[:0]}
	}
	for i := range out {
		r := &out[i]
		b := &w.bufs[shardOf(int(r.To), w.n, w.k)]
		b.recs = appendRecordDelta(b.recs, r, b.prev)
		b.prev = uint64(uint32(r.From))
		b.count++
		b.fixed += fixedRecordLen(r)
	}
	var count [binary.MaxVarintLen64]byte
	for s := range w.bufs {
		if s == w.self {
			continue
		}
		b := &w.bufs[s]
		dst = binary.AppendUvarint(dst, uint64(b.fixed))
		if b.count == 0 {
			continue
		}
		c := binary.PutUvarint(count[:], b.count)
		dst = binary.AppendUvarint(dst, uint64(c+len(b.recs)))
		dst = append(dst, count[:c]...)
		dst = append(dst, b.recs...)
	}
	return dst
}

// section is one per-destination section of a fused reply, as the
// coordinator handles it: raw is the header and body to relay verbatim,
// body the delta batch (nil when empty), fixed the header's fixed-width
// cost and count the body's record count.
type section struct {
	raw, body    []byte
	fixed, count uint64
}

// readSection consumes one section, reading its header and record count but
// none of its records. Errors are sticky in d.
func readSection(d *dec) section {
	start := d.b
	var s section
	if s.fixed = d.uvarint(); s.fixed != 0 {
		s.body = d.uvarintPrefixed()
		bd := dec{b: s.body}
		s.count = bd.uvarint()
		if d.err == nil {
			d.err = bd.err
		}
	}
	if d.err != nil {
		return section{}
	}
	s.raw = start[:len(start)-len(d.b)]
	return s
}

// liveTarget reports whether the section holds a message to a node that is
// not halted. It decodes records only up to the first such message, so a
// round with live traffic costs the coordinator one record per section at
// most; only while every target so far is halted does it read on. Targets
// are bounds-checked before they index halted. The records' full
// validation is the receiving worker's (decodeSections).
func (s section) liveTarget(halted []bool) (bool, error) {
	if s.body == nil {
		return false, nil
	}
	d := dec{b: s.body}
	count := d.uvarint()
	for i := uint64(0); i < count && d.err == nil; i++ {
		d.uvarint() // sender delta
		to := d.uvarint()
		if d.err != nil {
			break
		}
		if to >= uint64(len(halted)) {
			return false, fmt.Errorf("dist: message target %d outside %d-vertex graph", to, len(halted))
		}
		if !halted[to] {
			return true, nil
		}
		d.u8() // kind
		nargs := d.u8()
		for j := 0; j < int(nargs); j++ {
			d.varint()
		}
	}
	return false, d.err
}

// decodeSections decodes the K-1 sections a FUSE/FINISH frame relays to
// shard self — one from every other shard, in ascending order — into dst
// (reused): self's inbound batch, in global sender-ascending order. On top
// of decodeBatchDelta's checks, every sender must lie in its source shard's
// range and every target in self's, a body must end where its length says,
// and a header's fixed-width cost must match its records.
func decodeSections(d *dec, n, k, self int, dst []congest.Routed) ([]congest.Routed, error) {
	dst = dst[:0]
	rlo, rhi := shardRange(n, k, self)
	for s := 0; s < k; s++ {
		if s == self {
			continue
		}
		fixed := d.uvarint()
		if fixed == 0 {
			if d.err != nil {
				return nil, d.err
			}
			continue
		}
		body := dec{b: d.uvarintPrefixed()}
		if d.err != nil {
			return nil, d.err
		}
		start := len(dst)
		var err error
		if dst, err = decodeBatchDelta(&body, n, dst); err != nil {
			return nil, err
		}
		if len(body.b) != 0 {
			return nil, fmt.Errorf("dist: section from shard %d has %d trailing bytes", s, len(body.b))
		}
		slo, shi := shardRange(n, k, s)
		for i := start; i < len(dst); i++ {
			r := &dst[i]
			if int(r.From) < slo || int(r.From) >= shi || int(r.To) < rlo || int(r.To) >= rhi {
				return nil, fmt.Errorf("dist: message %d->%d in a section from shard %d [%d,%d) to shard %d [%d,%d)",
					r.From, r.To, s, slo, shi, self, rlo, rhi)
			}
		}
		if cost := uint64(fixedBatchLen(dst[start:]) - fixedCountLen); cost != fixed {
			return nil, fmt.Errorf("dist: section from shard %d declares fixed cost %d, its records cost %d", s, fixed, cost)
		}
	}
	return dst, nil
}
