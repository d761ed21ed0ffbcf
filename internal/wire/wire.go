// Package wire defines the message vocabulary of every distributed algorithm
// in this repository, with exact bit-size accounting.
//
// The CONGEST model allows O(log n) bits per edge per round. All algorithm
// messages carry a small constant number of node identifiers or path indices,
// each of which needs ceil(log2 n) bits, so every message fits the model. The
// Codec computes the exact width of a message for a given network size, and
// the network simulator rejects messages wider than its per-edge bandwidth.
// The bytes a message takes between processes are the distributed engine's
// business (internal/dist), not this package's.
package wire

import (
	"fmt"
	"math/bits"
)

// Kind discriminates message types across all algorithms.
type Kind uint8

const (
	// KindProgress is DRA's progress(pos) from the head to the chosen
	// neighbor (Algorithm 1 line 10).
	KindProgress Kind = iota + 1
	// KindRotation is DRA's rotation(h, j) broadcast (Algorithm 1 line 17).
	KindRotation
	// KindSuccess announces the cycle closed (Algorithm 1 line 12).
	KindSuccess
	// KindVerify is DHC2's verify(succ(v)) probe to nodes of the partner
	// color (Algorithm 3 line 7).
	KindVerify
	// KindVerified is DHC2's verified(u, u') reply (Algorithm 3 line 16).
	KindVerified
	// KindBuildBridge commits a chosen bridge (Algorithm 3 line 12).
	KindBuildBridge
	// KindCandidate carries a leader-election candidate id.
	KindCandidate
	// KindBFSExplore expands a BFS tree (parent -> children).
	KindBFSExplore
	// KindBFSAck acknowledges BFS adoption (child -> parent).
	KindBFSAck
	// KindBroadcast is a generic subgraph-scoped broadcast payload.
	KindBroadcast
	// KindEdgeSample carries one sampled edge up the BFS tree (Upcast
	// step 3).
	KindEdgeSample
	// KindHCEdge carries one Hamiltonian-cycle edge down the BFS tree
	// (Upcast step 4).
	KindHCEdge
	// KindToken is an application payload (examples/overlayring).
	KindToken
	// KindCount carries a subtree count up a BFS tree (convergecast).
	KindCount
	// KindSizeAnnounce broadcasts a computed size (e.g. partition size)
	// back down.
	KindSizeAnnounce
	// KindBarrierUp reports "my whole subtree reached barrier seq".
	KindBarrierUp
	// KindBarrierGo releases barrier seq from the root downward.
	KindBarrierGo
	// KindColor announces a node's partition color to its neighbors.
	KindColor
	// KindPort announces that a node is a hypernode port (DHC1 Phase 2).
	KindPort
	// KindRelay carries state between the two ports of a hypernode.
	KindRelay
	// KindQuery asks a cycle neighbor whether it is adjacent to a given
	// node (DHC2 bridge verification, Algorithm 3 line 15).
	KindQuery
	// KindQueryReply answers a KindQuery.
	KindQueryReply
	// KindReject tells a probing hypernode head its probe was invalid.
	KindReject
	// KindBridgeCand floods a bridge candidate within a partition for
	// minimum selection (Algorithm 3 line 10).
	KindBridgeCand
	// KindReverse tells a merged partner cycle to reverse its orientation.
	KindReverse

	kindMax
)

// NumKinds is one more than the largest defined kind: defined kinds lie in
// [1, NumKinds). Receivers that keep per-kind bit masks size them by it.
const NumKinds = int(kindMax)

var kindNames = map[Kind]string{
	KindProgress:     "progress",
	KindRotation:     "rotation",
	KindSuccess:      "success",
	KindVerify:       "verify",
	KindVerified:     "verified",
	KindBuildBridge:  "buildBridge",
	KindCandidate:    "candidate",
	KindBFSExplore:   "bfsExplore",
	KindBFSAck:       "bfsAck",
	KindBroadcast:    "broadcast",
	KindEdgeSample:   "edgeSample",
	KindHCEdge:       "hcEdge",
	KindToken:        "token",
	KindCount:        "count",
	KindSizeAnnounce: "sizeAnnounce",
	KindBarrierUp:    "barrierUp",
	KindBarrierGo:    "barrierGo",
	KindColor:        "color",
	KindPort:         "port",
	KindRelay:        "relay",
	KindQuery:        "query",
	KindQueryReply:   "queryReply",
	KindReject:       "reject",
	KindBridgeCand:   "bridgeCand",
	KindReverse:      "reverse",
}

// String returns the message-kind name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// maxArgs is the largest number of id-sized arguments any message carries.
const maxArgs = 4

// Message is one CONGEST message. Args[0:NArgs] are node ids or path indices,
// each of which costs ceil(log2 n) bits on the wire.
type Message struct {
	Kind  Kind
	NArgs uint8
	Args  [maxArgs]int32
}

// Msg constructs a message; convenience for the algorithm packages.
func Msg(k Kind, args ...int32) Message {
	if len(args) > maxArgs {
		panic(fmt.Sprintf("wire: message with %d args exceeds max %d", len(args), maxArgs))
	}
	m := Message{Kind: k, NArgs: uint8(len(args))}
	copy(m.Args[:], args)
	return m
}

// Arg returns the i-th argument; zero if out of range, so malformed messages
// degrade predictably in tests.
func (m Message) Arg(i int) int32 {
	if i < 0 || i >= int(m.NArgs) {
		return 0
	}
	return m.Args[i]
}

// String renders e.g. "rotation(7,3)".
func (m Message) String() string {
	s := m.Kind.String() + "("
	for i := 0; i < int(m.NArgs); i++ {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d", m.Args[i])
	}
	return s + ")"
}

// Codec computes message widths for an n-node network.
type Codec struct {
	// IDBits is the width of one node id / index field: ceil(log2 n),
	// minimum 1.
	IDBits int
}

// NewCodec returns the codec for an n-node network.
func NewCodec(n int) Codec {
	if n < 2 {
		return Codec{IDBits: 1}
	}
	return Codec{IDBits: bits.Len(uint(n - 1))}
}

// Flood reports whether k is an idempotent flood: every message of the kind
// is a flood payload that a receiver acts on once, so a second copy of the
// same payload arriving in the same round is a no-op for every program that
// reads the kind. DRA's rotation(h, j) broadcast and its success/failure
// announcement are such floods (so are DHC1's hypernode rotation floods and
// Upcast's failure flood, which share the kinds). The exact engine meters
// every copy per edge but hands a receiver only the first copy of each
// payload per round, in sender order (congest.Shard.Deliver).
func (k Kind) Flood() bool { return k == KindRotation || k == KindSuccess }

// Valid reports whether k is a defined message kind. Decoders that rebuild
// messages from bytes use it to reject undefined kinds.
func (k Kind) Valid() bool { return k > 0 && k < kindMax }

// kindBits is the width of the kind field. 8 bits covers all kinds with room
// for application extensions.
const kindBits = 8

// Bits returns the exact payload width of m in bits: the kind tag plus one
// id-sized field per argument. Path indices (positions, sizes) are bounded by
// n so they also fit in IDBits; fields that can reach n itself (e.g. a cycle
// length) need one extra value, which IDBits+1 would cover — we charge IDBits
// and allow indices up to 2^IDBits - 1, which holds for all our messages
// because positions are at most n and IDBits = ceil(log2 n) gives
// 2^IDBits >= n.
func (c Codec) Bits(m Message) int64 {
	return kindBits + int64(m.NArgs)*int64(c.IDBits)
}
