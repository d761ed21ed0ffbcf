package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"dhc"
	"dhc/internal/graph"
)

// cacheKey identifies one deterministic solve: the full graph content, the
// outcome-shaping solver configuration, and the seed. Two requests with equal
// keys are guaranteed byte-identical responses by the repository's
// determinism contract, which is what makes replaying a stored body safe.
//
// Deliberately excluded from the key:
//
//   - Workers: any worker count produces byte-identical results (the
//     determinism contract), so requests differing only in server-side
//     parallelism share cache entries.
//   - TimeoutMS: deadlines shape only *canceled* outcomes, and canceled
//     responses are never cached (they are wall-clock evidence, not instance
//     evidence).
//
// The graph is keyed by content (vertex count plus every CSR adjacency row),
// not by its generator recipe, so an explicit edge list and a generated
// instance that happen to be the same graph share an entry.
type cacheKey [sha256.Size]byte

// hashGraph digests one instance's content: vertex count, edge count, and
// every CSR adjacency row. Hashing is linear in the graph (a few ns per
// half-edge through SHA-256) — the price of making false sharing
// cryptographically negligible; a collision here would replay a wrong answer.
//
// Computing this digest requires the graph, which for generated instances
// means building it. The server therefore memoizes generator-recipe → digest
// (newRecipeCache), so a repeated generated request is keyed — and on a cache
// hit answered — without reconstructing the instance.
func hashGraph(g *dhc.Graph) cacheKey {
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	u64 := func(v uint64) {
		if len(buf)+8 > cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	u64(uint64(g.N()))
	u64(uint64(g.M()))
	for v := 0; v < g.N(); v++ {
		row := g.Neighbors(graph.NodeID(v))
		u64(uint64(len(row)))
		for _, u := range row {
			u64(uint64(u))
		}
	}
	h.Write(buf)
	var key cacheKey
	h.Sum(key[:0])
	return key
}

// hashSolve combines a graph digest with the outcome-shaping solver fields
// into the replay-cache key. Constant-time: the graph's cost lives entirely
// in its digest.
func hashSolve(digest cacheKey, algo dhc.Algorithm, opts dhc.Options, seed uint64, includeCycle bool) cacheKey {
	h := sha256.New()
	buf := digest[:]
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	u64(uint64(algo))
	u64(uint64(opts.Engine))
	u64(math.Float64bits(opts.Delta))
	u64(uint64(int64(opts.NumColors)))
	u64(uint64(opts.MaxRounds))
	u64(seed)
	if includeCycle {
		u64(1)
	} else {
		u64(0)
	}
	h.Write(buf)
	var key cacheKey
	h.Sum(key[:0])
	return key
}

// lru is a bounded least-recently-used map, safe for concurrent use, that
// counts its lookups' hits and misses. A capacity <= 0 stores nothing.
type lru[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*list.Element
	order   *list.List // front = most recent
	cap     int

	hits   int64
	misses int64
}

type lruItem[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{
		entries: make(map[K]*list.Element),
		order:   list.New(),
		cap:     capacity,
	}
}

// get returns the value stored for key and whether it was present, updating
// LRU order and the hit/miss counters.
func (c *lru[K, V]) get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		return el.Value.(*lruItem[K, V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// put stores a value, evicting the least recently used entry when full. Both
// caches map a key to one deterministic value, so a repeated put only
// refreshes recency.
func (c *lru[K, V]) put(key K, val V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruItem[K, V]{key: key, val: val})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruItem[K, V]).key)
	}
}

// counts returns (hits, misses) for the stats endpoint.
func (c *lru[K, V]) counts() (int64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// newRecipeCache memoizes generator recipe → graph-content digest. It is what
// keeps replay hits cheap for generated instances: without it every request
// would rebuild and re-hash its graph just to look up the replay cache, and a
// hit on a large instance would cost nearly as much as a solve. The mapping
// is sound because generation is deterministic — a recipe always yields the
// same graph, hence the same digest.
func newRecipeCache(capacity int) *lru[string, cacheKey] {
	return newLRU[string, cacheKey](capacity)
}

// replayEntry is one cached response: the HTTP status and the exact body
// bytes that were computed for the key, under the recipe text the body
// records. Replaying the stored bytes (rather than re-marshalling a stored
// struct) is what makes the byte-identity contract trivially true — the test
// in serve_test.go asserts it end to end.
type replayEntry struct {
	status int
	recipe string
	body   []byte
}
