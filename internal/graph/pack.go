package graph

// Streaming CSR packing. Everything here exists so a graph can be built
// without ever materializing an []Edge: canonical vertex pairs travel either
// as packed uint64 keys (8 bytes instead of Edge's 16, sortable with
// slices.Sort and no comparator closure) or straight out of a generator
// pass, and land in the CSR arena through a fill whose cache-hostile half
// goes through a chunked counting sort.
//
// The fill exploits the same ordering contract as newCSR: when canonical
// (u < v) pairs arrive sorted by (u, v), row x receives its smaller
// neighbors (the v side, whose u ascend across the stream) before its larger
// ones (the u side block at u == x), and each group arrives ascending — so
// rows come out sorted with no per-row sort. Splitting the two groups onto
// separate cursors (the smaller-neighbor section starts at off[x], the
// larger-neighbor section at off[x]+smaller[x]) decouples their write
// timing, which is what lets the random-access half be deferred and batched
// while the sequential half streams directly.

import (
	"fmt"
	"math/bits"
	"slices"
)

// MaxEdges returns the number of unordered vertex pairs n·(n−1)/2, computed
// in int64 so vertex counts at and beyond 10^7 — where the product overflows
// 32-bit and, at ~3·10^9, even squares uncomfortably against int on 32-bit
// platforms — can never silently wrap. Callers validating generator
// parameters must compare against this, not against an int expression.
func MaxEdges(n int) int64 {
	if n < 2 {
		return 0
	}
	nn := int64(n)
	return nn * (nn - 1) / 2
}

// ValidateEdgeCount reports whether a graph with n vertices and m edges is
// representable: m within [0, MaxEdges(n)] and 2m within the int32 CSR
// offset range. CLI and sweep parameter validation call this to turn
// infeasible requests into config errors; the generators themselves panic,
// treating violations that reach them as programmer error.
func ValidateEdgeCount(n int, m int64) error {
	if m < 0 {
		return fmt.Errorf("graph: negative edge count %d", m)
	}
	if max := MaxEdges(n); m > max {
		return fmt.Errorf("graph: m=%d exceeds the %d possible edges for n=%d", m, max, n)
	}
	if 2*m > maxHalfEdges {
		return fmt.Errorf("graph: m=%d needs %d half-edges, beyond the int32 CSR range", m, 2*m)
	}
	return nil
}

// packPair encodes the canonical form of the pair {u, v} as u<<32|v with
// u < v. uint64 ordering of packed pairs equals lexicographic (U, V) edge
// ordering, so a packed slice sorts into exactly the order newCSR requires.
func packPair(u, v NodeID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// unpackPair inverts packPair.
func unpackPair(p uint64) (u, v NodeID) {
	return NodeID(p >> 32), NodeID(uint32(p))
}

// sortDedupPacked canonically sorts packed pairs in place and removes
// duplicates, returning the shortened slice.
func sortDedupPacked(pairs []uint64) []uint64 {
	slices.Sort(pairs)
	return slices.Compact(pairs)
}

// scatterTuning controls the chunked counting sort in deferredScatter and
// GNP's parallel phases. The zero value selects production defaults; tests
// override the fields to force the chunked and parallel paths onto graphs
// small enough to cross-check exhaustively.
type scatterTuning struct {
	// directBytes: arenas at or below this size scatter writes in place
	// (they fit cache well enough that batching only adds overhead).
	directBytes int
	// stageCap: deferred entries buffered per chunk. 0 derives m/4, which
	// keeps the extra memory at half the arena (16 bytes per staged entry
	// against 8 arena bytes per edge) and revisits every arena cache line
	// about twice per flush instead of once per graph.
	stageCap int
	// regionBytes: target arena bytes per counting-sort region. Regions are
	// what turn a full-arena random stride into a cache-window stride.
	regionBytes int
	// parallelEdges: GNP's expected edge count at or above which its skip
	// arithmetic and transpose leave the calling goroutine. 0 selects
	// defaultParallelEdges.
	parallelEdges int
	// skipBlock: uniforms per block of GNP's parallel skip arithmetic. 0
	// derives it from the expected edge count.
	skipBlock int
	// reserve: GNP's initial arena capacity in half-edges. 0 derives it from
	// the expected edge count plus four standard deviations.
	reserve int
}

const (
	defaultDirectBytes = 32 << 20
	defaultRegionBytes = 512 << 10
	// maxStageEntries caps the two staging buffers at 1 GiB total so the
	// 10^7-vertex runs don't trade arena locality for staging residency.
	maxStageEntries = 1 << 26
	// defaultParallelEdges is GNP's cut-over to goroutines, in expected
	// edges: on 2 vCPUs the parallel phases took G(4096, 32 ln n/n), 545k
	// edges, from 20–25 to 14–22 ms, and were no faster at 250k edges.
	defaultParallelEdges = 1 << 19
	// maxBuildWorkers caps GNP's goroutines: the walk and the draws stay
	// on one goroutine, so more workers than this only wait on it.
	maxBuildWorkers = 4
	// GNP's parallel skip blocks hold 1/64 of the expected draws, clamped
	// to [minSkipBlock, maxSkipBlock]. Every block costs one round of
	// goroutine hand-offs, so large blocks pay (at n = 2·10^5, 2^16 builds
	// ~20 % faster than 2^14); three blocks in flight take 48 bytes a draw,
	// under a tenth of the arena.
	minSkipBlock = 1 << 12
	maxSkipBlock = 1 << 16
)

// deferredScatter batches the random-access half of CSR filling. A direct
// fill executes arena[cur[w]++] = v immediately, striding randomly across
// the whole arena — at 10^6+ vertices every such write is a TLB and cache
// miss. Instead, add buffers the writes, and each flush counting-sorts the
// batch by arena region (a contiguous row range covering ~regionBytes of
// arena) before applying it, so the misses concentrate into one
// cache-resident window at a time.
//
// Rows receive their deferred values in add order; callers must add each
// row's values in ascending order (generator stream order guarantees this),
// and the counting sort is stable, so row contents stay sorted.
type deferredScatter struct {
	arena  []NodeID
	cur    []int32
	direct bool
	rshift uint
	counts []int32
	stage  []uint64
	slot   []uint64
}

// newDeferredScatter sizes one of share scatters that fill disjoint rows of
// one arena at once; each stages 1/share of the single-scatter capacity.
func newDeferredScatter(arena []NodeID, cur []int32, n int, tune scatterTuning, share int) *deferredScatter {
	s := &deferredScatter{arena: arena, cur: cur}
	directBytes := tune.directBytes
	if directBytes == 0 {
		directBytes = defaultDirectBytes
	}
	arenaBytes := 4 * len(arena)
	if arenaBytes <= directBytes || n == 0 {
		s.direct = true
		return s
	}
	regionBytes := tune.regionBytes
	if regionBytes == 0 {
		regionBytes = defaultRegionBytes
	}
	numRegions := (arenaBytes + regionBytes - 1) / regionBytes
	rowsPerRegion := n / numRegions
	if rowsPerRegion < 1 {
		rowsPerRegion = 1
	}
	s.rshift = uint(bits.Len(uint(rowsPerRegion))) - 1 // floor log2
	s.counts = make([]int32, ((n-1)>>s.rshift)+2)
	stageCap := tune.stageCap
	if stageCap == 0 {
		stageCap = len(arena) / 2 / 4 // m/4 entries
		if stageCap > maxStageEntries {
			stageCap = maxStageEntries
		}
	}
	if stageCap < 1024 {
		stageCap = 1024
	}
	stageCap /= share
	s.stage = make([]uint64, 0, stageCap)
	s.slot = make([]uint64, stageCap)
	return s
}

// add records the deferred write arena[cur[w]++] = v.
func (s *deferredScatter) add(w, v NodeID) {
	if s.direct {
		s.arena[s.cur[w]] = v
		s.cur[w]++
		return
	}
	s.stage = append(s.stage, uint64(uint32(w))<<32|uint64(uint32(v)))
	if len(s.stage) == cap(s.stage) {
		s.flush()
	}
}

func (s *deferredScatter) flush() {
	if len(s.stage) == 0 {
		return
	}
	counts := s.counts
	for i := range counts {
		counts[i] = 0
	}
	for _, e := range s.stage {
		counts[uint((e>>32))>>s.rshift+1]++
	}
	for r := 1; r < len(counts); r++ {
		counts[r] += counts[r-1]
	}
	slot := s.slot[:len(s.stage)]
	for _, e := range s.stage {
		r := uint(e>>32) >> s.rshift
		slot[counts[r]] = e
		counts[r]++
	}
	for _, e := range slot {
		w := NodeID(e >> 32)
		s.arena[s.cur[w]] = NodeID(uint32(e))
		s.cur[w]++
	}
	s.stage = s.stage[:0]
}

// finish applies any still-buffered writes. Required before the arena is
// complete; safe to call on the direct path too.
func (s *deferredScatter) finish() {
	if !s.direct {
		s.flush()
	}
}

// csrFromPackedPairs builds a Graph from packed canonical pairs that are
// sorted and distinct — the shared streaming tail of the builders and the
// G(n, M) sampler. It produces byte-identical arrays to newCSR over the
// equivalent []Edge, without that slice ever existing.
func csrFromPackedPairs(n int, pairs []uint64) *Graph {
	return csrFromPackedPairsTuned(n, pairs, scatterTuning{})
}

func csrFromPackedPairsTuned(n int, pairs []uint64, tune scatterTuning) *Graph {
	guardHalfEdges(2 * int64(len(pairs)))
	off := make([]int32, n+1)
	smaller := make([]int32, n) // per-row count of smaller neighbors (v side)
	for _, e := range pairs {
		u, v := unpackPair(e)
		off[u+1]++
		off[v+1]++
		smaller[v]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	arena := make([]NodeID, 2*len(pairs))
	curU := smaller // reuse: after the loop below it becomes the u-side cursor
	curV := make([]int32, n)
	for x := 0; x < n; x++ {
		curV[x] = off[x]
		curU[x] = off[x] + smaller[x]
	}
	sc := newDeferredScatter(arena, curV, n, tune, 1)
	for _, e := range pairs {
		u, v := unpackPair(e)
		arena[curU[u]] = v // u ascends: sequential
		curU[u]++
		sc.add(v, u) // v is random-access: batched
	}
	sc.finish()
	return &Graph{n: n, m: len(pairs), off: off, arena: arena}
}
