package congest

import "dhc/internal/bitset"

// scheduler tracks per-node wake-ups for the event-driven schedule. Only its
// Shard touches it (active-set assembly and the invoke-and-merge loop), so it
// needs no locking, and its decisions depend only on the execution itself.
type scheduler struct {
	// nextWake[v] is the earliest pending wake round of node v, -1 none.
	nextWake []int64
	// heap is a binary min-heap of (round, node) wake entries, lazily
	// invalidated: an entry is live iff nextWake[entry.v] == entry.round.
	heap []wakeEntry
}

type wakeEntry struct {
	round int64
	v     int32
}

func newScheduler(n int) scheduler {
	s := scheduler{nextWake: make([]int64, n)}
	s.reset()
	return s
}

// reset restores the schedule to its initial state, no wake-up pending,
// keeping the heap's backing array for reuse across runs.
func (s *scheduler) reset() {
	for v := range s.nextWake {
		s.nextWake[v] = -1
	}
	s.heap = s.heap[:0]
}

// arm guarantees node v is woken no later than round w ("no later": an
// earlier pending wake is kept; a later one is superseded by pushing the
// earlier entry, leaving the old one to lazy invalidation).
func (s *scheduler) arm(v int32, w int64) {
	if cur := s.nextWake[v]; cur >= 0 && cur <= w {
		return
	}
	s.nextWake[v] = w
	s.push(wakeEntry{round: w, v: v})
}

// noteHalt drops a halting node's pending wake-up (its heap entries die by
// lazy invalidation).
func (s *scheduler) noteHalt(v int32) {
	s.nextWake[v] = -1
}

// popDue consumes every live wake entry due at or before `round`. Nodes not
// already marked in inActive are marked and appended to dst; the extended
// slice is returned. Stale entries encountered on the way are discarded.
func (s *scheduler) popDue(round int64, halted []bool, inActive bitset.Set, dst []int32) []int32 {
	for len(s.heap) > 0 && s.heap[0].round <= round {
		e := s.pop()
		if s.nextWake[e.v] != e.round || halted[e.v] {
			continue // stale (superseded, consumed, or node halted)
		}
		s.nextWake[e.v] = -1
		if inActive.Has(int(e.v)) {
			continue // already active via delivery
		}
		inActive.Add(int(e.v))
		dst = append(dst, e.v)
	}
	return dst
}

// earliestWake peeks the earliest live wake round without consuming it.
func (s *scheduler) earliestWake(halted []bool) (int64, bool) {
	for len(s.heap) > 0 {
		e := s.heap[0]
		if s.nextWake[e.v] != e.round || halted[e.v] {
			s.pop()
			continue
		}
		return e.round, true
	}
	return 0, false
}

func (s *scheduler) push(e wakeEntry) {
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !wakeLess(s.heap[i], s.heap[parent]) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *scheduler) pop() wakeEntry {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(s.heap) && wakeLess(s.heap[l], s.heap[min]) {
			min = l
		}
		if r < len(s.heap) && wakeLess(s.heap[r], s.heap[min]) {
			min = r
		}
		if min == i {
			break
		}
		s.heap[i], s.heap[min] = s.heap[min], s.heap[i]
		i = min
	}
	return top
}

// wakeLess orders entries by round, then node id, so heap contents are a
// pure function of the execution (the tiebreak is never observable — the
// active set is put in id order after the pops — but keeps traversal
// stable).
func wakeLess(a, b wakeEntry) bool {
	if a.round != b.round {
		return a.round < b.round
	}
	return a.v < b.v
}
