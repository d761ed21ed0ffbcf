package serve

import (
	"math/bits"
	"sync"

	"dhc"
)

// poolKey identifies one free list of interchangeable sessions. Sessions are
// additionally keyed by the n-class of the instances they have run — the
// next power of two of n — because a session's arena grows to its largest
// run: without the class a single huge request would pin every later small
// request to an oversized arena, and mixed sizes would defeat arena reuse.
// The options are a request's dhc.Options without its seed (a per-trial
// input via SolveSeeded) and without an Observer (streaming requests attach
// one on a dedicated session — see handleStream).
type poolKey struct {
	algo   dhc.Algorithm
	opts   dhc.Options
	nClass int
}

// nClass buckets an instance size: all n in (2^(k-1), 2^k] share a session
// class, so a pooled arena is never more than 2x oversized for its request.
func nClass(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// solverPool is the server's session pool: bounded per-key free lists of
// reusable dhc.Solver sessions. Checked-out sessions are exclusively owned by
// one request (the solver's own in-use guard backstops that contract);
// returning a session recycles its engine arena for the next same-class
// request — the ~143x bytes/trial reuse win measured in BENCH_pr5.json,
// applied across requests instead of across a sweep cell's trials.
type solverPool struct {
	mu sync.Mutex
	// free holds idle sessions per key, most recently used last (LIFO reuse
	// keeps warm arenas warmer).
	free map[poolKey][]*dhc.Solver
	// perKey bounds each free list; excess sessions are dropped for GC.
	perKey int

	created int64 // sessions constructed
	reused  int64 // checkouts served from a free list
}

func newSolverPool(perKey int) *solverPool {
	if perKey < 1 {
		perKey = 1
	}
	return &solverPool{free: make(map[poolKey][]*dhc.Solver), perKey: perKey}
}

// get checks a session out, constructing one when the free list is empty.
func (p *solverPool) get(key poolKey) (*dhc.Solver, error) {
	p.mu.Lock()
	if list := p.free[key]; len(list) > 0 {
		s := list[len(list)-1]
		p.free[key] = list[:len(list)-1]
		p.reused++
		p.mu.Unlock()
		return s, nil
	}
	p.created++
	p.mu.Unlock()
	return dhc.NewSolver(key.algo, key.opts)
}

// put returns a session to its free list, dropping it when the list is full.
func (p *solverPool) put(key poolKey, s *dhc.Solver) {
	if s == nil {
		return
	}
	p.mu.Lock()
	if len(p.free[key]) < p.perKey {
		p.free[key] = append(p.free[key], s)
	}
	p.mu.Unlock()
}

// counts returns (created, reused) for the stats endpoint.
func (p *solverPool) counts() (int64, int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.created, p.reused
}
