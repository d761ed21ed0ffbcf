// Package rotation implements the randomized rotation algorithm of Angluin &
// Valiant for finding Hamiltonian cycles in random graphs, as a step-level
// state machine (paper Section II-A.2, Algorithm 1; Fig. 2).
//
// One step is either a path extension or a rotation — the unit in which
// Theorem 2 states its 7·n·ln(n) bound. The state machine is engine-neutral:
// the sequential baseline runs it directly and the step simulator drives it
// while charging the paper's per-step broadcast cost. The one random choice
// of a step — the head popping a uniformly random unused edge — is the
// Unused type, which the machine, the DRA CONGEST nodes and both engines'
// hypernode rotations all call, so the same stream and the same calls give
// the same draws.
package rotation

import (
	"errors"
	"fmt"
	"math"

	"dhc/internal/cycle"
	"dhc/internal/graph"
	"dhc/internal/rng"
)

// Failure modes of the rotation process, matching the events of the paper's
// Theorem 2 analysis.
var (
	// ErrStepBudget corresponds to event E1: the step budget elapsed
	// without closing the cycle.
	ErrStepBudget = errors.New("rotation: step budget exhausted before cycle closed")
	// ErrOutOfEdges corresponds to event E2: the head ran out of unused
	// edges.
	ErrOutOfEdges = errors.New("rotation: head has no unused edges")
	// ErrInterrupted means Config.Interrupt reported cancellation before the
	// cycle closed; callers translate it back to their context's error.
	ErrInterrupted = errors.New("rotation: run interrupted")
)

// EventKind describes what a single Step did.
type EventKind uint8

const (
	// Extended means the path grew by one vertex.
	Extended EventKind = iota + 1
	// Rotated means a rotation at position J occurred (requires a
	// renumbering broadcast in the distributed implementation).
	Rotated
	// Closed means the cycle closed: the head reached the tail with the
	// path spanning all vertices.
	Closed
)

// Event reports one step of the process.
type Event struct {
	Kind EventKind
	// Head is the head before the step; Chosen is the neighbor it picked.
	Head, Chosen graph.NodeID
	// H and J are the broadcast parameters of a rotation (path length and
	// rotation position); H is also set for Closed (== n).
	H, J int
}

// Config tunes the state machine.
type Config struct {
	// MaxSteps bounds the number of steps; 0 selects ceil(7 n ln n) + 16,
	// the budget of Theorem 2 (the +16 keeps tiny graphs from rounding to
	// budgets smaller than n).
	MaxSteps int64
	// ThinningP, if positive, activates the analysis coupling of Theorem 2:
	// each node's initial unused list keeps each incident edge
	// independently with probability q/p where q = 1 - sqrt(1-p), so the
	// retained pair probability is exactly q. Zero keeps every edge (the
	// practical algorithm, which only does better).
	ThinningP float64
	// Interrupt, if non-nil, is polled by Run every interruptCheckEvery
	// steps; returning true aborts the run with ErrInterrupted. It must not
	// consume randomness, so an uninterrupted run is byte-identical with or
	// without the hook — the step simulator wires a context check here.
	Interrupt func() bool
}

// interruptCheckEvery is Run's amortized cancellation-poll cadence in steps.
const interruptCheckEvery = 1024

// Attempts is the attempt budget of every distributed rotation run, in both
// engines: a standalone DRA, each phase-1 partition DRA of DHC1/DHC2, and
// DHC1's phase-2 hypernode rotation each make at most this many attempts,
// restarting after a failure flood and a quiet period. The paper's
// algorithms never restart: the analysis gives one attempt failure
// probability O(1/n'^3), negligible asymptotically but noticeable at small
// partition sizes, and each restart drives it down by that factor again at
// O(D) extra rounds. This is an engineering extension, not part of the
// paper's algorithm or its analysis.
const Attempts = 6

// BroadcastBound is B = 2·ecc+1 for a scope whose root has eccentricity ecc
// within it: 2·ecc is at least the scope's diameter, so a broadcast from any
// member settles within B rounds. Both engines charge the rotation
// consistency wait at it — DHC per partition, for the partition leader's
// eccentricity, which the exact engine measures with the partition's size
// count (proto.Counter) — and the exact algorithms also bound their
// election and BFS settling times by it.
func BroadcastBound(ecc int) int64 { return int64(2*ecc + 1) }

// GraphBound is the broadcast bound of the whole graph, the one every
// engine computes: BroadcastBound of vertex 0's eccentricity, from one BFS.
// reached is how many vertices that BFS found, n exactly when g is
// connected. An exact run refuses a graph with reached < n before round 0
// (congest.ErrDisconnected).
func GraphBound(g *graph.Graph) (b int64, reached int) {
	ecc, reached := g.Ecc(0)
	return BroadcastBound(ecc), reached
}

// DefaultMaxSteps returns the Theorem 2 step budget for an n-vertex graph.
func DefaultMaxSteps(n int) int64 {
	if n < 2 {
		return 16
	}
	return int64(math.Ceil(7*float64(n)*math.Log(float64(n)))) + 16
}

// Stats meters a run at step granularity.
type Stats struct {
	Steps      int64
	Extensions int64
	Rotations  int64
}

// Machine is the rotation process state. Create with New, then call Step
// until it returns a Closed event or an error, or use Run.
type Machine struct {
	g    *graph.Graph
	src  *rng.Source
	cfg  Config
	path *cycle.Path
	// Unused-edge state, flat: row v of uarena occupies the graph's own CSR
	// row span (uoff is the graph's offset array, shared read-only) and its
	// first ucnt[v] slots hold v's remaining unused incident edges, worked
	// on through an Unused view (see unused). One allocation instead of n,
	// no 24-byte slice headers, and rows inherit the arena's cache layout.
	uoff   []int32
	ucnt   []int32
	uarena []graph.NodeID
	stats  Stats
	done   bool
}

// New initializes the process with the given start vertex as initial head.
func New(g *graph.Graph, start graph.NodeID, src *rng.Source, cfg Config) *Machine {
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultMaxSteps(g.N())
	}
	m := &Machine{
		g:    g,
		src:  src,
		cfg:  cfg,
		path: cycle.NewPath(start),
	}
	off, arena := g.Adjacency()
	m.uoff = off
	m.uarena = make([]graph.NodeID, len(arena))
	m.ucnt = make([]int32, g.N())
	keep := 1.0
	if cfg.ThinningP > 0 {
		q := 1 - math.Sqrt(1-cfg.ThinningP)
		keep = q / cfg.ThinningP
	}
	if keep >= 1 {
		copy(m.uarena, arena)
		for v := 0; v < g.N(); v++ {
			m.ucnt[v] = off[v+1] - off[v]
		}
	} else {
		// Thinning draws one Bernoulli per incident edge in neighbor order,
		// exactly as the per-node list version did.
		for v := 0; v < g.N(); v++ {
			pos := off[v]
			for _, nb := range arena[off[v]:off[v+1]] {
				if src.Bernoulli(keep) {
					m.uarena[pos] = nb
					pos++
				}
			}
			m.ucnt[v] = pos - off[v]
		}
	}
	return m
}

// Path exposes the current path (read-only use intended).
func (m *Machine) Path() *cycle.Path { return m.path }

// Stats returns the current step statistics.
func (m *Machine) Stats() Stats { return m.stats }

// UnusedCount returns the number of unused edges remaining at v; the edges
// a run removed at v are its initial row length minus this.
func (m *Machine) UnusedCount(v graph.NodeID) int { return int(m.ucnt[v]) }

// Done reports whether the machine has produced a Closed event.
func (m *Machine) Done() bool { return m.done }

// Step performs one extension or rotation. After the cycle closes, further
// calls return an error.
func (m *Machine) Step() (Event, error) {
	if m.done {
		return Event{}, errors.New("rotation: machine already closed the cycle")
	}
	if m.stats.Steps >= m.cfg.MaxSteps {
		return Event{}, fmt.Errorf("%w: %d steps", ErrStepBudget, m.stats.Steps)
	}
	head := m.path.Head()
	row := m.unused(head)
	u, ok := row.Pop(m.src)
	if !ok {
		return Event{}, fmt.Errorf("%w: node %d after %d steps", ErrOutOfEdges, head, m.stats.Steps)
	}
	m.ucnt[head] = int32(len(row))
	m.stats.Steps++
	h := m.path.Len()

	// Algorithm 1, OnReceive progress(pos): the receiver u also discards
	// the used edge from its own list.
	if row = m.unused(u); row.Remove(head) {
		m.ucnt[u] = int32(len(row))
	}

	switch {
	case !m.path.Contains(u):
		// First visit: extend.
		m.path.Extend(u)
		m.stats.Extensions++
		return Event{Kind: Extended, Head: head, Chosen: u, H: h + 1}, nil
	case h == m.g.N() && m.path.Tail() == u:
		// progress(pos = |V|) arriving at the tail: success.
		m.done = true
		return Event{Kind: Closed, Head: head, Chosen: u, H: h}, nil
	default:
		// Rotation at u's position j (the head is at position h;
		// renumbering i <- h + j + 1 - i is applied by Path.RotateAt).
		j, _ := m.path.RotateAt(u)
		m.stats.Rotations++
		return Event{Kind: Rotated, Head: head, Chosen: u, H: h, J: j}, nil
	}
}

// Run steps the machine to completion and returns the Hamiltonian cycle.
func (m *Machine) Run() (*cycle.Cycle, Stats, error) {
	sinceCheck := 0
	for {
		if m.cfg.Interrupt != nil {
			if sinceCheck++; sinceCheck >= interruptCheckEvery {
				sinceCheck = 0
				if m.cfg.Interrupt() {
					return nil, m.stats, fmt.Errorf("%w after %d steps", ErrInterrupted, m.stats.Steps)
				}
			}
		}
		ev, err := m.Step()
		if err != nil {
			return nil, m.stats, err
		}
		if ev.Kind == Closed {
			return m.path.CloseCycle(), m.stats, nil
		}
	}
}

// unused returns v's unused-edge row as an Unused view of the arena; after
// Pop or Remove the caller writes the view's length back to ucnt[v].
func (m *Machine) unused(v graph.NodeID) Unused {
	off := m.uoff[v]
	return Unused(m.uarena[off : off+m.ucnt[v]])
}

// Unused is one vertex's list of unused incident edges, named by neighbour
// id. Popping a uniformly random entry is the only random choice of a
// rotation step (Algorithm 1); every engine draws and discards through this
// type, so the same stream and the same calls give the same draws.
type Unused []graph.NodeID

// Pop removes and returns a uniformly random entry with one src.Intn(len)
// draw, moving the last entry into its slot. An empty list draws nothing
// and reports false.
func (u *Unused) Pop(src *rng.Source) (graph.NodeID, bool) {
	l := *u
	if len(l) == 0 {
		return 0, false
	}
	i := src.Intn(len(l))
	w := l[i]
	l[i] = l[len(l)-1]
	*u = l[:len(l)-1]
	return w, true
}

// Remove drops the first entry equal to w, moving the last entry into its
// slot, and reports whether w was present.
func (u *Unused) Remove(w graph.NodeID) bool {
	l := *u
	for i, x := range l {
		if x == w {
			l[i] = l[len(l)-1]
			*u = l[:len(l)-1]
			return true
		}
	}
	return false
}

// Solve runs the full sequential Angluin–Valiant algorithm on g: it starts
// from a random vertex and returns the Hamiltonian cycle, or the failure of
// the single attempt (the paper's algorithms do not restart; whp analysis
// covers one attempt). The distributed runs' restarts are Attempts.
func Solve(g *graph.Graph, src *rng.Source, cfg Config) (*cycle.Cycle, Stats, error) {
	if g.N() < 3 {
		return nil, Stats{}, fmt.Errorf("rotation: need n >= 3, got %d", g.N())
	}
	start := graph.NodeID(src.Intn(g.N()))
	return New(g, start, src, cfg).Run()
}
