package congest

import (
	"context"
	"errors"
	"fmt"

	"dhc/internal/arena"
	"dhc/internal/cycle"
	"dhc/internal/graph"
	"dhc/internal/metrics"
	"dhc/internal/rotation"
)

// ErrDisconnected is Session.Run's verdict on a graph whose vertex 0 does
// not reach every vertex: no Hamiltonian cycle exists, so no round runs.
var ErrDisconnected = errors.New("graph is disconnected")

// Result is a successful Session run. Steps is the rotation-step total the
// algorithm reports (DHC1/DHC2 sum it over partitions and phases, as the
// step engine's Cost.Steps does); Phase1Rounds (DHC1/DHC2's Phase 2 start
// round) and PartitionSizes (their colour-class sizes) are zero for the
// single-phase algorithms.
type Result struct {
	Cycle          *cycle.Cycle
	Counters       *metrics.Counters
	Steps          int64
	Phase1Rounds   int64
	PartitionSizes []int
}

// Algorithm is what one algorithm contributes to a Session.
type Algorithm[P Node] interface {
	// Bind resolves the run's parameters for g, which is connected and has
	// n >= 3, from b, its rotation.GraphBound, and sets opts.MaxRounds to
	// the algorithm's round budget when it is zero.
	Bind(g *graph.Graph, b int64, opts *Options) error
	// Recycle readies one program, the previous run's or a zero one.
	Recycle(p P)
	// Extract reads the halted programs into res, whose Counters are set.
	Extract(g *graph.Graph, progs []P, res *Result) error
}

// Session is one algorithm's program arena: its per-vertex programs (P =
// *T) survive across Run calls, so repeated trials on same-sized graphs
// keep their allocations. The executor is the caller's. Not safe for
// concurrent use.
type Session[T any, P interface {
	*T
	Node
}] struct {
	name  string
	algo  Algorithm[P]
	progs []P
	nodes []Node
}

// NewSession returns an empty session for algo; name prefixes its errors.
func NewSession[T any, P interface {
	*T
	Node
}](name string, algo Algorithm[P]) *Session[T, P] {
	return &Session[T, P]{name: name, algo: algo}
}

// Programs returns the latest run's programs, indexed by vertex.
func (s *Session[T, P]) Programs() []P { return s.progs }

// RunLocal runs one trial on a fresh in-process Network, without
// cancellation: the one-shot form of Run.
func (s *Session[T, P]) RunLocal(g *graph.Graph, seed uint64, opts Options) (*Result, error) {
	return s.Run(context.Background(), new(Network), g, seed, opts)
}

// Run binds the programs to g, resets ex to them and executes one trial,
// honoring ctx at the executor's amortized cancellation checkpoint. A
// cancelled run returns ctx's error and leaves the session reusable. The
// BFS that gives g's broadcast bound also checks that g is connected: a
// disconnected g ends in ErrDisconnected before round 0.
func (s *Session[T, P]) Run(ctx context.Context, ex Runner, g *graph.Graph, seed uint64, opts Options) (*Result, error) {
	n := g.N()
	if n < 3 {
		return nil, fmt.Errorf("%s: need n >= 3, got %d", s.name, n)
	}
	b, reached := rotation.GraphBound(g)
	if reached < n {
		return nil, fmt.Errorf("%s: %w: vertex 0 reaches %d of %d vertices", s.name, ErrDisconnected, reached, n)
	}
	if err := s.algo.Bind(g, b, &opts); err != nil {
		return nil, err
	}
	s.progs = arena.Resize(s.progs, n)
	s.nodes = arena.Resize(s.nodes, n)
	for i, p := range s.progs {
		if p == nil {
			p = new(T)
			s.progs[i] = p
		}
		s.algo.Recycle(p)
		s.nodes[i] = p
	}
	if err := ex.Reset(g, s.nodes, opts); err != nil {
		return nil, err
	}
	counters, err := ex.RunContext(ctx, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	res := &Result{Counters: counters}
	if err := s.algo.Extract(g, s.progs, res); err != nil {
		return nil, err
	}
	return res, nil
}
