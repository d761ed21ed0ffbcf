package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteEdgeList writes the graph in a simple text format:
//
//	n m
//	u v     (one line per edge, canonical order)
//
// The format round-trips through ReadEdgeList.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.n, g.m); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the format written by WriteEdgeList.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("graph: empty edge-list input")
	}
	var n, m int
	if _, err := fmt.Sscanf(sc.Text(), "%d %d", &n, &m); err != nil {
		return nil, fmt.Errorf("graph: bad header %q: %w", sc.Text(), err)
	}
	// No capacity hint: m comes from another process's input, and the
	// header alone must not size an allocation.
	b := NewBuilderCSR(n, 0)
	for i := 0; i < m; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("graph: expected %d edges, got %d", m, i)
		}
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: bad edge line %q", sc.Text())
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: bad endpoint %q: %w", fields[0], err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: bad endpoint %q: %w", fields[1], err)
		}
		if !b.Add(NodeID(u), NodeID(v)) {
			return nil, fmt.Errorf("graph: invalid edge (%d,%d)", u, v)
		}
	}
	// Build drops duplicates, so each one shows as an edge short of m.
	g := b.Build()
	if g.M() < m {
		return nil, fmt.Errorf("graph: %d duplicate edges among %d", m-g.M(), m)
	}
	return g, sc.Err()
}
