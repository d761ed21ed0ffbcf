package graph

import (
	"bytes"
	"strings"
	"testing"

	"dhc/internal/rng"
)

func TestEdgeListRoundTrip(t *testing.T) {
	g := GNP(80, 0.1, rng.New(9))
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip changed shape: (%d,%d) -> (%d,%d)", g.N(), g.M(), g2.N(), g2.M())
	}
	for _, e := range g.Edges() {
		if !g2.HasEdge(e.U, e.V) {
			t.Fatalf("edge %v lost", e)
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"bad header":     "x y\n",
		"missing edges":  "3 2\n0 1\n",
		"bad edge line":  "3 1\n0\n",
		"non-numeric":    "3 1\na b\n",
		"self loop":      "3 1\n1 1\n",
		"duplicate edge": "3 2\n0 1\n1 0\n",
		"out of range":   "3 1\n0 7\n",
	}
	for name, input := range cases {
		if _, err := ReadEdgeList(strings.NewReader(input)); err == nil {
			t.Errorf("%s: expected error, got nil", name)
		}
	}
}
