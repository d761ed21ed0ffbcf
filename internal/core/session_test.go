package core

import (
	"context"
	"reflect"
	"testing"

	"dhc/internal/congest"
	"dhc/internal/graph"
	"dhc/internal/rng"
)

// sameResult requires two results to agree in every field: cycle, counters,
// partition sizes, steps and phase split.
func sameResult(t *testing.T, what string, got, want *congest.Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result differs from a fresh session's:\n got %+v\nwant %+v", what, got, want)
	}
}

// TestDHC2SessionReusesNodeBuffers: a second Run on one session refills the
// per-port tables of the first (same backing arrays) and still returns, run
// for run, exactly what fresh sessions return.
func TestDHC2SessionReusesNodeBuffers(t *testing.T) {
	g := graph.GNP(320, 0.6, rng.New(2))
	opts := Options{NumColors: 5, B: 10}
	sess := NewDHC2Session(opts)
	seeds := []uint64{3, 4}
	var results []*congest.Result
	var p1Color, mpColor *int32
	var mpScope, mpPartner *int32
	for i, seed := range seeds {
		res, err := sess.Run(context.Background(), new(congest.Network), g, seed, congest.Options{})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		results = append(results, res)
		p := sess.Programs()[5]
		if len(p.p1.nbColor) == 0 || len(p.mp.nbColor) == 0 ||
			cap(p.mp.scopePorts) == 0 || cap(p.mp.partnerPorts) == 0 {
			t.Fatalf("run %d: node 5 left a per-port table empty", i)
		}
		scope, partner := p.mp.scopePorts[:1], p.mp.partnerPorts[:1]
		if i == 0 {
			p1Color, mpColor = &p.p1.nbColor[0], &p.mp.nbColor[0]
			mpScope, mpPartner = &scope[0], &partner[0]
			continue
		}
		if &p.p1.nbColor[0] != p1Color || &p.mp.nbColor[0] != mpColor {
			t.Fatal("second run reallocated node 5's colour tables")
		}
		if &scope[0] != mpScope || &partner[0] != mpPartner {
			t.Fatal("second run reallocated node 5's merge port lists")
		}
	}
	for i, seed := range seeds {
		fresh, err := NewDHC2Session(opts).RunLocal(g, seed, congest.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "dhc2 reused session", results[i], fresh)
	}
}

// TestDHC1SessionReusesNodeBuffers is the DHC1 counterpart: phase 1's
// colour table survives the second Run, and both runs match fresh sessions.
func TestDHC1SessionReusesNodeBuffers(t *testing.T) {
	g := graph.GNP(300, 0.9, rng.New(21))
	opts := Options{B: 10}
	sess := NewDHC1Session(opts)
	seeds := []uint64{2, 5}
	var results []*congest.Result
	var p1Color *int32
	for i, seed := range seeds {
		res, err := sess.Run(context.Background(), new(congest.Network), g, seed, congest.Options{})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		results = append(results, res)
		p := sess.Programs()[5]
		if len(p.p1.nbColor) == 0 || cap(p.p1.scopePorts) == 0 {
			t.Fatalf("run %d: node 5 left a per-port table empty", i)
		}
		if i == 0 {
			p1Color = &p.p1.nbColor[0]
		} else if &p.p1.nbColor[0] != p1Color {
			t.Fatal("second run reallocated node 5's colour table")
		}
	}
	for i, seed := range seeds {
		fresh, err := NewDHC1Session(opts).RunLocal(g, seed, congest.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "dhc1 reused session", results[i], fresh)
	}
}
