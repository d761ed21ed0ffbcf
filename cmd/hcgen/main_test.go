package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dhc/internal/sweep"
)

// hcgenOutput runs hcgen with args and returns what it wrote.
func hcgenOutput(t *testing.T, args ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("hcgen %s: %v", strings.Join(args, " "), err)
	}
	return buf.Bytes()
}

// TestRecipeMatchesBuildInstance: for every sweep family, hcgen's edge list
// is byte-identical to the one sweep.BuildInstance builds from the same
// recipe, so a (family, n, param, delta, seed) names one graph in hcgen,
// hcsweep and POST /solve. The hypercube runs at 64 (Q6) and at 63, its
// vertex-deleted negative control.
func TestRecipeMatchesBuildInstance(t *testing.T) {
	type recipe struct {
		family       string
		n            int
		param, delta float64
	}
	var recipes []recipe
	for _, name := range sweep.FamilyNames() {
		recipes = append(recipes, recipe{name, 64, 3, 1})
	}
	recipes = append(recipes, recipe{"hypercube", 63, 3, 1}, recipe{"gnp", 64, 2, 0.5})
	for _, r := range recipes {
		t.Run(fmt.Sprintf("%s/n%d/delta%g", r.family, r.n, r.delta), func(t *testing.T) {
			const seed = 5
			fam, err := sweep.ParseFamily(r.family)
			if err != nil {
				t.Fatal(err)
			}
			g, err := sweep.BuildInstance(fam, r.n, r.param, r.delta, seed)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := g.WriteEdgeList(&want); err != nil {
				t.Fatal(err)
			}
			got := hcgenOutput(t, "-family", r.family, "-n", fmt.Sprint(r.n),
				"-param", fmt.Sprint(r.param), "-delta", fmt.Sprint(r.delta), "-seed", fmt.Sprint(seed))
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("hcgen wrote %d bytes that differ from BuildInstance's %d", len(got), want.Len())
			}
		})
	}
}

// TestBareRunDigest pins a bare hcgen's bytes: the defaults (gnp, n = 1024,
// param 8, delta 0.5, seed 1) write the edge list of
// dhc.NewGNP(1024, dhc.ThresholdP(1024, 8, 0.5), 1), whose SHA-256 is below.
func TestBareRunDigest(t *testing.T) {
	const want = "34ca8d22959b41b97d47c0b078333b8c1b003b14a3c8404a9001215a46bcf599"
	sum := sha256.Sum256(hcgenOutput(t))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("bare hcgen digest %s, want %s", got, want)
	}
}

// TestOutputFile: -o writes the same bytes stdout would carry and leaves
// stdout empty.
func TestOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torus.txt")
	if out := hcgenOutput(t, "-family", "torus", "-n", "64", "-o", path); len(out) != 0 {
		t.Fatalf("-o also wrote %d bytes to stdout", len(out))
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := hcgenOutput(t, "-family", "torus", "-n", "64"); !bytes.Equal(file, want) {
		t.Fatal("-o file differs from the stdout edge list")
	}
}

// TestUnknownFamily: an unknown family fails with the sorted family list,
// and the retired hcgen-only models are unknown.
func TestUnknownFamily(t *testing.T) {
	list := "(valid: " + strings.Join(sweep.FamilyNames(), ", ") + ")"
	for _, family := range []string{"nope", "ring", "complete"} {
		err := run([]string{"-family", family}, new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), list) {
			t.Fatalf("family %q: err = %v, want one listing %s", family, err, list)
		}
	}
}
