package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dhc"
	"dhc/internal/serve"
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
// for a -graph recipe text is byte-identical to the one sweep.Recipe.Build
// builds from the same fields, so a (family, n, param, delta, seed) names one
// graph in hcgen, hcrun, hcsweep and POST /solve. The hypercube runs at 64
// (Q6) and at 63, its vertex-deleted negative control.
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
			g, err := sweep.Recipe{Family: fam, N: r.n, Param: r.param, Delta: r.delta, GraphSeed: seed}.Build()
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := g.WriteEdgeList(&want); err != nil {
				t.Fatal(err)
			}
			got := hcgenOutput(t, "-graph", fmt.Sprintf("%s/n=%d/param=%g/delta=%g/gs=%d", r.family, r.n, r.param, r.delta, seed))
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("hcgen wrote %d bytes that differ from Build's %d", len(got), want.Len())
			}
		})
	}
}

// TestBareRunDigest pins a bare hcgen's bytes: the default recipe
// gnp/n=1024/param=8/delta=1/gs=0 writes the edge list of the threshold graph
// dhc.NewGNP(1024, dhc.ThresholdP(1024, 8, 1), 0), whose SHA-256 is below.
func TestBareRunDigest(t *testing.T) {
	const want = "3b58ffc024c7b1608ced3df55f84f1dc15d19d018b6a00be784f4ac0d1a9c5ed"
	sum := sha256.Sum256(hcgenOutput(t))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("bare hcgen digest %s, want %s", got, want)
	}
}

// TestOutputFile: -o writes the same bytes stdout would carry and leaves
// stdout empty.
func TestOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torus.txt")
	if out := hcgenOutput(t, "-graph", "torus/n=64", "-o", path); len(out) != 0 {
		t.Fatalf("-o also wrote %d bytes to stdout", len(out))
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := hcgenOutput(t, "-graph", "torus/n=64"); !bytes.Equal(file, want) {
		t.Fatal("-o file differs from the stdout edge list")
	}
}

// TestUnknownFamily: an unknown family fails with the sorted family list,
// and the retired hcgen-only models are unknown.
func TestUnknownFamily(t *testing.T) {
	list := "(valid: " + strings.Join(sweep.FamilyNames(), ", ") + ")"
	for _, family := range []string{"nope", "ring", "complete"} {
		err := run([]string{"-graph", family + "/n=64"}, new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), list) {
			t.Fatalf("family %q: err = %v, want one listing %s", family, err, list)
		}
	}
}

// entryCases name each graph twice: as an hcgen -graph recipe and as the
// POST /solve fields. The last case omits delta in both forms, which must
// name the same graph (δ = 1).
var entryCases = []struct{ recipe, fields string }{
	{"gnp/n=64/param=1/delta=0.5/gs=5", `"family":"gnp","n":64,"param":1,"delta":0.5,"graph_seed":5`},
	{"gnp/n=64/param=3/delta=1/gs=5", `"family":"gnp","n":64,"param":3,"delta":1,"graph_seed":5`},
	{"regular/n=64/param=4/delta=1/gs=5", `"family":"regular","n":64,"param":4,"delta":1,"graph_seed":5`},
	{"torus/n=64", `"family":"torus","n":64`},
	{"gnp/n=64/param=3/gs=5", `"family":"gnp","n":64,"param":3,"graph_seed":5`},
}

// TestEntryPointsNameOneGraph feeds each case through hcgen, POST /solve
// and a one-cell sweep. hcgen's edge list must equal the sweep cell's graph,
// and, posted to the server as an explicit edge list, must hit the replay
// entry the recipe request created (the cache is keyed by graph content).
func TestEntryPointsNameOneGraph(t *testing.T) {
	ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer ts.Close()
	for _, tc := range entryCases {
		t.Run(tc.recipe, func(t *testing.T) {
			out := hcgenOutput(t, "-graph", tc.recipe)
			r, err := sweep.ParseRecipe(tc.recipe)
			if err != nil {
				t.Fatal(err)
			}
			grid := sweep.Grid{Families: []sweep.Family{r.Family}, Sizes: []int{r.N}, Params: []float64{r.Param},
				Delta: r.Delta, Algos: []dhc.Algorithm{dhc.AlgorithmDRA}, Engines: []dhc.Engine{dhc.EngineStep}}
			cell := grid.Cells()[0].Recipe
			cell.GraphSeed = r.GraphSeed
			g, err := cell.Build()
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := g.WriteEdgeList(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, want.Bytes()) {
				t.Fatal("hcgen's edge list differs from the sweep cell's graph")
			}

			solve := func(instance string) string {
				resp, err := http.Post(ts.URL+"/solve", "application/json",
					strings.NewReader(`{`+instance+`,"algo":"dra","engine":"step","seed":7}`))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				return resp.Header.Get("X-Cache")
			}
			solve(tc.fields)
			var edges strings.Builder
			for i, e := range g.Edges() {
				if i > 0 {
					edges.WriteByte(',')
				}
				fmt.Fprintf(&edges, "[%d,%d]", e.U, e.V)
			}
			if got := solve(fmt.Sprintf(`"n":%d,"edges":[%s],"delta":%g`, g.N(), edges.String(), r.Delta)); got != "hit" {
				t.Fatalf("hcgen's graph posted as edges: X-Cache %q, want the recipe request's entry", got)
			}
		})
	}
}
