package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dhc"
	"dhc/internal/serve"
	"dhc/internal/sweep"
)

// entryCases name each graph twice: as an hcrun -graph recipe and as the
// POST /solve fields. The last case omits delta in both forms, which must
// name the same graph (δ = 1).
var entryCases = []struct{ recipe, fields string }{
	{"gnp/n=64/param=1/delta=0.5/gs=5", `"family":"gnp","n":64,"param":1,"delta":0.5,"graph_seed":5`},
	{"gnp/n=64/param=3/delta=1/gs=5", `"family":"gnp","n":64,"param":3,"delta":1,"graph_seed":5`},
	{"regular/n=64/param=4/delta=1/gs=5", `"family":"regular","n":64,"param":4,"delta":1,"graph_seed":5`},
	{"torus/n=64", `"family":"torus","n":64`},
	{"gnp/n=64/param=3/gs=5", `"family":"gnp","n":64,"param":3,"graph_seed":5`},
}

// hcrunGraph runs hcrun with args and returns its stdout, the graph it
// handed the solver (nil when it failed first) and its error.
func hcrunGraph(t *testing.T, args ...string) (string, *dhc.Graph, error) {
	t.Helper()
	var g *dhc.Graph
	solve = func(ctx context.Context, graph *dhc.Graph, algo dhc.Algorithm, opts dhc.Options) (*dhc.Result, error) {
		g = graph
		return dhc.SolveContext(ctx, graph, algo, opts)
	}
	defer func() { solve = dhc.SolveContext }()
	var out bytes.Buffer
	err := run(args, &out, io.Discard)
	return out.String(), g, err
}

func edgeList(t *testing.T, g *dhc.Graph) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := g.WriteEdgeList(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestEntryPointsNameOneGraph feeds each case through hcrun, POST /solve
// and a one-cell sweep. All three must build one graph (serve's is compared
// by content: hcrun's edge list, posted explicitly, must hit the replay
// entry the recipe request created), and hcrun -json must print serve's
// record byte for byte, failed runs included.
func TestEntryPointsNameOneGraph(t *testing.T) {
	ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer ts.Close()
	for _, tc := range entryCases {
		t.Run(tc.recipe, func(t *testing.T) {
			out, g, runErr := hcrunGraph(t, "-graph", tc.recipe, "-algo", "dra", "-engine", "step", "-seed", "7", "-json")
			if g == nil {
				t.Fatalf("hcrun built no graph: %v", runErr)
			}
			resp, body := post(t, ts.URL+"/solve",
				`{`+tc.fields+`,"algo":"dra","engine":"step","seed":7,"include_cycle":true}`)
			if out != string(body)+"\n" {
				t.Fatalf("hcrun record differs from serve's (HTTP %d):\n  hcrun: %s  serve: %s", resp.StatusCode, out, body)
			}
			if (runErr == nil) != (resp.StatusCode == http.StatusOK) {
				t.Fatalf("hcrun error %v but serve HTTP %d", runErr, resp.StatusCode)
			}

			var edges strings.Builder
			for i, e := range g.Edges() {
				if i > 0 {
					edges.WriteByte(',')
				}
				fmt.Fprintf(&edges, "[%d,%d]", e.U, e.V)
			}
			r, err := sweep.ParseRecipe(tc.recipe)
			if err != nil {
				t.Fatal(err)
			}
			explicit := fmt.Sprintf(`{"n":%d,"edges":[%s],"delta":%g,"algo":"dra","engine":"step","seed":7,"include_cycle":true}`,
				g.N(), edges.String(), r.Delta)
			if resp, _ := post(t, ts.URL+"/solve", explicit); resp.Header.Get("X-Cache") != "hit" {
				t.Fatalf("hcrun's graph posted as edges missed serve's entry for the recipe (X-Cache %q)", resp.Header.Get("X-Cache"))
			}

			grid := sweep.Grid{Families: []sweep.Family{r.Family}, Sizes: []int{r.N}, Params: []float64{r.Param},
				Delta: r.Delta, Algos: []dhc.Algorithm{dhc.AlgorithmDRA}, Engines: []dhc.Engine{dhc.EngineStep}}
			cells := grid.Cells()
			if len(cells) != 1 {
				t.Fatalf("grid has %d cells", len(cells))
			}
			cellRecipe := cells[0].Recipe
			cellRecipe.GraphSeed = r.GraphSeed
			cg, err := cellRecipe.Build()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(edgeList(t, cg), edgeList(t, g)) {
				t.Fatal("the sweep cell's graph differs from hcrun's")
			}
		})
	}
}

// TestRunFlags: the recipe flag replaces the G(n, p) flags, bad recipes and
// -h fail before any solve, and the text output names the recipe.
func TestRunFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "64"}, {"-p", "0.5"}, {"-c", "8"}, {"-delta", "0.5"},
		{"-graph", "gnp/n=2"}, {"-graph", "ring/n=64"}, {"-graph", "torus/n=60"},
		{"-graph", "gnp/n=64", "-algo", "nope"}, {"-graph", "gnp/n=64", "-engine", "dist"},
	} {
		if _, g, err := hcrunGraph(t, args...); err == nil || g != nil {
			t.Errorf("hcrun %v: err = %v, solved = %v; want an error before any solve", args, err, g != nil)
		}
	}
	out, _, err := hcrunGraph(t, "-graph", "gnp/n=64/param=3/gs=5", "-algo", "dra", "-engine", "step", "-seed", "7", "-q")
	if err != nil || !strings.HasPrefix(out, "dra on gnp/n=64/param=3/delta=1/gs=5 (m=") {
		t.Fatalf("text output %q, err %v", out, err)
	}
}
