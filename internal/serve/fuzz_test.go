package serve

import (
	"net/http/httptest"
	"strings"
	"testing"

	"dhc/internal/sweep"
)

// FuzzParseSolve: the request parser never panics, and any body it accepts
// names a generated instance by a recipe whose canonical text parses back
// to the same recipe (the text the memo keys and the record carries).
// Rejections answer 400 in both handlers.
func FuzzParseSolve(f *testing.F) {
	for _, seed := range []string{
		`{"family":"gnp","n":256,"param":3,"delta":0.5,"algo":"dra","engine":"step","seed":7}`,
		`{"family":"torus","n":64,"algo":"dra","seed":1}`,
		`{"family":"regular","n":64,"param":2.5,"algo":"dra","seed":1}`,
		`{"family":"gnp","n":1024,"algo":"dhc2","engine":"exact","seed":1,"delta":0.25,"graph_seed":9}`,
		`{"n":4,"edges":[[0,1],[1,2],[2,3]],"algo":"dra","seed":1}`,
		`{"n":4,"edges":[[0,9]],"algo":"dra"}`,
		`{"family":"gnp","n":4,"param":1,"edges":[[0,1]],"algo":"dra"}`,
		`{"family":"gnp","n":32,"param":-3,"algo":"dra","max_rounds":-1}`,
		`{"family":"torus","n":-9,"algo":"dra"}`, `{"family":"torus","n":9223372036854775807,"algo":"dra"}`,
		`{"family":`, `[]`, `null`, `{"n":1e400}`,
	} {
		f.Add(seed)
	}
	s := New(Config{MaxN: 1 << 16})
	f.Fuzz(func(t *testing.T, body string) {
		p, err := s.parseSolve(httptest.NewRequest("POST", "/solve", strings.NewReader(body)))
		if err != nil {
			return
		}
		if p.text == "" {
			if p.g == nil {
				t.Fatalf("%s: accepted with neither a recipe nor a graph", body)
			}
			return
		}
		if p.text != p.recipe.String() {
			t.Fatalf("%s: memo key %q is not the recipe's text %q", body, p.text, p.recipe.String())
		}
		if again, err := sweep.ParseRecipe(p.text); err != nil || again != p.recipe {
			t.Fatalf("%s: recipe %q parses back as %v, %v; want %v", body, p.text, again, err, p.recipe)
		}
	})
}
