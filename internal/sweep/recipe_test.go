package sweep

import (
	"strings"
	"testing"
)

// TestParseRecipe pins the text form: omitted keys take the bare recipe's
// values, every parsed recipe prints back to the text it came from once
// completed, and malformed texts are rejected.
func TestParseRecipe(t *testing.T) {
	for text, want := range map[string]Recipe{
		"gnp":                              {FamilyGNP, 1024, 8, 1, 0},
		"gnp/n=1024/param=8/delta=1/gs=0":  {FamilyGNP, 1024, 8, 1, 0},
		"torus/n=64":                       {FamilyTorus, 64, 8, 1, 0},
		"powerlaw/gs=3/n=256/delta=0.5":    {FamilyPowerlaw, 256, 8, 0.5, 3},
		"regular/n=100/param=6":            {FamilyRegular, 100, 6, 1, 0},
		"hypercube/n=63":                   {FamilyHypercube, 63, 8, 1, 0},
		"gnp/n=256/param=2/delta=0.5/gs=0": {FamilyGNP, 256, 2, 0.5, 0},
		"geometric/n=64/param=1e-3/gs=18446744073709551615": {FamilyGeometric, 64, 0.001, 1, 1<<64 - 1},
	} {
		got, err := ParseRecipe(text)
		if err != nil || got != want {
			t.Errorf("ParseRecipe(%q) = %v, %v; want %v", text, got, err, want)
			continue
		}
		if again, err := ParseRecipe(got.String()); err != nil || again != got {
			t.Errorf("%q: %q parses back as %v, %v", text, got.String(), again, err)
		}
	}
	for _, bad := range []string{
		"", "nope/n=64", "gs=3/n=256", "gnp/", "gnp//n=64", "gnp/n", "gnp/n=64/n=64", "gnp/m=64",
		"gnp/n=2", "gnp/n=-5", "gnp/delta=0", "gnp/delta=1.5", "gnp/delta=NaN",
		"gnp/param=-1", "gnp/param=Inf", "gnp/param=NaN", "gnp/gs=-1", "gnp/n=64x",
		"regular/n=64/param=2.5", "torus/n=60", "torus/n=4", "hypercube/n=65", "hypercube/n=4",
		"hypercube/n=2147483648", "torus/n=9223372036854775807", "torus/n=-9",
	} {
		if r, err := ParseRecipe(bad); err == nil {
			t.Errorf("ParseRecipe(%q) = %v, want an error", bad, r)
		}
	}
	// The canonical text is the one POST /solve's recipe memo keys by.
	if got := (Recipe{FamilyGNP, 48, 40, 1, 0}).String(); got != "gnp/n=48/param=40/delta=1/gs=0" {
		t.Errorf("String = %q", got)
	}
	if _, err := ParseRecipe("ring/n=64"); err == nil || !strings.Contains(err.Error(), "valid: geometric") {
		t.Errorf("unknown family error %v does not list the families", err)
	}
}

// FuzzParseRecipe: any text either fails to parse or yields a valid recipe
// whose canonical text parses back to the same recipe.
func FuzzParseRecipe(f *testing.F) {
	for _, seed := range []string{
		"gnp", "gnp/n=1024/param=8/delta=1/gs=0", "torus/n=64", "hypercube/n=63/gs=2",
		"regular/n=100/param=6", "sbm/n=4096/param=8/delta=0.25/gs=7", "gnp/n=64/n=64",
		"gnp/delta=0", "geometric/param=1e308/n=3", "gnp/param=0x1p-3",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		r, err := ParseRecipe(text)
		if err != nil {
			return
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("%q parsed to an invalid recipe %v: %v", text, r, err)
		}
		again, err := ParseRecipe(r.String())
		if err != nil || again != r {
			t.Fatalf("%q -> %q -> %v, %v; want %v", text, r.String(), again, err, r)
		}
	})
}
