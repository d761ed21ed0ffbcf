package main

// Grid-parsing tests for the sweep CLI: the new atlas family axes must
// survive both the flag form and the JSON -config form, agree after the
// merge, and keep producing the exact cell keys that -resume matches
// finished cells by — a silent key change would make every old checkpoint
// unresumable (or worse, mismatched).

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"dhc/internal/bench"
	"dhc/internal/sweep"
)

// TestBuildGridFlagsAtlasFamilies drives the pure-flag path with every
// atlas family on one axis.
func TestBuildGridFlagsAtlasFamilies(t *testing.T) {
	grid, err := buildGrid("", "powerlaw,geometric,sbm,hypercube,torus", "64,256", "3",
		1, "dra", "step", 5, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := grid.Validate(); err != nil {
		t.Fatalf("flag grid invalid: %v", err)
	}
	if len(grid.Families) != 5 || grid.Families[0] != sweep.FamilyPowerlaw || grid.Families[4] != sweep.FamilyTorus {
		t.Fatalf("families = %v", grid.Families)
	}
	if grid.Trials != 5 || grid.MasterSeed != 11 || grid.Delta != 1 {
		t.Fatalf("scalar axes mangled: %+v", grid)
	}
}

// TestBuildGridConfigOverridesFlags drives the JSON -config path: the file's
// axes override the flag defaults, untouched axes fall through, and the
// merged grid validates.
func TestBuildGridConfigOverridesFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.json")
	cfg := `{"families": ["geometric", "torus"], "sizes": [64, 256],
		"params": [3], "algos": ["dra"], "trials": 7, "master_seed": 99}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	grid, err := buildGrid(path, "gnp", "512", "1.5", 0.5, "upcast", "step", 20, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := grid.Validate(); err != nil {
		t.Fatalf("merged grid invalid: %v", err)
	}
	if len(grid.Families) != 2 || grid.Families[0] != sweep.FamilyGeometric || grid.Families[1] != sweep.FamilyTorus {
		t.Fatalf("config families lost: %v", grid.Families)
	}
	if grid.Trials != 7 || grid.MasterSeed != 99 {
		t.Fatalf("config scalars lost: %+v", grid)
	}
	// The config omitted engines and delta, so the flag values remain.
	if len(grid.Engines) != 1 || grid.Engines[0].String() != "step" || grid.Delta != 0.5 {
		t.Fatalf("flag fallthrough lost: %+v", grid)
	}
}

// TestBuildGridRejectsBadAxes pins element-wise validation: an unknown
// family (in either form) and a comma-smuggled config entry are rejected
// with the sorted-vocabulary error rather than silently split or accepted.
func TestBuildGridRejectsBadAxes(t *testing.T) {
	if _, err := buildGrid("", "smallworld", "64", "1", 1, "dra", "step", 1, 1, 0); err == nil {
		t.Fatal("unknown flag family accepted")
	}
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(path, []byte(`{"families": ["gnp,torus"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := buildGrid(path, "gnp", "64", "1", 1, "dra", "step", 1, 1, 0); err == nil {
		t.Fatal("comma-smuggled config family accepted")
	}
}

// TestAtlasCellKeyStability pins the cell-key literals the -resume matcher
// and the conformance atlas depend on. A deliberate key-format change must
// update this test (and invalidates old checkpoints — bump consciously);
// note the deterministic lattices collapse their param/delta axes to 0 so
// equal-keyed duplicate cells cannot arise.
func TestAtlasCellKeyStability(t *testing.T) {
	grid, err := buildGrid("", "powerlaw,geometric,sbm,hypercube,torus", "64", "3",
		1, "dra", "step", 5, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	cells := grid.Cells()
	want := []string{
		"powerlaw/n=64/param=3/delta=1/dra/step",
		"geometric/n=64/param=3/delta=0/dra/step",
		"sbm/n=64/param=3/delta=1/dra/step",
		"hypercube/n=64/param=0/delta=0/dra/step",
		"torus/n=64/param=0/delta=0/dra/step",
	}
	if len(cells) != len(want) {
		t.Fatalf("got %d cells, want %d", len(cells), len(want))
	}
	for i, c := range cells {
		if c.Key() != want[i] {
			t.Errorf("cell %d key = %q, want %q", i, c.Key(), want[i])
		}
		if c.InstanceKey() == "" || c.InstanceKey() == c.Key() {
			t.Errorf("cell %d instance key %q should drop the solver axes", i, c.InstanceKey())
		}
	}
}

// TestResumeRefusesAnotherExecutable pins -resume's build identity: a report
// stamped with another executable's hash, or with none, is refused like a
// seed mismatch, and only this executable's own stamp resumes.
func TestResumeRefusesAnotherExecutable(t *testing.T) {
	grid, err := buildGrid("", "gnp", "64", "3", 1, "dra", "step", 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	stamp, err := executableStamp()
	if err != nil {
		t.Fatal(err)
	}
	sec, err := sweep.RunContext(context.Background(), grid, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.json")
	for _, tc := range []struct {
		name, stamp string
		ok          bool
	}{
		{"forged", strings.Repeat("0", len(stamp)), false},
		{"missing", "", false},
		{"own", stamp, true},
	} {
		rep := bench.NewReport("test", runtime.Version(), 1)
		rep.Executable = tc.stamp
		rep.Sweep = sec
		if err := writeAtomic(path, rep); err != nil {
			t.Fatal(err)
		}
		_, err := loadResume(path, grid, stamp)
		if tc.ok && err != nil {
			t.Errorf("%s stamp: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s stamp resumed", tc.name)
		}
	}
}
