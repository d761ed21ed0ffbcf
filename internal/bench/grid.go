package bench

// Grid-spec parsing shared by cmd/hcsweep, cmd/hcrun and internal/serve:
// comma-separated list handling plus the engine column vocabulary, so every
// surface and the report schema spell configurations identically.

import (
	"fmt"
	"strconv"
	"strings"

	"dhc"
)

// EngineMode is one engine column of a grid: the simulation engine plus, for
// the exact engine, the scheduling mode (event-driven vs the dense-sweep
// oracle). Sharding is not an engine: it is dhc.Options.Shards.
type EngineMode struct {
	Engine dhc.Engine
	Dense  bool
}

// Name returns the mode's report spelling: "step", "exact" or "exact-dense".
func (e EngineMode) Name() string {
	switch {
	case e.Engine == dhc.EngineStep:
		return "step"
	case e.Dense:
		return "exact-dense"
	default:
		return "exact"
	}
}

// EngineModeNames returns the engine-column vocabulary in sorted order —
// exactly the spelling ParseEngineMode's error reports.
func EngineModeNames() []string {
	return []string{"exact", "exact-dense", "step"}
}

// FamilyNames returns the graph-family vocabulary of the report schema in
// sorted order: the spellings sweep cells and generator records may carry.
// sweep.FamilyNames must stay in lockstep (pinned by a test there); the list
// lives here because the schema validator cannot import the sweep package.
func FamilyNames() []string {
	return []string{"geometric", "gnm", "gnp", "hypercube", "powerlaw", "regular", "sbm", "torus"}
}

// ValidEngine reports whether name may label a report row: the
// EngineModeNames vocabulary, plus "dist", which the legacy BENCH_pr10.json
// gives its sharded rows.
func ValidEngine(name string) bool {
	if name == "dist" {
		return true
	}
	for _, e := range EngineModeNames() {
		if e == name {
			return true
		}
	}
	return false
}

// ValidFamily reports whether name is in the FamilyNames vocabulary.
func ValidFamily(name string) bool {
	for _, f := range FamilyNames() {
		if f == name {
			return true
		}
	}
	return false
}

// ParseEngineMode resolves one engine column name. The error of an unknown
// name lists the valid names deterministically (sorted), so CLI messages are
// stable across runs.
func ParseEngineMode(s string) (EngineMode, error) {
	switch s {
	case "step":
		return EngineMode{Engine: dhc.EngineStep}, nil
	case "exact":
		return EngineMode{Engine: dhc.EngineExact}, nil
	case "exact-dense":
		return EngineMode{Engine: dhc.EngineExact, Dense: true}, nil
	default:
		return EngineMode{}, fmt.Errorf("unknown engine %q (valid: %s)", s, strings.Join(EngineModeNames(), ", "))
	}
}

// SplitList splits a comma-separated flag value, trimming whitespace and
// dropping empty entries.
func SplitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// ParseInts parses a comma-separated list of non-negative integers.
func ParseInts(s string) ([]int, error) {
	var out []int
	for _, part := range SplitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		if v < 0 {
			return nil, fmt.Errorf("negative value %d", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseFloats parses a comma-separated list of non-negative floats.
func ParseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range SplitList(s) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, err
		}
		if v < 0 {
			return nil, fmt.Errorf("negative value %v", v)
		}
		out = append(out, v)
	}
	return out, nil
}
