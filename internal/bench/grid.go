package bench

// Grid-spec parsing for cmd/hcsweep and the report schema's label
// vocabularies: comma-separated list handling, the graph families and the
// engine labels a report row may carry.

import (
	"fmt"
	"strconv"
	"strings"

	"dhc"
)

// FamilyNames returns the graph-family vocabulary of the report schema in
// sorted order: the spellings sweep cells and generator records may carry.
// sweep.FamilyNames must stay in lockstep (pinned by a test there); the list
// lives here because the schema validator cannot import the sweep package.
func FamilyNames() []string {
	return []string{"geometric", "gnm", "gnp", "hypercube", "powerlaw", "regular", "sbm", "torus"}
}

// ValidEngine reports whether name may label a report row: the
// dhc.EngineNames vocabulary, plus two legacy labels the frozen files carry —
// "exact-dense", BENCH_pr3.json's dense-sweep rows, and "dist",
// BENCH_pr10.json's sharded rows.
func ValidEngine(name string) bool {
	if name == "exact-dense" || name == "dist" {
		return true
	}
	_, err := dhc.ParseEngine(name)
	return err == nil
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
