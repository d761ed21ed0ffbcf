package bench

// Versioned machine-readable reports. The BENCH_<rev>.json files at the
// repository root are frozen legacy records of an earlier benchmark
// pipeline's grid, reuse, generator and load-test modes; DecodeReport reads
// them and TestCommittedReportsDecode gates on them (CI's "Validate benchmark
// trajectory files" step). hcsweep still writes the sweep section.
// The schema is flat: one Record per (algo, engine, n, workers, seed) run,
// wrapped in a Report that pins the schema version and the host shape the
// numbers were measured on.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"dhc"
)

// SchemaVersion identifies the BENCH_<rev>.json layout. Bump it when a field
// changes meaning or disappears; pure additions are backward compatible and
// do not require a bump.
//
// v2 added the optional sweep section (per-cell Monte Carlo statistics and
// scaling fits, written by hcsweep) and allowed a report to carry a sweep
// section instead of records; every v1 document is also a valid v2 document,
// so DecodeReport accepts both versions.
const SchemaVersion = 2

// minSchemaVersion is the oldest layout DecodeReport still accepts.
const minSchemaVersion = 1

// Record is one measured run.
type Record struct {
	// Algo is the short algorithm name ("dra", "dhc1", "dhc2", "upcast").
	Algo string `json:"algo"`
	// Engine is "exact", "step", or one of ValidEngine's legacy labels:
	// "exact-dense" (BENCH_pr3's dense-sweep rows) or "dist" (BENCH_pr10's
	// sharded exact rows).
	Engine string `json:"engine"`
	// N and M are the instance's vertex and edge counts; P its density.
	N int     `json:"n"`
	M int64   `json:"m"`
	P float64 `json:"p"`
	// Seed is the Solve seed; GraphSeed the generator seed.
	Seed      uint64 `json:"seed"`
	GraphSeed uint64 `json:"graph_seed"`
	// NumColors is the partition count K passed to the run (0 = derived).
	NumColors int `json:"num_colors,omitempty"`
	// BroadcastBound is the B override a legacy run was given (the
	// trivial B = n of BENCH_pr3.json). The option is gone: every run now
	// computes its bound, so only committed reports carry this field.
	BroadcastBound int64 `json:"broadcast_bound,omitempty"`
	// Workers is the worker-pool bound the run was measured at.
	Workers int `json:"workers"`
	// Mode distinguishes solver-lifecycle rows (BENCH_pr5/pr6): "" for
	// ordinary single-run records, "fresh" for a repeated-trial series
	// through independent Solve calls, "reuse" for the same series through
	// one reusable Solver session.
	Mode string `json:"mode,omitempty"`
	// Trials is the number of repeated trials a Mode row aggregates (0 for
	// ordinary records, which measure exactly one run).
	Trials int `json:"trials,omitempty"`
	// TrialsPerSec is Trials/WallSeconds for Mode rows.
	TrialsPerSec float64 `json:"trials_per_sec,omitempty"`
	// WallSeconds is the Solve call's wall-clock time (graph generation
	// excluded — graphs are built once and shared across the worker grid).
	// For Mode rows it is the whole series' wall-clock.
	WallSeconds float64 `json:"wall_seconds"`
	// Rounds/Steps and the phase split are the run's charged or measured
	// costs, byte-identical across Workers values by the determinism
	// contract (see determinism_test.go).
	Rounds       int64 `json:"rounds"`
	Steps        int64 `json:"steps"`
	Phase1Rounds int64 `json:"phase1_rounds"`
	Phase2Rounds int64 `json:"phase2_rounds"`
	// Messages/Bits are the exact engine's full message counters (zero for
	// the step engine, which does not exchange messages). They let a report
	// demonstrate the event-vs-dense identity contract: rows differing only
	// in engine "exact" vs "exact-dense" must agree on rounds, messages and
	// bits byte for byte.
	Messages int64 `json:"messages,omitempty"`
	Bits     int64 `json:"bits,omitempty"`
	// RoundsSkipped is the quiet-round subset of Rounds the event-driven
	// engine charged without executing (zero for exact-dense and step).
	RoundsSkipped int64 `json:"rounds_skipped,omitempty"`
	// Shards and Transport describe the sharded topology of engine "dist"
	// rows: how many worker shards the run was partitioned across and the
	// transport their frames crossed ("unix", "tcp" or "proc"). Zero/empty
	// for the in-process engines; Validate enforces that pairing. Pure
	// schema-v2 additions.
	Shards    int    `json:"shards,omitempty"`
	Transport string `json:"transport,omitempty"`
	// ShardStats is the per-shard wall/bytes-on-the-wire accounting of a
	// dist row: each shard's vertex range, bytes sent/received through the
	// frame codec, and busy time inside Step/Deliver calls.
	ShardStats []dhc.ShardStat `json:"shard_stats,omitempty"`
	// RTTs is a dist row's coordinator round trips per link (every exchange
	// fans out to all shards, so links agree), and RTTsPerRound is RTTs
	// divided by the executed (non-skipped) round count: 1 plus epsilon
	// under the fused protocol, 2 plus epsilon under the PR 9 two-exchange
	// protocol. Pure schema-v2 additions, dist rows only.
	RTTs         int64   `json:"rtts,omitempty"`
	RTTsPerRound float64 `json:"rtts_per_round,omitempty"`
	// BatchBytesFixed/BatchBytesDelta total the coordinator->worker deliver
	// payload cost across shards under the fixed-width reference encoding
	// versus the delta-varint encoding actually on the wire.
	BatchBytesFixed int64 `json:"batch_bytes_fixed,omitempty"`
	BatchBytesDelta int64 `json:"batch_bytes_delta,omitempty"`
	// DistVsInProc is the dist row's wall-clock ratio against the in-process
	// exact row of the same (algo, n, seed, workers) in the same report:
	// above 1 the wire dominates, below 1 the shards out-run one core.
	DistVsInProc float64 `json:"dist_vs_inproc,omitempty"`
	// OK is false when the run errored; Error then holds the message.
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// Quantiles summarizes one per-trial cost series with nearest-rank order
// statistics over the cell's successful trials.
type Quantiles struct {
	P50 int64 `json:"p50"`
	P90 int64 `json:"p90"`
	Max int64 `json:"max"`
}

// NewQuantiles computes nearest-rank quantiles of values (which it sorts in
// place). An empty series yields the zero Quantiles.
func NewQuantiles(values []int64) Quantiles {
	if len(values) == 0 {
		return Quantiles{}
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	rank := func(p float64) int64 {
		return values[int(p*float64(len(values)-1))]
	}
	return Quantiles{P50: rank(0.50), P90: rank(0.90), Max: values[len(values)-1]}
}

// CellStats is one grid cell of a Monte Carlo sweep: the aggregate of Trials
// independent (graph, solve) runs of one (family, n, param, algo, engine)
// configuration. It deliberately carries no wall-clock fields — every field
// is a pure function of the master seed, which is what lets the sweep
// pipeline promise byte-identical reports at any worker count.
type CellStats struct {
	// Family is the graph family ("gnp", "gnm", "regular").
	Family string `json:"family"`
	N      int    `json:"n"`
	// Param is the family's density knob: the threshold constant c for
	// gnp/gnm (p = c·ln n / n^delta), the degree d for regular.
	Param float64 `json:"param"`
	// Delta is the gnp/gnm threshold exponent (0 for regular).
	Delta float64 `json:"delta,omitempty"`
	// P is the derived edge probability (0 for regular).
	P float64 `json:"p,omitempty"`
	// Algo and Engine name the solver configuration, spelled as
	// dhc.ParseAlgorithm and dhc.ParseEngine accept them ("dra", ... /
	// "exact", "step").
	Algo   string `json:"algo"`
	Engine string `json:"engine"`
	// Trials is the cell's trial count; the five outcome counters below
	// partition it (Successes + FailNoHC + FailRoundLimit + FailError +
	// FailCanceled).
	Trials         int `json:"trials"`
	Successes      int `json:"successes"`
	FailNoHC       int `json:"fail_no_hc,omitempty"`
	FailRoundLimit int `json:"fail_round_limit,omitempty"`
	FailError      int `json:"fail_error,omitempty"`
	// FailCanceled counts trials cut off by a per-cell timeout or an
	// operator interrupt. Unlike every other field it is wall-clock
	// dependent, so a canceled cell is never byte-stable: the sweep
	// pipeline refuses to resume from it (the cell re-runs) and -validate
	// rejects reports that still carry one.
	FailCanceled int `json:"fail_canceled,omitempty"`
	// SuccessRate is Successes/Trials, the Monte Carlo estimate of the
	// paper's "w.h.p." success probability at this grid point.
	SuccessRate float64 `json:"success_rate"`
	// FirstError samples one failure message, so a report documents *why* a
	// cell failed without storing every error. Classes are sampled in
	// severity order — a configuration error always wins the slot, then
	// round-limit, canceled, and plain no-cycle messages (first trial in
	// trial order within a class) — so a routine no_hc sentinel string can
	// never mask the config error a fail_error cell is reported for.
	FirstError string `json:"first_error,omitempty"`
	// Rounds/Steps summarize the successful trials' charged costs.
	Rounds Quantiles `json:"rounds"`
	Steps  Quantiles `json:"steps"`
	// Messages/Bits are present for the exact engines only (the step
	// engine exchanges no messages).
	Messages *Quantiles `json:"messages,omitempty"`
	Bits     *Quantiles `json:"bits,omitempty"`
}

// Key identifies the cell within a grid, independent of cell order. It is
// both the resume key and the input of the cell's RNG stream derivation.
func (c *CellStats) Key() string {
	return fmt.Sprintf("%s/n=%d/param=%g/delta=%g/%s/%s",
		c.Family, c.N, c.Param, c.Delta, c.Algo, c.Engine)
}

// ScalingFit is the log-log slope of a cost statistic against n along one
// (family, param, algo, engine) series of the grid — the empirical scaling
// exponent the paper's round/step theorems predict.
type ScalingFit struct {
	Family string  `json:"family"`
	Param  float64 `json:"param"`
	Delta  float64 `json:"delta,omitempty"`
	Algo   string  `json:"algo"`
	Engine string  `json:"engine"`
	// Points is the number of grid sizes with at least one success that
	// entered the fit; slopes need Points >= 2.
	Points int `json:"points"`
	// RoundsSlope and StepsSlope fit median rounds/steps ~ n^slope. Zero
	// means "no data" (the statistic is not metered for the configuration,
	// e.g. steps for algorithms that never rotate), never a real fit — a
	// genuine flat series fits a near-zero but non-zero slope.
	RoundsSlope float64 `json:"rounds_slope,omitempty"`
	StepsSlope  float64 `json:"steps_slope,omitempty"`
}

// GenRecord is one measured graph-construction run: how fast a generator
// family builds an instance at a given size. Generator throughput is part of
// the perf trajectory because the sweep pipeline regenerates every trial's
// graph — a slow generator taxes every Monte Carlo cell that uses it.
type GenRecord struct {
	// Family is the generator's family name (FamilyNames vocabulary).
	Family string `json:"family"`
	// N is the instance's vertex count; M its realized edge count.
	N int   `json:"n"`
	M int64 `json:"m"`
	// Param is the family's density knob with the same meaning as
	// CellStats.Param (0 for the deterministic lattices).
	Param float64 `json:"param,omitempty"`
	// Seed is the generator seed (0 for deterministic families).
	Seed uint64 `json:"seed,omitempty"`
	// WallSeconds is the construction wall-clock; EdgesPerSec is
	// M/WallSeconds, the throughput this section tracks.
	WallSeconds float64 `json:"wall_seconds"`
	EdgesPerSec float64 `json:"edges_per_sec,omitempty"`
}

// ServiceRecord is one load-test pass against a running hcserve instance
// (BENCH_pr7): Requests solve requests issued over Conns concurrent
// connections, drawn round-robin from a mix of Distinct distinct request
// bodies. A cold pass touches each distinct request for the first time
// (every response computed); a warm pass repeats the same mix against the
// populated replay cache (every response replayed). The cold/warm p50 ratio
// of a pass pair is the cache-hit speedup this section tracks.
type ServiceRecord struct {
	// Pass is "cold" (cache-empty) or "warm" (cache-populated).
	Pass string `json:"pass"`
	// Conns is the number of concurrent client connections.
	Conns int `json:"conns"`
	// Requests is the number of requests the pass issued; Distinct is the
	// size of the request mix they were drawn from.
	Requests int `json:"requests"`
	Distinct int `json:"distinct"`
	// Algos, Engines and Sizes record the request mix's axes (comma lists).
	Algos   string `json:"algos"`
	Engines string `json:"engines"`
	Sizes   string `json:"sizes"`
	// WallSeconds is the whole pass's wall-clock; ReqPerSec its throughput.
	WallSeconds float64 `json:"wall_seconds"`
	ReqPerSec   float64 `json:"req_per_sec,omitempty"`
	// P50MS and P99MS are nearest-rank per-request latency quantiles in
	// milliseconds, measured at the client (network + queue + solve).
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	// Hits and Misses count the responses' X-Cache headers; a warm pass over
	// an adequate cache should be all hits.
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	// Errors counts transport failures and non-outcome HTTP statuses
	// (anything other than ok/no_hc/round_limit). -validate treats any
	// error as fatal, like a failed Record.
	Errors int `json:"errors,omitempty"`
}

// SweepSection is the schema-v2 Monte Carlo payload: the grid's per-cell
// statistics plus the scaling fits across cells. MasterSeed, TrialsPerCell
// and the solver overrides pin the sweep's determinism contract —
// re-running the same grid with the same master seed reproduces the section
// byte for byte at any worker count — and are exactly the fields a resume
// must match before reusing cells (cell keys do not repeat them).
type SweepSection struct {
	MasterSeed    uint64 `json:"master_seed"`
	TrialsPerCell int    `json:"trials_per_cell"`
	// NumColors records the grid's solver override; cells computed under
	// different overrides are not comparable.
	NumColors int          `json:"num_colors,omitempty"`
	Cells     []CellStats  `json:"cells"`
	Fits      []ScalingFit `json:"fits,omitempty"`
}

// Report is the top-level BENCH_<rev>.json document.
type Report struct {
	SchemaVersion int `json:"schema_version"`
	// Rev labels the source revision the binary was built from.
	Rev string `json:"rev"`
	// Executable is the SHA-256 of the executable that wrote the report.
	// hcsweep sets it and its -resume refuses a report whose stamp differs
	// or is missing: another build may compute the same cell differently.
	Executable string `json:"executable_sha256,omitempty"`
	// GoVersion and NumCPU pin the host shape: wall-clock comparisons
	// (notably worker scaling) are only meaningful at NumCPU > 1.
	GoVersion string   `json:"go_version"`
	NumCPU    int      `json:"num_cpu"`
	Records   []Record `json:"records,omitempty"`
	// Sweep is the v2 Monte Carlo section (hcsweep); nil for pure
	// benchmark reports. A report must carry records, a sweep, generator
	// records, or any combination.
	Sweep *SweepSection `json:"sweep,omitempty"`
	// Generators holds graph-construction throughput rows (BENCH_pr6).
	// A pure addition to schema v2: absent in older reports, ignored by
	// older readers.
	Generators []GenRecord `json:"generators,omitempty"`
	// Service holds hcserve load-test passes (BENCH_pr7). Like Generators,
	// a pure v2 addition.
	Service []ServiceRecord `json:"service,omitempty"`
}

// NewReport creates an empty report for the given revision label and host.
func NewReport(rev, goVersion string, numCPU int) *Report {
	return &Report{
		SchemaVersion: SchemaVersion,
		Rev:           rev,
		GoVersion:     goVersion,
		NumCPU:        numCPU,
	}
}

// Encode writes the report as indented JSON.
func (r *Report) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// DecodeReport parses and validates a BENCH_*.json document. Unknown fields
// are rejected so schema drift fails loudly instead of silently dropping
// data.
func DecodeReport(data []byte) (*Report, error) {
	var r Report
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("bench: malformed report: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// Validate checks structural invariants: known schema version, non-empty
// identity fields, coherent costs. It does NOT fail on OK=false records or
// failed sweep trials — a report may legitimately document failures; use
// FailedRecords (or the sweep's success rates) for CI gating.
func (r *Report) Validate() error {
	if r.SchemaVersion < minSchemaVersion || r.SchemaVersion > SchemaVersion {
		return fmt.Errorf("bench: unsupported schema version %d (want %d..%d)",
			r.SchemaVersion, minSchemaVersion, SchemaVersion)
	}
	if r.Rev == "" {
		return fmt.Errorf("bench: report missing rev")
	}
	if len(r.Records) == 0 && r.Sweep == nil && len(r.Generators) == 0 && len(r.Service) == 0 {
		return fmt.Errorf("bench: report has no records, sweep section, generator records, or service records")
	}
	if r.Sweep != nil && r.SchemaVersion < 2 {
		return fmt.Errorf("bench: sweep section requires schema version >= 2, got %d", r.SchemaVersion)
	}
	if r.Sweep != nil {
		if err := r.Sweep.validate(); err != nil {
			return err
		}
	}
	for i, g := range r.Generators {
		if !ValidFamily(g.Family) {
			return fmt.Errorf("bench: generator record %d has unknown family %q (valid: %s)",
				i, g.Family, strings.Join(FamilyNames(), ", "))
		}
		if g.N <= 0 {
			return fmt.Errorf("bench: generator record %d has n = %d", i, g.N)
		}
		if g.M < 0 {
			return fmt.Errorf("bench: generator record %d has m = %d", i, g.M)
		}
		if g.WallSeconds < 0 {
			return fmt.Errorf("bench: generator record %d has negative wall time", i)
		}
	}
	for i, s := range r.Service {
		if s.Pass != "cold" && s.Pass != "warm" {
			return fmt.Errorf("bench: service record %d has unknown pass %q (want cold or warm)", i, s.Pass)
		}
		if s.Conns <= 0 {
			return fmt.Errorf("bench: service record %d has conns = %d", i, s.Conns)
		}
		if s.Requests <= 0 {
			return fmt.Errorf("bench: service record %d has requests = %d", i, s.Requests)
		}
		if s.Distinct <= 0 || s.Distinct > s.Requests {
			return fmt.Errorf("bench: service record %d has distinct = %d of %d requests", i, s.Distinct, s.Requests)
		}
		if s.Hits+s.Misses+s.Errors != s.Requests {
			return fmt.Errorf("bench: service record %d hits+misses+errors do not partition %d requests", i, s.Requests)
		}
		if s.WallSeconds < 0 {
			return fmt.Errorf("bench: service record %d has negative wall time", i)
		}
		if s.P50MS < 0 || s.P99MS < s.P50MS {
			return fmt.Errorf("bench: service record %d has incoherent latency quantiles (p50=%v p99=%v)", i, s.P50MS, s.P99MS)
		}
	}
	for i, rec := range r.Records {
		if rec.Algo == "" {
			return fmt.Errorf("bench: record %d missing algo", i)
		}
		if !ValidEngine(rec.Engine) {
			return fmt.Errorf("bench: record %d has unknown engine %q", i, rec.Engine)
		}
		if rec.Engine == "dist" && rec.Shards < 2 {
			return fmt.Errorf("bench: record %d is a dist row with shards = %d", i, rec.Shards)
		}
		if rec.Engine != "dist" && (rec.Shards != 0 || len(rec.ShardStats) != 0 ||
			rec.RTTs != 0 || rec.RTTsPerRound != 0 ||
			rec.BatchBytesFixed != 0 || rec.BatchBytesDelta != 0 || rec.DistVsInProc != 0) {
			return fmt.Errorf("bench: record %d carries shard fields but engine is %q", i, rec.Engine)
		}
		if rec.N <= 0 {
			return fmt.Errorf("bench: record %d has n = %d", i, rec.N)
		}
		if rec.Workers < 0 {
			return fmt.Errorf("bench: record %d has workers = %d", i, rec.Workers)
		}
		if rec.Mode != "" && rec.Mode != "fresh" && rec.Mode != "reuse" {
			return fmt.Errorf("bench: record %d has unknown mode %q", i, rec.Mode)
		}
		if rec.Mode != "" && rec.Trials <= 0 {
			return fmt.Errorf("bench: record %d mode %q needs trials > 0", i, rec.Mode)
		}
		if rec.WallSeconds < 0 {
			return fmt.Errorf("bench: record %d has negative wall time", i)
		}
		if rec.OK && rec.Error != "" {
			return fmt.Errorf("bench: record %d is ok but carries error %q", i, rec.Error)
		}
		if rec.OK && rec.Rounds <= 0 {
			return fmt.Errorf("bench: record %d succeeded with no rounds charged", i)
		}
		if !rec.OK && rec.Error == "" {
			return fmt.Errorf("bench: record %d failed without an error message", i)
		}
	}
	return nil
}

// validate checks the sweep section's cell invariants.
func (s *SweepSection) validate() error {
	if len(s.Cells) == 0 {
		return fmt.Errorf("bench: sweep section has no cells")
	}
	seen := make(map[string]bool, len(s.Cells))
	for i := range s.Cells {
		c := &s.Cells[i]
		if !ValidFamily(c.Family) {
			return fmt.Errorf("bench: sweep cell %d has unknown family %q (valid: %s)",
				i, c.Family, strings.Join(FamilyNames(), ", "))
		}
		if c.Algo == "" {
			return fmt.Errorf("bench: sweep cell %d missing algo", i)
		}
		// Cells take the parse vocabulary: a "dist" cell ran in process.
		if _, err := dhc.ParseEngine(c.Engine); err != nil {
			return fmt.Errorf("bench: sweep cell %d: %w", i, err)
		}
		if c.N <= 0 {
			return fmt.Errorf("bench: sweep cell %d has n = %d", i, c.N)
		}
		if c.Trials <= 0 {
			return fmt.Errorf("bench: sweep cell %d has %d trials", i, c.Trials)
		}
		if c.Successes+c.FailNoHC+c.FailRoundLimit+c.FailError+c.FailCanceled != c.Trials {
			return fmt.Errorf("bench: sweep cell %d outcome counts do not partition %d trials", i, c.Trials)
		}
		if got, want := c.SuccessRate, float64(c.Successes)/float64(c.Trials); got != want {
			return fmt.Errorf("bench: sweep cell %d success rate %v inconsistent with %d/%d", i, got, c.Successes, c.Trials)
		}
		if key := c.Key(); seen[key] {
			return fmt.Errorf("bench: duplicate sweep cell %s", key)
		} else {
			seen[key] = true
		}
	}
	return nil
}

// FailedRecords returns the indices of records with OK=false, for callers
// (TestCommittedReportsDecode) that treat any failed run as fatal.
func (r *Report) FailedRecords() []int {
	var out []int
	for i, rec := range r.Records {
		if !rec.OK {
			out = append(out, i)
		}
	}
	return out
}
