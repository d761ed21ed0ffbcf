package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleReport() *Report {
	r := NewReport("test-rev", "go1.x", 4)
	r.Records = []Record{{
		Algo: "dhc2", Engine: "step", N: 512, M: 4000, P: 0.1,
		Seed: 2, GraphSeed: 1, NumColors: 8, Workers: 1,
		WallSeconds: 0.25, Rounds: 900, Steps: 4000,
		Phase1Rounds: 700, Phase2Rounds: 200, OK: true,
	}, {
		Algo: "dhc2", Engine: "step", N: 512, M: 4000, P: 0.1,
		Seed: 2, GraphSeed: 1, NumColors: 8, Workers: 8,
		WallSeconds: 0.05, Rounds: 900, Steps: 4000,
		Phase1Rounds: 700, Phase2Rounds: 200, OK: true,
	}}
	return r
}

func TestReportRoundTrip(t *testing.T) {
	r := sampleReport()
	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != SchemaVersion || got.Rev != "test-rev" || len(got.Records) != 2 {
		t.Fatalf("round trip mangled report: %+v", got)
	}
	if got.Records[1].Workers != 8 || got.Records[1].Rounds != 900 {
		t.Fatalf("record mangled: %+v", got.Records[1])
	}
}

func TestReportValidationRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Report)
		substr string
	}{
		{"bad-version", func(r *Report) { r.SchemaVersion = 99 }, "schema version"},
		{"no-rev", func(r *Report) { r.Rev = "" }, "missing rev"},
		{"no-records", func(r *Report) { r.Records = nil }, "no records, sweep section, generator records, or service records"},
		{"bad-engine", func(r *Report) { r.Records[0].Engine = "warp" }, "unknown engine"},
		{"bad-n", func(r *Report) { r.Records[0].N = 0 }, "has n"},
		{"ok-with-error", func(r *Report) { r.Records[0].Error = "boom" }, "carries error"},
		{"ok-no-rounds", func(r *Report) { r.Records[0].Rounds = 0 }, "no rounds"},
		{"fail-no-message", func(r *Report) { r.Records[0].OK = false; r.Records[0].Error = "" }, "without an error"},
		{"shards-on-inproc", func(r *Report) { r.Records[0].Shards = 3 }, "carries shard fields"},
		{"rtts-on-inproc", func(r *Report) { r.Records[0].RTTs = 40 }, "carries shard fields"},
		{"rtts-per-round-on-inproc", func(r *Report) { r.Records[0].RTTsPerRound = 1.1 }, "carries shard fields"},
		{"batch-bytes-on-inproc", func(r *Report) { r.Records[0].BatchBytesDelta = 9 }, "carries shard fields"},
		{"ratio-on-inproc", func(r *Report) { r.Records[0].DistVsInProc = 2.5 }, "carries shard fields"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := sampleReport()
			tc.mutate(r)
			err := r.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.substr) {
				t.Fatalf("got %v, want error containing %q", err, tc.substr)
			}
		})
	}
}

// sampleService builds a valid cold/warm service-pass pair.
func sampleService() []ServiceRecord {
	return []ServiceRecord{
		{Pass: "cold", Conns: 4, Requests: 16, Distinct: 16, Algos: "dhc2", Engines: "step", Sizes: "256",
			WallSeconds: 1.0, ReqPerSec: 16, P50MS: 50, P99MS: 80, Misses: 16},
		{Pass: "warm", Conns: 4, Requests: 64, Distinct: 16, Algos: "dhc2", Engines: "step", Sizes: "256",
			WallSeconds: 0.1, ReqPerSec: 640, P50MS: 0.5, P99MS: 2, Hits: 64},
	}
}

func TestServiceRecordValidation(t *testing.T) {
	r := sampleReport()
	r.Records = nil
	r.Service = sampleService()
	if err := r.Validate(); err != nil {
		t.Fatalf("service-only report rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Report)
		substr string
	}{
		{"bad-pass", func(r *Report) { r.Service[0].Pass = "tepid" }, "unknown pass"},
		{"no-conns", func(r *Report) { r.Service[0].Conns = 0 }, "has conns"},
		{"distinct-over-requests", func(r *Report) { r.Service[0].Distinct = 99 }, "distinct"},
		{"bad-partition", func(r *Report) { r.Service[0].Hits = 3 }, "partition"},
		{"p99-below-p50", func(r *Report) { r.Service[0].P99MS = 1 }, "latency quantiles"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := sampleReport()
			r.Service = sampleService()
			tc.mutate(r)
			if err := r.Validate(); err == nil || !strings.Contains(err.Error(), tc.substr) {
				t.Fatalf("got %v, want error containing %q", err, tc.substr)
			}
		})
	}
}

func TestDecodeReportRejectsMalformed(t *testing.T) {
	if _, err := DecodeReport([]byte(`{"schema_version": 1,`)); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	if _, err := DecodeReport([]byte(`{"schema_version": 1, "rev": "x", "bogus_field": true, "records": []}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// sampleSweep builds a minimal valid sweep section.
func sampleSweep() *SweepSection {
	return &SweepSection{
		MasterSeed:    7,
		TrialsPerCell: 10,
		Cells: []CellStats{{
			Family: "gnp", N: 256, Param: 1.5, Delta: 0.5, P: 0.5,
			Algo: "dra", Engine: "step",
			Trials: 10, Successes: 9, FailNoHC: 1, SuccessRate: 0.9,
			Rounds: Quantiles{P50: 100, P90: 200, Max: 300},
		}},
		Fits: []ScalingFit{{
			Family: "gnp", Param: 1.5, Delta: 0.5, Algo: "dra", Engine: "step",
			Points: 2, RoundsSlope: 1.3,
		}},
	}
}

// TestSchemaV1StillDecodes pins backward compatibility: the BENCH_pr2/pr3
// trajectory files at the repository root are schema v1 and must keep
// decoding after the v2 bump.
func TestSchemaV1StillDecodes(t *testing.T) {
	v1 := []byte(`{"schema_version": 1, "rev": "pr2", "go_version": "go1.22",
		"num_cpu": 1, "records": [{"algo": "dhc2", "engine": "step", "n": 64,
		"m": 100, "p": 0.1, "seed": 1, "graph_seed": 1, "workers": 1,
		"wall_seconds": 0.1, "rounds": 10, "steps": 5,
		"phase1_rounds": 5, "phase2_rounds": 5, "ok": true}]}`)
	rep, err := DecodeReport(v1)
	if err != nil {
		t.Fatalf("v1 report rejected: %v", err)
	}
	if rep.SchemaVersion != 1 || len(rep.Records) != 1 {
		t.Fatalf("v1 report mangled: %+v", rep)
	}
}

// TestSweepSectionRoundTrip checks a records-free v2 sweep report validates
// and survives encode/decode.
func TestSweepSectionRoundTrip(t *testing.T) {
	r := NewReport("test-rev", "go1.x", 4)
	r.Sweep = sampleSweep()
	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Sweep == nil || len(got.Sweep.Cells) != 1 || got.Sweep.Cells[0].Key() != sampleSweep().Cells[0].Key() {
		t.Fatalf("sweep section mangled: %+v", got.Sweep)
	}
	if got.Sweep.Fits[0].RoundsSlope != 1.3 {
		t.Fatalf("fit mangled: %+v", got.Sweep.Fits[0])
	}
}

// TestSweepValidationRejects drives the sweep-section invariants.
func TestSweepValidationRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Report)
		substr string
	}{
		{"v1-with-sweep", func(r *Report) { r.SchemaVersion = 1 }, "requires schema version"},
		{"no-cells", func(r *Report) { r.Sweep.Cells = nil }, "no cells"},
		{"bad-family", func(r *Report) { r.Sweep.Cells[0].Family = "smallworld" }, "unknown family"},
		{"bad-engine", func(r *Report) { r.Sweep.Cells[0].Engine = "warp" }, "unknown engine"},
		{"dist-engine", func(r *Report) { r.Sweep.Cells[0].Engine = "dist" }, "unknown engine"},
		{"bad-n", func(r *Report) { r.Sweep.Cells[0].N = 0 }, "has n"},
		{"no-trials", func(r *Report) { r.Sweep.Cells[0].Trials = 0 }, "trials"},
		{"bad-partition", func(r *Report) { r.Sweep.Cells[0].FailNoHC = 5 }, "partition"},
		{"canceled-breaks-partition", func(r *Report) { r.Sweep.Cells[0].FailCanceled = 1 }, "partition"},
		{"bad-rate", func(r *Report) { r.Sweep.Cells[0].SuccessRate = 0.5 }, "success rate"},
		{"dup-cell", func(r *Report) { r.Sweep.Cells = append(r.Sweep.Cells, r.Sweep.Cells[0]) }, "duplicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReport("test-rev", "go1.x", 4)
			r.Sweep = sampleSweep()
			tc.mutate(r)
			err := r.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.substr) {
				t.Fatalf("got %v, want error containing %q", err, tc.substr)
			}
		})
	}
}

// TestCanceledTrialsPartition pins the five-way outcome partition: a cell
// whose trials were cut off by a timeout/interrupt is schema-valid exactly
// when FailCanceled participates in the partition.
func TestCanceledTrialsPartition(t *testing.T) {
	r := NewReport("test-rev", "go1.x", 4)
	r.Sweep = sampleSweep()
	c := &r.Sweep.Cells[0]
	c.FailCanceled = c.Successes
	c.Successes = 0
	c.SuccessRate = 0
	if err := r.Validate(); err != nil {
		t.Fatalf("canceled-partitioned cell rejected: %v", err)
	}
}

// TestModeRecordValidation pins the solver-lifecycle record fields: modes
// outside the fresh/reuse vocabulary and mode rows without a trial count are
// rejected; a well-formed reuse row round-trips.
func TestModeRecordValidation(t *testing.T) {
	r := sampleReport()
	r.Records[0].Mode = "reuse"
	r.Records[0].Trials = 16
	r.Records[0].TrialsPerSec = 64
	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Records[0].Mode != "reuse" || got.Records[0].Trials != 16 || got.Records[0].TrialsPerSec != 64 {
		t.Fatalf("mode record mangled: %+v", got.Records[0])
	}

	bad := sampleReport()
	bad.Records[0].Mode = "warp"
	bad.Records[0].Trials = 4
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Fatalf("unknown mode accepted: %v", err)
	}
	bad = sampleReport()
	bad.Records[0].Mode = "fresh"
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "trials > 0") {
		t.Fatalf("mode row without trials accepted: %v", err)
	}
}

// TestNewQuantiles checks the nearest-rank order statistics.
func TestNewQuantiles(t *testing.T) {
	if q := NewQuantiles(nil); q != (Quantiles{}) {
		t.Fatalf("empty series: %+v", q)
	}
	q := NewQuantiles([]int64{5, 1, 9, 3, 7})
	if q.P50 != 5 || q.Max != 9 {
		t.Fatalf("quantiles of 1..9: %+v", q)
	}
	if q.P90 < q.P50 || q.P90 > q.Max {
		t.Fatalf("p90 out of order: %+v", q)
	}
	if q := NewQuantiles([]int64{42}); q.P50 != 42 || q.P90 != 42 || q.Max != 42 {
		t.Fatalf("singleton series: %+v", q)
	}
}

func TestFailedRecords(t *testing.T) {
	r := sampleReport()
	r.Records = append(r.Records, Record{Algo: "dra", Engine: "step", N: 64, Workers: 1, OK: false, Error: "no cycle"})
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := r.FailedRecords(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("FailedRecords = %v, want [2]", got)
	}
}

// TestCommittedReportsDecode reads every BENCH_*.json at the repository
// root through DecodeReport (unknown fields rejected) and requires the
// health -validate gates on: no failed record and no errored service
// request. The files are frozen, so any failure here is a schema change
// that stopped reading one of them.
func TestCommittedReportsDecode(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_*.json found at the repository root")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := DecodeReport(data)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if failed := rep.FailedRecords(); len(failed) > 0 {
			t.Errorf("%s: records %v failed", path, failed)
		}
		for i, s := range rep.Service {
			if s.Errors > 0 {
				t.Errorf("%s: service pass %d has %d errored requests", path, i, s.Errors)
			}
		}
	}
}
