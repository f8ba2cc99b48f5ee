package main

import (
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: scaldift/internal/store
cpu: Some CPU
BenchmarkStoreSpill-8        	     100	  12345 ns/op	 900.00 MB/s	215716 chunks/s
BenchmarkLifecycleRetentionSpill 	      50	  23456 ns/op	 400.00 MB/s
BenchmarkPipelineStreamAggLineageOffloaded-8 	      10	 1000000 ns/op	 2500000 events/s	       3.100 x-native
BenchmarkOntracPipelinePsumRecordOnly-8 	       1	 2601718 ns/op	18000000 events/s
garbage line
BenchmarkBroken abc
PASS
ok  	scaldift/internal/store	1.0s
`

func TestParseBenchOutput(t *testing.T) {
	m, err := parseBenchOutput(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, unit string
		want       float64
	}{
		{"BenchmarkStoreSpill", "MB/s", 900},
		{"BenchmarkStoreSpill", "chunks/s", 215716},
		{"BenchmarkLifecycleRetentionSpill", "MB/s", 400}, // no -P suffix
		{"BenchmarkPipelineStreamAggLineageOffloaded", "events/s", 2.5e6},
		{"BenchmarkPipelineStreamAggLineageOffloaded", "x-native", 3.1},
		{"BenchmarkOntracPipelinePsumRecordOnly", "events/s", 1.8e7},
	}
	for _, c := range cases {
		if got := m[c.name][c.unit]; got != c.want {
			t.Errorf("%s %s = %v, want %v", c.name, c.unit, got, c.want)
		}
	}
	if _, ok := m["BenchmarkBroken"]; ok {
		t.Error("malformed line parsed as a result")
	}
}

func TestLoadBaselinesFromRepo(t *testing.T) {
	// The real checked-in baselines must map onto real benchmark
	// names; this pins the name derivation against the JSON shapes.
	b, hosts, err := loadBaselines("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"BenchmarkStoreSpill",
		"BenchmarkOntracPipelineCompressInline",
		"BenchmarkOntracPipelineCompressRecordOnly",
		"BenchmarkOntracPipelineCompressOffloaded",
		"BenchmarkOntracPipelineMatmulOffloaded",
		"BenchmarkOntracPipelinePsumRecordOnly",
	} {
		m, ok := b[name]
		if !ok {
			t.Errorf("baseline for %s not derived", name)
			continue
		}
		unit := "events/s"
		if strings.HasPrefix(name, "BenchmarkStore") {
			unit = "MB/s"
		}
		if m[unit] <= 0 {
			t.Errorf("%s: no positive %s baseline (%v)", name, unit, m)
		}
	}
	// The regenerated baselines record the host they were measured on.
	found := false
	for _, h := range hosts {
		if strings.HasPrefix(h, "BENCH_ontrac.json:") {
			found = true
		}
	}
	if !found {
		t.Errorf("no host fingerprint recorded for BENCH_ontrac.json (hosts: %v)", hosts)
	}
}

func TestCompareAndMarkdown(t *testing.T) {
	baselines := map[string]metrics{
		"BenchmarkA": {"events/s": 1000},
		"BenchmarkB": {"MB/s": 100},
		"BenchmarkC": {"events/s": 500}, // not run: unchecked
	}
	measured := map[string]metrics{
		"BenchmarkA": {"events/s": 900},         // -10%: ok
		"BenchmarkB": {"MB/s": 50, "ns/op": 12}, // -50%: regression
		"BenchmarkD": {"events/s": 1},           // no baseline: ignored
	}
	rows := compare(measured, baselines, 0.30)
	if len(rows) != 2 {
		t.Fatalf("expected 2 rows, got %d: %+v", len(rows), rows)
	}
	if rows[0].name != "BenchmarkA" || rows[0].regressed {
		t.Errorf("row A wrong: %+v", rows[0])
	}
	if rows[1].name != "BenchmarkB" || !rows[1].regressed {
		t.Errorf("row B wrong: %+v", rows[1])
	}
	md := markdown(rows, 0.30, []string{"BENCH_x.json: linux/amd64 (1 cpu, GOMAXPROCS 1, go0)"})
	if !strings.Contains(md, "**REGRESSION**") || !strings.Contains(md, "| BenchmarkA |") {
		t.Errorf("markdown missing content:\n%s", md)
	}
	if !strings.Contains(md, "baseline BENCH_x.json:") || !strings.Contains(md, "this run:") {
		t.Errorf("markdown missing host fingerprints:\n%s", md)
	}

	// Exactly at the threshold is not a regression (> not >=).
	edge := compare(map[string]metrics{"BenchmarkA": {"events/s": 700}},
		map[string]metrics{"BenchmarkA": {"events/s": 1000}}, 0.30)
	if edge[0].regressed {
		t.Error("30% drop at a 30% threshold flagged")
	}
	// An improvement is never a regression.
	up := compare(map[string]metrics{"BenchmarkA": {"events/s": 5000}},
		map[string]metrics{"BenchmarkA": {"events/s": 1000}}, 0.30)
	if up[0].regressed {
		t.Error("improvement flagged as regression")
	}
}

func TestMissingBaselinesAreWarningsNotRows(t *testing.T) {
	baselines := map[string]metrics{
		"BenchmarkGone":    {"events/s": 1000}, // renamed/removed benchmark
		"BenchmarkPresent": {"events/s": 1000},
	}
	measured := map[string]metrics{
		"BenchmarkPresent": {"events/s": 950},
	}
	missing := missingBaselines(measured, baselines)
	if len(missing) != 1 || missing[0] != "BenchmarkGone" {
		t.Fatalf("missingBaselines = %v, want [BenchmarkGone]", missing)
	}
	// The stale baseline must not leak into the comparison: it neither
	// produces a row nor a regression, so -strict cannot fail on it.
	rows := compare(measured, baselines, 0.30)
	if len(rows) != 1 || rows[0].name != "BenchmarkPresent" {
		t.Fatalf("compare rows = %+v, want only BenchmarkPresent", rows)
	}
	if rows[0].regressed {
		t.Error("within-threshold run flagged")
	}
	// A fully matching run reports nothing missing.
	if m := missingBaselines(baselines, baselines); len(m) != 0 {
		t.Errorf("fully matched run reported missing baselines: %v", m)
	}
}
