// Command benchcheck guards the checked-in benchmark baselines: it
// parses `go test -bench` output, maps benchmark names to the
// throughput numbers recorded in BENCH_store.json, BENCH_ontrac.json,
// and BENCH_lifecycle.json, and reports any benchmark whose events/s
// or MB/s dropped more than the threshold below its baseline.
//
//	go test -bench . -benchtime 1x -run '^$' ./... | benchcheck -baseline-dir .
//
// The report is a markdown table (append it to a CI job summary). By
// default regressions only set the REGRESSION status in the table and
// a warning on stderr; -strict makes them fatal (exit 1) for
// environments quiet enough to trust — CI smoke runs on shared
// runners should stay advisory, since the baselines were measured on
// a dedicated host with long benchtimes.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"scaldift/internal/benchfp"
)

// metrics maps a metric unit ("events/s", "MB/s") to its value.
type metrics map[string]float64

func main() {
	benchFile := flag.String("bench", "-", "benchmark output file (- = stdin)")
	baselineDir := flag.String("baseline-dir", ".", "directory holding BENCH_*.json")
	threshold := flag.Float64("threshold", 0.30, "relative drop that counts as a regression")
	strict := flag.Bool("strict", false, "exit 1 on regression instead of warning")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if *benchFile != "-" {
		f, err := os.Open(*benchFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	measured, err := parseBenchOutput(in)
	if err != nil {
		fatal(err)
	}
	baselines, hosts, err := loadBaselines(*baselineDir)
	if err != nil {
		fatal(err)
	}
	// A baseline naming a benchmark that no longer runs is a warning,
	// never a failure (even under -strict): smoke jobs select subsets,
	// and a renamed benchmark should not brick CI — it should nag until
	// the baseline file is regenerated.
	for _, name := range missingBaselines(measured, baselines) {
		fmt.Fprintf(os.Stderr, "benchcheck: warning: baseline %s has no matching benchmark in the output (renamed or removed? regenerate the BENCH_*.json)\n", name)
	}
	rows := compare(measured, baselines, *threshold)
	if len(rows) == 0 {
		fmt.Println("benchcheck: no benchmark in the output matches a checked-in baseline")
		return
	}
	fmt.Print(markdown(rows, *threshold, hosts))
	regressions := 0
	for _, r := range rows {
		if r.regressed {
			regressions++
			fmt.Fprintf(os.Stderr, "benchcheck: REGRESSION %s %s: %.4g -> %.4g (%.1f%%)\n",
				r.name, r.unit, r.baseline, r.measured, 100*r.drop)
		}
	}
	if regressions > 0 && *strict {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(2)
}

// parseBenchOutput extracts per-benchmark metric values from `go test
// -bench` output. A result line is "BenchmarkName[-P] <iters>
// <value> <unit> [<value> <unit>]...": everything after the iteration
// count comes in value/unit pairs. The -P GOMAXPROCS suffix is
// stripped; a benchmark run several times keeps its last values (the
// usual -count semantics favor neither, and the baselines are single
// numbers).
func parseBenchOutput(r io.Reader) (map[string]metrics, error) {
	out := make(map[string]metrics)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not an iteration count: some other line
		}
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		m := out[name]
		if m == nil {
			m = make(metrics)
			out[name] = m
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break // malformed tail: keep what parsed
			}
			m[fields[i+1]] = v
		}
	}
	return out, sc.Err()
}

// Baseline JSON shapes — only the fields benchcheck reads.

type storeBench struct {
	Host  *benchfp.Host `json:"host"`
	Spill []struct {
		MBPerS  float64 `json:"mb_per_sec"`
		ChunksS float64 `json:"chunks_per_sec"`
	} `json:"spill"`
}

type lifecycleBench struct {
	Host      *benchfp.Host `json:"host"`
	Retention struct {
		MBPerS float64 `json:"mb_per_sec"`
	} `json:"retention_spill"`
	Cache struct {
		HitQueriesPS float64 `json:"hit_queries_per_sec"`
	} `json:"cache"`
}

type ontracBench struct {
	Host    *benchfp.Host `json:"host"`
	Results []struct {
		Workload string `json:"workload"`
		Inline   struct {
			EventsPerSec float64 `json:"events_per_sec"`
		} `json:"inline"`
		RecordOnly struct {
			EventsPerSec float64 `json:"events_per_sec"`
		} `json:"record_only"`
		Offloaded struct {
			EventsPerSec float64 `json:"events_per_sec"`
		} `json:"offloaded"`
	} `json:"results"`
}

// camelName maps the baseline files' lowercase workload names to the
// benchmark-name fragments.
func camelName(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// loadBaselines derives benchmark-name → expected metrics from the
// BENCH_*.json files present in dir. Missing files are skipped: a
// repo state with only some baselines still gets the others checked.
// hosts collects the fingerprint each baseline file recorded (if any),
// so the report can show where the baselines were measured — the first
// thing to check before believing a cross-host "regression".
func loadBaselines(dir string) (out map[string]metrics, hosts []string, err error) {
	out = make(map[string]metrics)
	host := func(file string, h *benchfp.Host) {
		if h != nil {
			hosts = append(hosts, file+": "+h.String())
		}
	}
	add := func(name, unit string, v float64) {
		if v <= 0 {
			return
		}
		m := out[name]
		if m == nil {
			m = make(metrics)
			out[name] = m
		}
		m[unit] = v
	}

	var sb storeBench
	if ok, err := readJSON(filepath.Join(dir, "BENCH_store.json"), &sb); err != nil {
		return nil, nil, err
	} else if ok {
		host("BENCH_store.json", sb.Host)
		for _, sp := range sb.Spill {
			add("BenchmarkStoreSpill", "MB/s", sp.MBPerS)
		}
	}

	var lb lifecycleBench
	if ok, err := readJSON(filepath.Join(dir, "BENCH_lifecycle.json"), &lb); err != nil {
		return nil, nil, err
	} else if ok {
		host("BENCH_lifecycle.json", lb.Host)
		add("BenchmarkLifecycleRetentionSpill", "MB/s", lb.Retention.MBPerS)
		add("BenchmarkLifecycleCacheHit", "queries/s", lb.Cache.HitQueriesPS)
	}

	var ob ontracBench
	if ok, err := readJSON(filepath.Join(dir, "BENCH_ontrac.json"), &ob); err != nil {
		return nil, nil, err
	} else if ok {
		host("BENCH_ontrac.json", ob.Host)
		for _, res := range ob.Results {
			base := "BenchmarkOntracPipeline" + camelName(res.Workload)
			add(base+"Inline", "events/s", res.Inline.EventsPerSec)
			add(base+"RecordOnly", "events/s", res.RecordOnly.EventsPerSec)
			add(base+"Offloaded", "events/s", res.Offloaded.EventsPerSec)
		}
	}
	return out, hosts, nil
}

// readJSON loads path into v; ok=false when the file does not exist.
func readJSON(path string, v any) (ok bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	return true, nil
}

// row is one benchmark × metric comparison.
type row struct {
	name      string
	unit      string
	baseline  float64
	measured  float64
	drop      float64 // positive = slower than baseline
	regressed bool
}

// compare joins measured output with baselines. Only metrics present
// on both sides produce rows; a benchmark that did not run leaves its
// baseline unchecked (smoke jobs select subsets).
func compare(measured, baselines map[string]metrics, threshold float64) []row {
	var rows []row
	for name, base := range baselines {
		got, ok := measured[name]
		if !ok {
			continue
		}
		for unit, bv := range base {
			gv, ok := got[unit]
			if !ok {
				continue
			}
			drop := (bv - gv) / bv
			rows = append(rows, row{
				name: name, unit: unit,
				baseline: bv, measured: gv,
				drop:      drop,
				regressed: drop > threshold,
			})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].name != rows[j].name {
			return rows[i].name < rows[j].name
		}
		return rows[i].unit < rows[j].unit
	})
	return rows
}

// missingBaselines returns the sorted names of baselines with no
// measured benchmark at all. (A benchmark that ran but lost a metric
// unit still compares on the units both sides share; only a fully
// absent name is reported.)
func missingBaselines(measured, baselines map[string]metrics) []string {
	var out []string
	for name := range baselines {
		if _, ok := measured[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// markdown renders the comparison as a GitHub job-summary table,
// headed by the host each baseline file was measured on next to the
// host doing the measuring — cross-host deltas are noise until proven
// otherwise (docs/PERF.md describes the protocol).
func markdown(rows []row, threshold float64, hosts []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### Benchmark baseline check (threshold: -%.0f%%)\n\n", 100*threshold)
	for _, h := range hosts {
		fmt.Fprintf(&b, "- baseline %s\n", h)
	}
	fmt.Fprintf(&b, "- this run: %s\n\n", benchfp.Current())
	b.WriteString("| benchmark | metric | baseline | measured | delta | status |\n")
	b.WriteString("|---|---|---:|---:|---:|---|\n")
	for _, r := range rows {
		status := "ok"
		if r.regressed {
			status = "**REGRESSION**"
		}
		fmt.Fprintf(&b, "| %s | %s | %.4g | %.4g | %+.1f%% | %s |\n",
			r.name, r.unit, r.baseline, r.measured, -100*r.drop, status)
	}
	return b.String()
}
