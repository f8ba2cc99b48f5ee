// Command bench is scaldift's end-to-end benchmark: one path from a
// program's first VM instruction to a served slice answer — record,
// analyze, spill, reopen, serve — measured on four workloads, plus a
// traced run that times every layer alone. BENCHMARK.json at the
// repository root declares the workloads and metrics; README.md in
// this directory defines them.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one run (the driver's contract)
//	bench [-runs N] [-o file]                        every workload, end-to-end metrics
//	bench trace                                      every workload, per-layer metrics and span files
//	bench compare A.json B.json                      two result files against the declared bounds
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"scaldift/internal/benchfp"
)

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json, the one declaration of workload
// and metric names, units and bounds.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// findRoot walks up from the working directory to the directory that
// holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

func loadSpec(root string) (*benchSpec, error) {
	buf, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// metricValue is one reported metric on the wire.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line a single run prints: exactly the keys
// the benchmark contract names.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runDetail is what a single run knows beyond the contract line; the
// all-workloads modes collect it into the results file.
type runDetail struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	runResult
	// Counts are deterministic for a fixed seed and compared
	// bit-for-bit between result files.
	Counts map[string]uint64 `json:"counts"`
	// Reps is how many repetitions each median was taken over.
	Reps map[string]int `json:"reps"`
	// Walls are the individual repetition walls, in seconds, behind
	// the medians of the timed run.
	Walls    map[string][]float64 `json:"walls_s,omitempty"`
	Failures []string             `json:"failures,omitempty"`
}

// hostBlock records where and how a result file was measured.
type hostBlock struct {
	benchfp.Host
	Nproc   int     `json:"nproc"`
	Clients int     `json:"clients"`
	Seconds float64 `json:"seconds"`
	Scale   float64 `json:"scale"`
	Quick   bool    `json:"quick"`
	Time    string  `json:"time"`
	// PageCacheWarm says first_answer_s reopens files this process
	// just wrote: reader index and chunk cache are cold, the OS page
	// cache is not.
	PageCacheWarm bool `json:"os_page_cache_warm"`
	// OverlapMeaningful is false when GOMAXPROCS < 2: then
	// *_exec_slowdown and *.overlap_ratio measure interleaving on one
	// core, not overlap with spare cores.
	OverlapMeaningful bool `json:"overlap_meaningful"`
}

// resultsFile is what the all-workloads modes write under bench/out/.
type resultsFile struct {
	Host hostBlock   `json:"host"`
	Runs []runDetail `json:"runs"`
}

func clientCount() int { return min(2, runtime.NumCPU()) }

func newHostBlock(cfg config, quick bool) hostBlock {
	return hostBlock{
		Host: benchfp.Current(), Nproc: runtime.NumCPU(), Clients: cfg.clients,
		Seconds: cfg.seconds, Scale: cfg.scale, Quick: quick,
		Time:          time.Now().UTC().Format(time.RFC3339),
		PageCacheWarm: true, OverlapMeaningful: runtime.GOMAXPROCS(0) >= 2,
	}
}

func warnSingleCore() {
	if runtime.GOMAXPROCS(0) < 2 {
		fmt.Fprintln(os.Stderr, "bench: warning: GOMAXPROCS < 2: *_exec_slowdown and *.overlap_ratio measure interleaving on one core, not overlap")
	}
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}

// runOne runs one workload once in this process: the timed run with
// end-to-end metrics, or the traced run with per-layer metrics.
func runOne(cfg config, spec *benchSpec) (*runDetail, error) {
	def := workloadByName(cfg.workload)
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	g := &gate{}
	setupReps := 3
	if cfg.scale < 1 {
		setupReps = 1
	}
	e, setupS, err := timeSetup(def, cfg, g, setupReps)
	if err != nil {
		return nil, err
	}
	defer e.cleanup()

	budget := time.Duration(cfg.seconds * float64(time.Second))
	values := map[string]float64{}
	reps := map[string]int{"setup": setupReps}
	var walls map[string][]float64
	declared := spec.EndToEnd
	if !cfg.trace {
		t, err := e.runSteps(budget)
		if err != nil {
			return nil, err
		}
		if err := e2eMetrics(e, setupS, t, values, reps); err != nil {
			return nil, err
		}
		walls = map[string][]float64{
			"native": durations(t.native), "track_total": durations(t.trackTotal),
			"trace_total": durations(t.traceTotal), "first_answer": durations(t.firstAnswer),
		}
	} else {
		declared = spec.PerLayer
		if err := e.tracedRun(budget, values, reps); err != nil {
			return nil, err
		}
	}

	d := &runDetail{
		Workload: def.name, Seed: cfg.seed,
		runResult: runResult{
			Correct:   g.failed.Load() == 0,
			Attempted: g.attempted.Load(),
			Failed:    g.failed.Load(),
			Metrics:   map[string]metricValue{},
		},
		Counts: g.counts(), Reps: reps, Walls: walls, Failures: g.msgs,
	}
	for _, m := range declared {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", m.Name)
		}
		d.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		delete(values, m.Name)
	}
	for name := range values {
		return nil, fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", name)
	}
	return d, nil
}

// e2eMetrics turns one timed pass into the end-to-end metrics.
func e2eMetrics(e *env, setupS float64, t *timings, out map[string]float64, reps map[string]int) error {
	instr := float64(e.ref.instructions)
	native := median(durations(t.native))
	trackTotal, traceTotal := median(durations(t.trackTotal)), median(durations(t.traceTotal))
	first := median(durations(t.firstAnswer))
	out["setup_s"] = setupS
	out["native_events_per_s"] = instr / native
	out["track_events_per_s"] = instr / trackTotal
	out["track_exec_slowdown"] = median(t.trackSlowdown)
	out["trace_events_per_s"] = instr / traceTotal
	out["trace_exec_slowdown"] = median(t.traceSlowdown)
	out["trace_bytes_per_instr"] = float64(t.trace.diskBytes) / instr
	out["first_answer_s"] = first
	out["record_to_answer_s"] = traceTotal + first
	lat, ok := t.serve.latenciesMS()
	out["slice_p50_ms"] = median(lat)
	out["slice_p99_ms"] = quantile(lat, 0.99)
	out["slice_qps"] = float64(ok) / t.serve.wall.Seconds()
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	out["peak_rss_mb"] = rss
	reps["native"], reps["track"], reps["trace"] = len(t.native), len(t.trackTotal), len(t.traceTotal)
	reps["first_answer"], reps["serve_requests"] = len(t.firstAnswer), len(lat)
	return nil
}

// latenciesMS returns every timed request's client-side latency and
// the number answered correctly.
func (s *serveOut) latenciesMS() (ms []float64, ok int) {
	for _, x := range s.samples {
		ms = append(ms, float64(x.latency)/float64(time.Millisecond))
		if x.ok {
			ok++
		}
	}
	return ms, ok
}

// queryMetrics turns the serve step's samples into the query layer's
// metrics.
func queryMetrics(t *timings, out map[string]float64) {
	var wall, overhead, hit []float64
	var loads int64
	var computed, cached, truncated int
	for _, x := range t.serve.samples {
		ms := float64(x.latency) / float64(time.Millisecond)
		if x.truncated {
			truncated++
		}
		if x.cached {
			cached++
			hit = append(hit, ms)
			continue
		}
		computed++
		loads += x.chunkLoads
		wall = append(wall, x.wallMS)
		overhead = append(overhead, ms-x.wallMS)
	}
	n := float64(max(len(t.serve.samples), 1))
	out["query.refresh_s"] = median(durations(t.refresh))
	out["query.server_wall_p50_ms"] = median(wall)
	out["query.overhead_p50_ms"] = median(overhead)
	out["query.cache_hit_p50_ms"] = median(hit)
	out["query.cache_hit_share"] = float64(cached) / n
	out["query.chunk_loads_per_query"] = float64(loads) / float64(max(computed, 1))
	out["query.truncated_at_window_share"] = float64(truncated) / n
	out["query.rejected"] = float64(t.serve.rejected)
}

// tracedRun is the traced run: steps 2–6 once without and once with
// spans (the difference is the tracing overhead), one composed
// record → answer iteration under a single root span, then every
// layer alone on captured input.
func (e *env) tracedRun(budget time.Duration, out map[string]float64, reps map[string]int) error {
	plain, err := e.runSteps(budget / 4)
	if err != nil {
		return err
	}
	e.tr = newTracer(e.def.name)
	traced, err := e.runSteps(budget / 4)
	if err != nil {
		return err
	}
	sum := func(t *timings) float64 {
		return median(durations(t.native)) + median(durations(t.trackTotal)) +
			median(durations(t.traceTotal)) + median(durations(t.firstAnswer))
	}
	out["bench.trace_overhead_share"] = sum(traced)/sum(plain) - 1

	root := e.tr.start("record_to_answer", nil)
	_, err = e.traceRep(root)
	if err == nil {
		_, err = e.firstAnswerRep(root)
	}
	root.end()
	if err != nil {
		return err
	}
	out["bench.span_coverage"] = e.tr.leafCoverage(root)

	queryMetrics(traced, out)
	if err := e.layers(budget/2, traced, out); err != nil {
		return err
	}
	reps["native"], reps["track"], reps["trace"] = len(traced.native), len(traced.trackTotal), len(traced.traceTotal)
	reps["first_answer"], reps["serve_requests"] = len(traced.firstAnswer), len(traced.serve.samples)

	dir := filepath.Join(e.cfg.root, "bench", "out")
	return e.tr.write(filepath.Join(dir, e.def.name+".trace.json"))
}

// printRun writes one run's metrics by name with their units, then
// the contract line.
func printRun(d *runDetail) error {
	names := make([]string, 0, len(d.Metrics))
	for n := range d.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d (first_answer_s: reader index and chunk cache cold, OS page cache warm)\n", d.Workload, d.Seed)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, d.Metrics[n].Value, d.Metrics[n].Unit)
	}
	fmt.Printf("  %-36s %14d of %d (slice_p99_ms over %d samples)\n", "failed", d.Failed, d.Attempted, d.Reps["serve_requests"])
	for _, m := range d.Failures {
		fmt.Println("  FAILED:", m)
	}
	detail, err := json.Marshal(d)
	if err != nil {
		return err
	}
	fmt.Printf("#detail %s\n", detail)
	line, err := json.Marshal(d.runResult)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errFailed makes the command exit non-zero after it has printed its
// results: some checked operation failed.
var errFailed = errors.New("some operations failed their correctness check")

func run(args []string) error {
	mode := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		mode, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload, in this process")
	seed := fs.Uint64("seed", 1, "seed for program inputs, schedules and query criteria")
	seconds := fs.Float64("seconds", 0, "measuring budget of one run (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1: traced run, per-layer metrics; 0: timed run, end-to-end metrics")
	quick := fs.Bool("quick", false, "smoke-test scale; its timings are never results")
	runs := fs.Int("runs", 1, "runs per workload, each with the next seed")
	outFile := fs.String("o", "", "results file (default bench/out/results.json, trace.json for the traced run)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if mode == "compare" {
		if fs.NArg() != 2 {
			return errors.New("usage: bench compare A.json B.json")
		}
		return compare(fs.Arg(0), fs.Arg(1))
	}
	if mode != "" && mode != "trace" {
		return fmt.Errorf("unknown mode %q", mode)
	}

	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds,
		trace: *trace == 1 || mode == "trace", scale: 1, clients: clientCount(), root: root,
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	if *quick {
		cfg.scale = quickScale
		cfg.seconds = min(cfg.seconds, 0.5)
	}
	if err := os.MkdirAll(filepath.Join(root, "bench", "out"), 0o755); err != nil {
		return err
	}
	warnSingleCore()

	if cfg.workload != "" {
		d, err := runOne(cfg, spec)
		if err != nil {
			return err
		}
		if err := printRun(d); err != nil {
			return err
		}
		if !d.Correct {
			return errFailed
		}
		return nil
	}
	return runAll(cfg, spec, *quick, *runs, *outFile)
}
