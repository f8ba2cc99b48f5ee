package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// runAll runs every workload, each run in a fresh child process so
// peak_rss_mb belongs to one workload, prints the medians by metric
// and workload, and writes the results file `compare` reads.
func runAll(cfg config, spec *benchSpec, quick bool, runs int, outFile string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	res := resultsFile{Host: newHostBlock(cfg, quick)}
	traceArg := "0"
	if cfg.trace {
		traceArg = "1"
	}
	for _, w := range workloads() {
		for r := 0; r < runs; r++ {
			args := []string{
				"-workload", w.name,
				"-seed", strconv.FormatUint(cfg.seed+uint64(r), 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
				"-trace", traceArg,
			}
			if quick {
				args = append(args, "-quick")
			}
			d, err := runChild(exe, cfg.root, args)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			res.Runs = append(res.Runs, *d)
		}
	}
	printSummary(&res, spec, cfg.trace)
	if cfg.trace {
		printPredictions(&res)
	}

	if outFile == "" {
		name := "results.json"
		if cfg.trace {
			name = "trace.json"
		}
		outFile = filepath.Join(cfg.root, "bench", "out", name)
	}
	buf, err := json.MarshalIndent(&res, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outFile, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("results written to", outFile)
	for _, d := range res.Runs {
		if !d.Correct {
			return errFailed
		}
	}
	return nil
}

// runChild runs one workload run in a child process, passes its
// report through, and returns its detail record.
func runChild(exe, dir string, args []string) (*runDetail, error) {
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	var d *runDetail
	for _, line := range strings.Split(stdout.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "#detail "); ok {
			d = &runDetail{}
			if err := json.Unmarshal([]byte(rest), d); err != nil {
				return nil, fmt.Errorf("child detail line: %w", err)
			}
		} else if line != "" && !strings.HasPrefix(line, "{") {
			fmt.Println(line)
		}
	}
	if d == nil {
		if runErr == nil {
			runErr = fmt.Errorf("child printed no result")
		}
		return nil, runErr
	}
	// A child that printed its result and then exited non-zero failed
	// its correctness gate; the detail record says so.
	return d, nil
}

// printSummary prints one row per metric and one column per
// workload: the median over the runs made.
func printSummary(res *resultsFile, spec *benchSpec, trace bool) {
	declared := spec.EndToEnd
	if trace {
		declared = spec.PerLayer
	}
	fmt.Printf("\nhost: %s, %d clients, %g s per run, scale %g\n", res.Host.Host, res.Host.Clients, res.Host.Seconds, res.Host.Scale)
	if res.Host.Quick {
		fmt.Println("QUICK SCALE: these timings are a smoke test, not results")
	}
	fmt.Printf("%-36s %-8s", "metric (median over runs)", "unit")
	for _, w := range workloads() {
		fmt.Printf(" %15s", w.name)
	}
	fmt.Println()
	for _, m := range declared {
		fmt.Printf("%-36s %-8s", m.Name, m.Unit)
		for _, w := range workloads() {
			fmt.Printf(" %15.6g", median(res.values(w.name, m.Name)))
		}
		fmt.Println()
	}
	if len(res.Runs) >= 2*len(workloads()) {
		fmt.Printf("\n%-36s %-8s", "spread (q3-q1)/median over runs", "bound")
		for _, w := range workloads() {
			fmt.Printf(" %15s", w.name)
		}
		fmt.Println()
		for _, m := range declared {
			fmt.Printf("%-36s %-8.2f", m.Name, m.Bound)
			for _, w := range workloads() {
				fmt.Printf(" %15.4f", spread(res.values(w.name, m.Name)))
			}
			fmt.Println()
		}
		fmt.Println()
	}
	fmt.Printf("%-36s %-8s", "fail_share", "ratio")
	for _, w := range workloads() {
		var failed, attempted int64
		for _, d := range res.Runs {
			if d.Workload == w.name {
				failed += d.Failed
				attempted += d.Attempted
			}
		}
		fmt.Printf(" %15.6g", float64(failed)/float64(max(attempted, 1)))
	}
	fmt.Println()
}

// values returns one metric's value on every run of one workload.
func (res *resultsFile) values(workload, metric string) []float64 {
	var out []float64
	for _, d := range res.Runs {
		if m, ok := d.Metrics[metric]; ok && d.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// printPredictions checks, on the traced run's numbers, what the
// benchmark's design says each workload does and does not exercise.
func printPredictions(res *resultsFile) {
	v := func(workload, metric string) float64 { return median(res.values(workload, metric)) }
	say := func(holds bool, format string, args ...any) {
		verdict := "holds"
		if !holds {
			verdict = "DOES NOT HOLD"
		}
		fmt.Printf("prediction %s: %s\n", verdict, fmt.Sprintf(format, args...))
	}
	fmt.Println()
	for _, w := range workloads() {
		multi := v(w.name, "pipeline.windows_multichain")
		if w.name == "mapreduce-par" || w.name == "psum-query" {
			say(multi > 0, "%s has multi-chain windows (%g)", w.name, multi)
		} else {
			say(multi == 0, "%s has no multi-chain window (%g)", w.name, multi)
		}
		hit := v(w.name, "query.cache_hit_share")
		if w.mix.hot > 0 {
			say(hit > w.mix.hot/2 && hit <= w.mix.hot, "%s serves about %g of its requests from the result cache (%.3f)", w.name, w.mix.hot, hit)
		} else {
			say(hit < 0.01, "%s repeats a query only by chance (cache hit share %.3f)", w.name, hit)
		}
		fmt.Printf("reported, not gated: %s spends %.1f%% of its trace wall in store.spill_s, span coverage of record_to_answer %.3f\n",
			w.name, 100*v(w.name, "store.spill_share"), v(w.name, "bench.span_coverage"))
	}
}
