package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

func readResults(path string) (*resultsFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultsFile
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// spread is the distance between the quartiles as a share of the
// median: the run-to-run noise of one metric on one workload.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

// verdict compares B against A for one metric on one workload.
//
//	worse       B's median is worse than A's by more than the bound
//	unresolved  the runs of either side spread wider than the bound,
//	            so "no regression" cannot be told from noise — unless
//	            every run of B is at least as good as every run of A
//	within      otherwise
func verdict(a, b []float64, m metricSpec) string {
	ma, mb := median(a), median(b)
	sign := 1.0 // lower is better
	if m.Better == "higher" {
		sign = -1
	}
	if sign*(mb-ma) > m.Bound*ma {
		return "worse"
	}
	if spread(a) > m.Bound || spread(b) > m.Bound {
		allBetter := slices.Max(b) <= slices.Min(a)
		if m.Better == "higher" {
			allBetter = slices.Min(b) >= slices.Max(a)
		}
		if !allBetter {
			return "unresolved"
		}
	}
	return "within"
}

// compare prints one row per (end-to-end metric, workload) for two
// result files and fails on any regression beyond its bound, and on
// any deterministic count that differs for the same workload and
// seed.
func compare(pathA, pathB string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("A: %s  %s (%s)\nB: %s  %s (%s)\n", pathA, a.Host.Host, a.Host.Time, pathB, b.Host.Host, b.Host.Time)
	if a.Host.Quick || b.Host.Quick {
		fmt.Println("warning: quick-scale results are a smoke test, not measurements")
	}
	fmt.Printf("%-22s %-16s %12s %12s %12s %12s %12s %12s %6s  %s\n",
		"metric", "workload", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "bound", "verdict")
	counts := map[string]int{}
	for _, m := range spec.EndToEnd {
		for _, w := range spec.Workloads {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				return fmt.Errorf("%s on %s is missing from one of the files", m.Name, w.Name)
			}
			aq1, aq3 := quartiles(va)
			bq1, bq3 := quartiles(vb)
			v := verdict(va, vb, m)
			counts[v]++
			fmt.Printf("%-22s %-16s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %6.2f  %s\n",
				m.Name, w.Name, aq1, median(va), aq3, bq1, median(vb), bq3, m.Bound, v)
		}
	}

	// Failures count as a metric of their own: B may not fail more.
	var failA, failB int64
	for _, d := range a.Runs {
		failA += d.Failed
	}
	for _, d := range b.Runs {
		failB += d.Failed
	}
	fmt.Printf("failed operations: A %d, B %d\n", failA, failB)
	if failB > failA {
		counts["worse"]++
	}

	differ := 0
	for _, da := range a.Runs {
		for _, db := range b.Runs {
			if da.Workload != db.Workload || da.Seed != db.Seed {
				continue
			}
			for name, v := range da.Counts {
				if w, ok := db.Counts[name]; ok && w != v {
					fmt.Printf("count differs: %s seed %d %s: A %d, B %d\n", da.Workload, da.Seed, name, v, w)
					differ++
				}
			}
		}
	}
	fmt.Printf("within %d, unresolved %d, worse %d; deterministic counts differing: %d\n",
		counts["within"], counts["unresolved"], counts["worse"], differ)
	if counts["worse"] > 0 {
		return fmt.Errorf("%d metric/workload pairs are worse than their bound allows", counts["worse"])
	}
	return nil
}
