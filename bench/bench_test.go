package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func testSpec(t *testing.T) (string, *benchSpec) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return root, spec
}

// TestDeclaration holds BENCHMARK.json to the limits of the benchmark
// contract and to the workloads the driver implements.
func TestDeclaration(t *testing.T) {
	_, spec := testSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	defs := workloads()
	if len(spec.Workloads) != len(defs) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(defs))
	}
	for i, w := range spec.Workloads {
		use(w.Name)
		if w.Name != defs[i].name {
			t.Errorf("workload %d is declared %q, implemented %q", i, w.Name, defs[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is not declared")
	}
	for _, m := range spec.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}

// TestQuickRun drives every workload through both runs at the smoke
// scale. runOne itself fails when the metrics measured are not exactly
// the metrics declared, so a passing run pins the name sets.
func TestQuickRun(t *testing.T) {
	root, spec := testSpec(t)
	if err := os.MkdirAll(filepath.Join(root, "bench", "out"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, def := range workloads() {
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload: def.name, seed: 7, seconds: 0.3, trace: traced,
				scale: quickScale, clients: clientCount(), root: root,
			}
			d, err := runOne(cfg, spec)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", def.name, traced, err)
			}
			if d.Failed != 0 || !d.Correct || d.Attempted < 1 {
				t.Errorf("%s (trace %v): %d of %d operations failed: %v", def.name, traced, d.Failed, d.Attempted, d.Failures)
			}
			want := len(spec.EndToEnd)
			if traced {
				want = len(spec.PerLayer)
			}
			if len(d.Metrics) != want {
				t.Errorf("%s (trace %v): %d metrics reported, %d declared", def.name, traced, len(d.Metrics), want)
			}
			if traced {
				checkSpanFile(t, filepath.Join(root, "bench", "out", def.name+".trace.json"), def.name)
			}
		}
	}
}

// checkSpanFile parses a span file and checks that every span closed
// after it opened and names a parent that exists.
func checkSpanFile(t *testing.T, path, workload string) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if doc.Workload != workload || len(doc.Spans) == 0 {
		t.Fatalf("%s: workload %q with %d spans", path, doc.Workload, len(doc.Spans))
	}
	ids := map[int]bool{}
	roots := map[string]bool{}
	for _, s := range doc.Spans {
		ids[s.ID] = true
	}
	for _, s := range doc.Spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("%s: span %d (%s) names parent %d, which is not in the file", path, s.ID, s.Name, s.Parent)
		}
		if s.EndNS < s.StartNS || s.Workload != workload {
			t.Errorf("%s: span %d (%s) is malformed", path, s.ID, s.Name)
		}
		if s.Parent == 0 {
			roots[s.Name] = true
		}
	}
	if !roots["record_to_answer"] {
		t.Errorf("%s: no record_to_answer root span", path)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4),
// which is what the acceptance driver computes spreads with.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2, 5, 4})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %g, %g; want 1.5, 4.5", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "x_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "x_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		a, b []float64
		m    metricSpec
		want string
	}{
		{steady, []float64{104, 105, 103, 104, 106}, lower, "within"},
		{steady, []float64{120, 121, 119, 120, 122}, lower, "worse"},
		{steady, []float64{120, 121, 119, 120, 122}, higher, "within"},
		{steady, []float64{80, 81, 79, 80, 82}, higher, "worse"},
		{[]float64{80, 100, 120, 90, 110}, steady, lower, "unresolved"},
		{[]float64{200, 260, 320, 230, 290}, steady, lower, "within"}, // every run of B beats every run of A
	}
	for i, c := range cases {
		if got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("case %d: verdict %q, want %q", i, got, c.want)
		}
	}
}
