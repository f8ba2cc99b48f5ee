package lineage

import (
	"testing"

	"scaldift/internal/bdd"
	"scaldift/internal/dift"
	"scaldift/internal/isa"
	"scaldift/internal/prog"
	"scaldift/internal/vm"
)

func runLineage(t *testing.T, text string, inputs []int64, d *Domain) (*Recorder, *vm.Machine) {
	t.Helper()
	p, err := isa.Assemble("t", text)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.MustNew(p, vm.Config{})
	m.SetInput(0, inputs)
	_, rec, res := Run(m, d, dift.DefaultPolicy())
	if res.Failed {
		t.Fatalf("run failed: %s", res.FailMsg)
	}
	return rec, m
}

func TestSingletonSourcesAndUnion(t *testing.T) {
	d := NewDomain(8)
	rec, _ := runLineage(t, `
    in r1, 0
    in r2, 0
    in r3, 0
    add r4, r1, r2   ; derives from inputs 0,1
    out r4, 1
    out r3, 1        ; derives from input 2
    movi r5, 7
    out r5, 1        ; derives from nothing
    halt
`, []int64{10, 20, 30}, d)
	if len(rec.Outputs) != 3 {
		t.Fatalf("recorded %d outputs, want 3", len(rec.Outputs))
	}
	if got := rec.Lineage(0); !SortedEquals(got.Elements, []int64{0, 1}) {
		t.Fatalf("output 0 lineage = %v, want [0 1]", got.Elements)
	}
	if got := rec.Lineage(1); !SortedEquals(got.Elements, []int64{2}) {
		t.Fatalf("output 1 lineage = %v, want [2]", got.Elements)
	}
	if got := rec.Lineage(2); len(got.Elements) != 0 || got.Count != 0 {
		t.Fatalf("constant output lineage = %v, want empty", got.Elements)
	}
}

func TestLineageThroughMemoryAndAccumulation(t *testing.T) {
	// Running sum through a memory cell: output j derives from the
	// prefix inputs 1..j+1 (input 0 is the count header).
	d := NewDomain(8)
	rec, _ := runLineage(t, `
    in r1, 0          ; n
    movi r2, 0        ; i
loop:
    bge r2, r1, done
    in r3, 0
    load r4, r0, 8    ; acc cell
    add r4, r4, r3
    store r0, r4, 8
    out r4, 1
    addi r2, r2, 1
    br loop
done:
    halt
`, []int64{4, 5, 6, 7, 8}, d)
	if len(rec.Outputs) != 4 {
		t.Fatalf("recorded %d outputs, want 4", len(rec.Outputs))
	}
	for j := 0; j < 4; j++ {
		var want []int64
		for k := 1; k <= j+1; k++ {
			want = append(want, int64(k))
		}
		if got := rec.Lineage(j); !SortedEquals(got.Elements, want) {
			t.Fatalf("output %d lineage = %v, want %v", j, got.Elements, want)
		}
	}
}

func TestDiff(t *testing.T) {
	d := NewDomain(8)
	rec, _ := runLineage(t, `
    in r1, 0
    in r2, 0
    in r3, 0
    add r4, r1, r2
    add r5, r2, r3
    out r4, 1
    out r5, 1
    halt
`, []int64{1, 2, 3}, d)
	onlyI, onlyJ, both := rec.Diff(0, 1)
	if !SortedEquals(onlyI, []int64{0}) || !SortedEquals(onlyJ, []int64{2}) || !SortedEquals(both, []int64{1}) {
		t.Fatalf("diff = %v %v %v, want [0] [2] [1]", onlyI, onlyJ, both)
	}
}

func TestClusteredDomainOverApproximates(t *testing.T) {
	exact := NewDomain(8)
	recE, _ := runLineage(t, `
    in r1, 0
    out r1, 1
    halt
`, []int64{42}, exact)
	clustered := NewClusteredDomain(8, 4)
	recC, _ := runLineage(t, `
    in r1, 0
    out r1, 1
    halt
`, []int64{42}, clustered)
	// Exact: {0}. Clustered at width 4: the aligned block {0,1,2,3}.
	if got := recE.Lineage(0).Elements; !SortedEquals(got, []int64{0}) {
		t.Fatalf("exact lineage = %v", got)
	}
	if got := recC.Lineage(0).Elements; !SortedEquals(got, []int64{0, 1, 2, 3}) {
		t.Fatalf("clustered lineage = %v, want the aligned 4-block", got)
	}
	if cm := clustered.Manager(); cm.Diff(recC.Outputs[0].Set, cm.Interval(0, 3)) != bdd.False {
		t.Fatal("clustered set should be within its block")
	}
}

// TestValidationWorkloadLineages asserts, for every workload that
// carries reference lineage (the data-validation suite and the
// hand-written families), that the recorded lineage of each output
// word exactly matches WantLineage — and that instrumentation did not
// perturb the run (self-check still passes).
func TestValidationWorkloadLineages(t *testing.T) {
	ws := append(prog.ValidationSuite(1), prog.FamiliesSuite(1)...)
	for _, w := range ws {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			m := w.NewMachine()
			d := NewDomain(BitsFor(len(w.Inputs[prog.ChIn]) + 8))
			_, rec, res := Run(m, d, dift.DefaultPolicy())
			if res.Failed {
				t.Fatalf("run failed: %s", res.FailMsg)
			}
			if w.Check != nil {
				if err := w.Check(m); err != nil {
					t.Fatalf("instrumented run perturbed semantics: %v", err)
				}
			}
			outs := rec.OnChannel(prog.ChOut)
			if len(outs) != len(w.WantLineage) {
				t.Fatalf("recorded %d outputs, want %d", len(outs), len(w.WantLineage))
			}
			for i, want := range w.WantLineage {
				got := d.Manager().Elements(outs[i].Set, nil)
				if !SortedEquals(got, want) {
					t.Fatalf("output %d (val %d) lineage = %v, want %v",
						i, outs[i].Val, got, want)
				}
			}
		})
	}
}

// TestSharingAsymptoticallyBelowNaive is the §3.4 storage claim: N
// heavily-overlapping lineage sets (prefixes, as produced by any
// accumulating computation) stored as shared roBDDs take
// asymptotically fewer nodes than the naive sum of set sizes. Naive
// grows Θ(N²); the shared roBDD forest grows O(N·bits).
func TestSharingAsymptoticallyBelowNaive(t *testing.T) {
	const N = 1 << 10
	bits := BitsFor(N)
	m := bdd.NewManager(bits)
	roots := make([]bdd.Ref, N)
	s := bdd.False
	var naive uint64
	for i := 0; i < N; i++ {
		s = m.Union(s, m.Singleton(int64(i)))
		roots[i] = s
		naive += uint64(i + 1)
	}
	shared := m.NodeSizeAll(roots)
	if naive != N*(N+1)/2 {
		t.Fatalf("naive = %d", naive)
	}
	// O(N·bits) bound with a small constant, and a ≥16× concrete
	// margin over naive at this N; the gap widens with N.
	if shared > 4*N*bits {
		t.Fatalf("shared nodes = %d, want O(N·bits) ≤ %d", shared, 4*N*bits)
	}
	if uint64(shared)*16 > naive {
		t.Fatalf("shared nodes = %d not asymptotically below naive %d cells", shared, naive)
	}
}

// TestReportFromRealRun checks the aggregate memory report over an
// actual accumulating run: shared roBDD storage beats naive set
// storage and the report's figures are internally consistent.
func TestReportFromRealRun(t *testing.T) {
	const n = 200
	in := make([]int64, n+1)
	in[0] = n
	for i := 1; i <= n; i++ {
		in[i] = int64(i)
	}
	d := NewDomain(BitsFor(n + 1))
	rec, _ := runLineage(t, `
    in r1, 0
    movi r2, 0
loop:
    bge r2, r1, done
    in r3, 0
    load r4, r0, 8
    add r4, r4, r3
    store r0, r4, 8
    out r4, 1
    addi r2, r2, 1
    br loop
done:
    halt
`, in, d)
	rp := rec.Report()
	if rp.Outputs != n {
		t.Fatalf("report outputs = %d, want %d", rp.Outputs, n)
	}
	if want := uint64(n * (n + 1) / 2); rp.TotalElems != want {
		t.Fatalf("total elems = %d, want %d", rp.TotalElems, want)
	}
	if rp.SharedBytes >= rp.NaiveBytes {
		t.Fatalf("shared %d B not below naive %d B", rp.SharedBytes, rp.NaiveBytes)
	}
	if rp.SharingFactor() < 4 {
		t.Fatalf("sharing factor %.2f, want ≥ 4 for prefix lineages", rp.SharingFactor())
	}
	if rp.SharedNodes > rp.ManagerNodes {
		t.Fatalf("shared %d > manager total %d", rp.SharedNodes, rp.ManagerNodes)
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := BitsFor(n); got != want {
			t.Errorf("BitsFor(%d) = %d, want %d", n, got, want)
		}
	}
}
