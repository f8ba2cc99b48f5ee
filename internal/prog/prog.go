// Package prog is the workload library: mini-ISA programs standing in
// for the paper's benchmark suites. SPEC-CPU-2000-like single-threaded
// kernels drive the tracing experiments (§2.1), SPLASH-2-like parallel
// kernels the TM monitoring experiments (§2.2), and a multithreaded
// request-processing server the execution-reduction and attack
// experiments (§2.2, §3.3). Every workload carries a self-check so
// instrumented runs can assert they did not perturb semantics.
package prog

import (
	"fmt"

	"scaldift/internal/isa"
	"scaldift/internal/vm"
)

// Channel conventions used by all workloads.
const (
	ChIn  = 0 // program input (the DIFT taint source)
	ChOut = 1 // program output
)

// Workload bundles a program with its inputs and a result check.
type Workload struct {
	Name   string
	Prog   *isa.Program
	Inputs map[int][]int64
	Cfg    vm.Config
	// Check validates the run's outputs; nil means no check.
	Check func(m *vm.Machine) error
	// WantLineage, when non-nil, gives for each word the program
	// writes to ChOut the exact set of global input-word indices the
	// word is data-derived from — the ground truth the lineage-set
	// domain (internal/lineage) must reproduce. Indices count every
	// input word consumed, headers included.
	WantLineage [][]int64
}

// NewMachine builds a machine for the workload with inputs loaded.
func (w *Workload) NewMachine() *vm.Machine {
	m := vm.MustNew(w.Prog, w.Cfg)
	for ch, words := range w.Inputs {
		m.SetInput(ch, words)
	}
	return m
}

// All returns every registered workload at a small test scale: the
// SPEC-like kernels, the SPLASH-like parallel kernels, the
// data-validation workloads, and the hand-written families. Tier-1 tests run each one uninstrumented
// and assert its self-check passes.
func All() []*Workload {
	var ws []*Workload
	ws = append(ws, SpecSuite(1)...)
	ws = append(ws, SplashSuite(4, 1)...)
	ws = append(ws, ValidationSuite(1)...)
	ws = append(ws, FamiliesSuite(1)...)
	return ws
}

// rng is a tiny deterministic generator for workload inputs.
type rng struct{ s uint64 }

func newRng(seed uint64) *rng { return &rng{s: seed ^ 0x9e3779b97f4a7c15} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// expectOut returns a Check comparing output channel ChOut to want.
func expectOut(want []int64) func(*vm.Machine) error {
	return func(m *vm.Machine) error {
		got := m.Output(ChOut)
		if len(got) != len(want) {
			return fmt.Errorf("output length %d, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("output[%d] = %d, want %d", i, got[i], want[i])
			}
		}
		return nil
	}
}
