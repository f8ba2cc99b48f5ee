package prog

import (
	"fmt"
	"testing"

	"scaldift/internal/vm"
)

// runChecked executes the workload on a fresh machine and validates it.
func runChecked(w *Workload) (*vm.Machine, *vm.Result, error) {
	m := w.NewMachine()
	res := m.Run()
	if res.Failed {
		return m, res, fmt.Errorf("%s: run failed at pc %d: %s", w.Name, res.FailPC, res.FailMsg)
	}
	if w.Check != nil {
		if err := w.Check(m); err != nil {
			return m, res, fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	return m, res, nil
}

// TestAllWorkloadsSelfCheck runs every registered workload
// uninstrumented and asserts its self-check passes, so the workload
// library itself is exercised by tier-1.
func TestAllWorkloadsSelfCheck(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			if _, _, err := runChecked(w); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestValidationLineageGroundTruth sanity-checks the WantLineage
// metadata of every workload that carries it (the data-validation
// suite and the hand-written families): one entry per ChOut word,
// indices within the consumed input range.
func TestValidationLineageGroundTruth(t *testing.T) {
	for _, w := range append(ValidationSuite(1), FamiliesSuite(1)...) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			if w.WantLineage == nil {
				t.Fatal("validation workload missing WantLineage")
			}
			m, _, err := runChecked(w)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(m.Output(ChOut)), len(w.WantLineage); got != want {
				t.Fatalf("%d outputs but %d lineage entries", got, want)
			}
			consumed := int64(m.InputsConsumed())
			for i, deps := range w.WantLineage {
				for _, d := range deps {
					if d < 0 || d >= consumed {
						t.Fatalf("output %d depends on input %d, outside consumed range [0,%d)", i, d, consumed)
					}
				}
			}
		})
	}
}
