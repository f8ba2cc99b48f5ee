package pipeline

import (
	"fmt"
	"testing"

	"scaldift/internal/bdd"
	"scaldift/internal/dift"
	"scaldift/internal/isa"
	"scaldift/internal/lineage"
	"scaldift/internal/vm"
)

// Regression tests for the two CAS label bugs fixed in dift.Step,
// pinned under BOTH engines (inline and pipeline) and all three label
// domains. The differential suite alone could never catch them: the
// engines share Step, so they diverged from the truth identically.
//
//   Bug 1 (aliasing): with Rd == Rs2 the swapped cell used to take
//   the expected-value register's POST-update label — the old memory
//   value's label that had just landed in Rd.
//   Bug 2 (const store): a successful CAS stores the constant Imm
//   (vm/exec.go), yet the cell was labeled from Rs2 — over-tainting a
//   constant store under ClearOnConst.

// casSuccessAlias succeeds with Rd == Rs2: r2 is the clean expected
// value, mem[0] holds a tainted 5. After the CAS, Rd must carry the
// old (tainted) value's label and the cell must be CLEAN — under
// ClearOnConst because the stored 9 is a constant, under sticky
// labels because the gate register's pre-CAS label is clean.
const casSuccessAlias = `
.data 0
    in r3, 0            ; tainted input, value 5
    store r0, r3, 0     ; mem[0] = 5, tainted
    movi r2, 5          ; clean expected value
    cas r2, r0, r2, 9   ; Rd == Rs2, succeeds: mem[0] = 9
    halt
`

// casFailureAlias fails with Rd == Rs2: the expected value 6 cannot
// match the tainted 5 in mem[0]. Rd still reads memory (tainted), the
// cell label is untouched (tainted).
const casFailureAlias = `
.data 0
    in r3, 0            ; tainted input, value 5
    store r0, r3, 0     ; mem[0] = 5, tainted
    movi r2, 6          ; clean expected value, cannot match
    cas r2, r0, r2, 9   ; Rd == Rs2, fails
    halt
`

// casBoth runs text under the inline engine and the pipeline with the
// same domain/policy and returns both for label comparison.
func casBoth[L comparable](t *testing.T, text string, dom, pdom dift.Domain[L], pol dift.Policy) (*dift.Engine[L], *Pipeline[L], *vm.Machine) {
	t.Helper()
	p, err := isa.Assemble("t", text)
	if err != nil {
		t.Fatal(err)
	}
	mi := vm.MustNew(p, vm.Config{})
	mi.SetInput(0, []int64{5})
	eng := dift.NewEngine[L](dom, pol)
	mi.AttachTool(eng)
	if res := mi.Run(); res.Failed {
		t.Fatalf("inline run failed: %s", res.FailMsg)
	}

	mp := vm.MustNew(p, vm.Config{})
	mp.SetInput(0, []int64{5})
	pl := New[L](pdom, pol, Options{BatchEvents: 4})
	if res := Run(mp, pl); res.Failed {
		t.Fatalf("pipeline run failed: %s", res.FailMsg)
	}
	return eng, pl, mi
}

// checkCas asserts the Rd (r2) and mem[0] labels are (un)tainted as
// expected, identically under both engines.
func checkCas[L comparable](t *testing.T, eng *dift.Engine[L], pl *Pipeline[L], wantRegTaint, wantMemTaint bool) {
	t.Helper()
	var zero L
	if got := eng.RegTaint(0, 2) != zero; got != wantRegTaint {
		t.Errorf("inline Rd taint = %v, want %v", got, wantRegTaint)
	}
	if got := eng.MemTaint(0) != zero; got != wantMemTaint {
		t.Errorf("inline mem[0] taint = %v, want %v", got, wantMemTaint)
	}
	if got := pl.RegTaint(0, 2) != zero; got != wantRegTaint {
		t.Errorf("pipeline Rd taint = %v, want %v", got, wantRegTaint)
	}
	if got := pl.MemTaint(0) != zero; got != wantMemTaint {
		t.Errorf("pipeline mem[0] taint = %v, want %v", got, wantMemTaint)
	}
}

func TestCasRdRs2AliasingComparableDomains(t *testing.T) {
	sticky := dift.Policy{ClearOnConst: false}
	cases := []struct {
		name     string
		text     string
		pol      dift.Policy
		wantMem  int64 // machine value of mem[0] after the run
		memTaint bool
	}{
		// Success: cell stores the constant 9 and must end up clean —
		// the buggy rule tainted it from post-update Rs2 in all four.
		{"success/clearOnConst", casSuccessAlias, dift.DefaultPolicy(), 9, false},
		{"success/sticky", casSuccessAlias, sticky, 9, false},
		// Failure: no write, tainted cell label untouched.
		{"failure/clearOnConst", casFailureAlias, dift.DefaultPolicy(), 5, true},
		{"failure/sticky", casFailureAlias, sticky, 5, true},
	}
	for _, tc := range cases {
		t.Run("bool/"+tc.name, func(t *testing.T) {
			eng, pl, m := casBoth[bool](t, tc.text, dift.Bool{}, dift.Bool{}, tc.pol)
			if m.Mem[0] != tc.wantMem {
				t.Fatalf("mem[0] = %d, want %d", m.Mem[0], tc.wantMem)
			}
			checkCas(t, eng, pl, true, tc.memTaint)
		})
		t.Run("pc/"+tc.name, func(t *testing.T) {
			eng, pl, _ := casBoth[dift.PCLabel](t, tc.text, dift.PC{}, dift.PC{}, tc.pol)
			checkCas(t, eng, pl, true, tc.memTaint)
			if eng.MemTaint(0) != pl.MemTaint(0) {
				t.Fatalf("PC labels diverged: inline %d, pipeline %d", eng.MemTaint(0), pl.MemTaint(0))
			}
		})
	}
}

func TestCasRdRs2AliasingLineage(t *testing.T) {
	sticky := dift.Policy{ClearOnConst: false}
	cases := []struct {
		name     string
		text     string
		pol      dift.Policy
		memTaint bool
	}{
		{"success/clearOnConst", casSuccessAlias, dift.DefaultPolicy(), false},
		{"success/sticky", casSuccessAlias, sticky, false},
		{"failure/clearOnConst", casFailureAlias, dift.DefaultPolicy(), true},
		{"failure/sticky", casFailureAlias, sticky, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			di := lineage.NewDomain(8)
			dp := lineage.NewDomain(8)
			eng, pl, _ := casBoth[bdd.Ref](t, tc.text, di, dp, tc.pol)
			checkCas(t, eng, pl, true, tc.memTaint)
			// Lineage refs live in separate managers; compare the
			// denoted element sets.
			ei := di.Manager().Elements(eng.MemTaint(0), nil)
			ep := dp.Manager().Elements(pl.MemTaint(0), nil)
			if fmt.Sprint(ei) != fmt.Sprint(ep) {
				t.Fatalf("mem[0] lineage diverged: inline %v, pipeline %v", ei, ep)
			}
		})
	}
}
